#include "src/mcu/bus.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/mpu.h"
#include "src/mcu/snapshot.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"

namespace amulet {

namespace {
// Value returned for refused/unmapped reads; an out-of-thin-air pattern that
// is easy to spot in traces (and decodes to a CMP, never silently useful).
constexpr uint16_t kRefusedReadValue = 0x3FFF;

// What an address decodes to. kFram (InfoMem, main FRAM, vectors) pays wait
// states and is the only region the MPU can cover; everything below kHole is
// plain memory. Device slot k decodes to kDevice + k.
enum Region : uint8_t { kSram, kFram, kRom, kHole, kDevice };

// Above the peripheral page the map is fixed: one region per 128-byte line.
constexpr int kLineShift = 7;
static_assert((kBslStart | kBslEnd | kInfoMemEnd | kSramStart | kSramEnd | kFramStart) %
                      (1u << kLineShift) == 0,
              "memory_map.h boundaries must fall on decode-line boundaries");

constexpr std::array<uint8_t, (0x10000 >> kLineShift)> kMemoryRegions = [] {
  std::array<uint8_t, (0x10000 >> kLineShift)> table{};
  for (uint32_t line = 0; line < table.size(); ++line) {
    const uint32_t a = line << kLineShift;
    table[line] = InRange(a, kBslStart, kBslEnd) ? kRom
                  : IsSram(a)                    ? kSram
                  : IsAnyFram(a)                 ? kFram
                                                 : kHole;
  }
  return table;
}();
}  // namespace

Bus::Bus(Mpu* mpu) : mpu_(mpu) {
  AMULET_CHECK(mpu != nullptr);
  periph_regions_.fill(kHole);
}

void Bus::AttachDevice(BusDevice* device) {
  AMULET_CHECK(device != nullptr);
  AMULET_CHECK(devices_.size() < 0x100 - kDevice);
  const uint32_t base = device->base();
  const uint32_t end = base + device->size_bytes();
  AMULET_CHECK(base % 2 == 0 && end % 2 == 0 && end <= kPeriphEnd);
  const uint8_t region = static_cast<uint8_t>(kDevice + devices_.size());
  for (uint32_t a = base; a < end; a += 2) {
    AMULET_CHECK(periph_regions_[a >> 1] == kHole);
    periph_regions_[a >> 1] = region;
  }
  devices_.push_back({device, static_cast<uint16_t>(base)});
}

uint8_t Bus::RegionOf(uint16_t addr) const {
  return addr < kPeriphEnd ? periph_regions_[addr >> 1] : kMemoryRegions[addr >> kLineShift];
}

bool Bus::IsPlainMemory(uint16_t addr) const { return RegionOf(addr) < kHole; }

void Bus::InvalidateCode(uint16_t addr) {
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateWord(addr);
  }
}

void Bus::AddFramPenalty(uint8_t region) {
  if (region == kFram) {
    penalty_cycles_ += static_cast<uint64_t>(fram_wait_states_);
  }
}

// The accessors below decode once, then: FRAM wait states, the MPU check
// (only FRAM is ever covered, and an uncovered check always passes without
// side effects), then the region's own behaviour.

uint16_t Bus::ReadWord(uint16_t addr, AccessKind kind) {
  addr &= ~uint16_t{1};
  const uint8_t region = RegionOf(addr);
  AddFramPenalty(region);
  if (region == kFram && !mpu_->CheckAccess(addr, kind)) {
    CountAccess(addr, kind);
    return kRefusedReadValue;
  }
  if (region >= kDevice) {
    if (kind == AccessKind::kFetch) {
      fault_ = BusFault::kFetchFromPeriph;
      return kRefusedReadValue;
    }
    const DeviceSlot& slot = devices_[region - kDevice];
    const uint16_t value = slot.device->ReadWord(static_cast<uint16_t>(addr - slot.base));
    CountAccess(addr, kind);
    return value;
  }
  if (region == kHole) {
    fault_ = BusFault::kUnmapped;
    return kRefusedReadValue;
  }
  CountAccess(addr, kind);
  return static_cast<uint16_t>(mem_[addr] | (mem_[addr + 1] << 8));
}

void Bus::WriteWord(uint16_t addr, uint16_t value) {
  addr &= ~uint16_t{1};
  const uint8_t region = RegionOf(addr);
  AddFramPenalty(region);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (region == kFram && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    CountAccess(addr, AccessKind::kWrite);
    return;  // blocked; violation latched in the MPU
  }
  if (region >= kDevice) {
    CountAccess(addr, AccessKind::kWrite);
    const DeviceSlot& slot = devices_[region - kDevice];
    slot.device->WriteWord(static_cast<uint16_t>(addr - slot.base), value);
    return;
  }
  if (region >= kRom) {
    fault_ = region == kRom ? BusFault::kWriteToRom : BusFault::kUnmapped;
    return;
  }
  CountAccess(addr, AccessKind::kWrite);
  mem_[addr] = static_cast<uint8_t>(value & 0xFF);
  mem_[addr + 1] = static_cast<uint8_t>(value >> 8);
  InvalidateCode(addr);
}

uint8_t Bus::ReadByte(uint16_t addr) {
  const uint8_t region = RegionOf(addr);
  AddFramPenalty(region);
  if (region == kFram && !mpu_->CheckAccess(addr, AccessKind::kRead)) {
    CountAccess(addr, AccessKind::kRead);
    return kRefusedReadValue & 0xFF;
  }
  if (region >= kDevice) {
    const DeviceSlot& slot = devices_[region - kDevice];
    const uint16_t word = slot.device->ReadWord(static_cast<uint16_t>((addr & ~1) - slot.base));
    CountAccess(addr, AccessKind::kRead);
    return (addr & 1) != 0 ? static_cast<uint8_t>(word >> 8) : static_cast<uint8_t>(word & 0xFF);
  }
  if (region == kHole) {
    fault_ = BusFault::kUnmapped;
    return kRefusedReadValue & 0xFF;
  }
  CountAccess(addr, AccessKind::kRead);
  return mem_[addr];
}

void Bus::WriteByte(uint16_t addr, uint8_t value) {
  const uint8_t region = RegionOf(addr);
  AddFramPenalty(region);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (region == kFram && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    CountAccess(addr, AccessKind::kWrite);
    return;
  }
  if (region >= kDevice) {
    const DeviceSlot& slot = devices_[region - kDevice];
    const uint16_t offset = static_cast<uint16_t>((addr & ~1) - slot.base);
    uint16_t word = slot.device->ReadWord(offset);
    if ((addr & 1) != 0) {
      word = static_cast<uint16_t>((word & 0x00FF) | (value << 8));
    } else {
      word = static_cast<uint16_t>((word & 0xFF00) | value);
    }
    CountAccess(addr, AccessKind::kWrite);
    slot.device->WriteWord(offset, word);
    return;
  }
  if (region >= kRom) {
    fault_ = region == kRom ? BusFault::kWriteToRom : BusFault::kUnmapped;
    return;
  }
  CountAccess(addr, AccessKind::kWrite);
  mem_[addr] = value;
  InvalidateCode(addr);
}

uint8_t Bus::PeekByte(uint16_t addr) const { return mem_[addr]; }

void Bus::PokeByte(uint16_t addr, uint8_t value) {
  mem_[addr] = value;
  InvalidateCode(addr);
}

uint16_t Bus::PeekWord(uint16_t addr) const {
  addr &= ~uint16_t{1};
  return static_cast<uint16_t>(mem_[addr] | (mem_[addr + 1] << 8));
}

void Bus::PokeWord(uint16_t addr, uint16_t value) {
  addr &= ~uint16_t{1};
  mem_[addr] = static_cast<uint8_t>(value & 0xFF);
  mem_[addr + 1] = static_cast<uint8_t>(value >> 8);
  InvalidateCode(addr);
}

void Bus::SaveState(SnapshotWriter& w) const {
  w.U8(static_cast<uint8_t>(fault_));
  w.U32(static_cast<uint32_t>(fram_wait_states_));
  w.U64(penalty_cycles_);
  w.Bytes(mem_.data(), mem_.size());
}

void Bus::LoadState(SnapshotReader& r) {
  fault_ = static_cast<BusFault>(r.U8());
  fram_wait_states_ = static_cast<int>(r.U32());
  penalty_cycles_ = r.U64();
  const uint8_t* image = r.View(mem_.size());
  if (image == nullptr) {
    return;  // truncated: memory stays as it was, and so does the cache
  }
  // Every write to mem_ kills the code-cache entries that cover it, so a
  // valid entry matches current memory. Only the words that differ from the
  // incoming image need their entries killed; restoring the snapshot a
  // machine already ran keeps its predecoded code warm.
  constexpr size_t kLine = 64;
  for (size_t line = 0; line < mem_.size(); line += kLine) {
    if (std::memcmp(&mem_[line], image + line, kLine) == 0) {
      continue;
    }
    for (size_t a = line; a < line + kLine; a += 2) {
      if (mem_[a] != image[a] || mem_[a + 1] != image[a + 1]) {
        InvalidateCode(static_cast<uint16_t>(a));
      }
    }
    std::memcpy(&mem_[line], image + line, kLine);
  }
}

Status Bus::LoadImage(uint16_t base, const std::vector<uint8_t>& bytes) {
  if (static_cast<uint32_t>(base) + bytes.size() > 0x10000) {
    return OutOfRangeError(StrFormat("image of %zu bytes at %s overflows the address space",
                                     bytes.size(), HexWord(base).c_str()));
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (mem_[base + i] != bytes[i]) {
      mem_[base + i] = bytes[i];
      InvalidateCode(static_cast<uint16_t>(base + i));
    }
  }
  return OkStatus();
}

}  // namespace amulet
