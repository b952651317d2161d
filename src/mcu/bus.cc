#include "src/mcu/bus.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/snapshot.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"

namespace amulet {

namespace {
// Value returned for refused/unmapped reads; an out-of-thin-air pattern that
// is easy to spot in traces (and decodes to a CMP, never silently useful).
constexpr uint16_t kRefusedReadValue = 0x3FFF;
}  // namespace

Bus::Bus() = default;

void Bus::AttachDevice(BusDevice* device) {
  AMULET_CHECK(device != nullptr);
  devices_.push_back(device);
}

BusDevice* Bus::DeviceFor(uint16_t addr) {
  for (BusDevice* device : devices_) {
    if (addr >= device->base() &&
        addr < static_cast<uint32_t>(device->base()) + device->size_bytes()) {
      return device;
    }
  }
  return nullptr;
}

uint8_t* Bus::BackingFor(uint16_t addr, AccessKind kind, bool* writable) {
  const uint32_t a = addr;
  *writable = true;
  if (InRange(a, kBslStart, kBslEnd)) {
    *writable = false;
    return &mem_[addr];
  }
  if (IsInfoMem(a) || IsSram(a) || a >= kFramStart) {
    return &mem_[addr];
  }
  if (InRange(a, kPeriphStart, kPeriphEnd)) {
    // Peripheral space without a device behind it: handled by caller.
    if (kind == AccessKind::kFetch) {
      fault_ = BusFault::kFetchFromPeriph;
    }
    return nullptr;
  }
  return nullptr;  // hole (0x1A00-0x1BFF, 0x2400-0x43FF)
}

bool Bus::IsPlainMemory(uint16_t addr) const {
  for (const BusDevice* device : devices_) {
    if (addr >= device->base() &&
        addr < static_cast<uint32_t>(device->base()) + device->size_bytes()) {
      return false;
    }
  }
  const uint32_t a = addr;
  return InRange(a, kBslStart, kBslEnd) || IsInfoMem(a) || IsSram(a) || a >= kFramStart;
}

void Bus::InvalidateCode(uint16_t addr) {
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateWord(addr);
  }
}

void Bus::AddFramPenalty(uint16_t addr) {
  if (fram_wait_states_ > 0 && IsAnyFram(addr)) {
    penalty_cycles_ += static_cast<uint64_t>(fram_wait_states_);
  }
}

uint16_t Bus::ReadWord(uint16_t addr, AccessKind kind) {
  addr &= ~uint16_t{1};
  AddFramPenalty(addr);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, kind)) {
    CountAccess(addr, kind);
    return kRefusedReadValue;
  }
  if (BusDevice* device = DeviceFor(addr)) {
    if (kind == AccessKind::kFetch) {
      fault_ = BusFault::kFetchFromPeriph;
      return kRefusedReadValue;
    }
    uint16_t value = device->ReadWord(static_cast<uint16_t>(addr - device->base()));
    CountAccess(addr, kind);
    return value;
  }
  bool writable = false;
  uint8_t* backing = BackingFor(addr, kind, &writable);
  if (backing == nullptr) {
    fault_ = BusFault::kUnmapped;
    return kRefusedReadValue;
  }
  uint16_t value = static_cast<uint16_t>(backing[0] | (backing[1] << 8));
  CountAccess(addr, kind);
  return value;
}

void Bus::WriteWord(uint16_t addr, uint16_t value, AccessKind kind) {
  addr &= ~uint16_t{1};
  AddFramPenalty(addr);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    CountAccess(addr, AccessKind::kWrite);
    return;  // blocked; violation latched in the MPU
  }
  if (BusDevice* device = DeviceFor(addr)) {
    CountAccess(addr, AccessKind::kWrite);
    device->WriteWord(static_cast<uint16_t>(addr - device->base()), value);
    return;
  }
  bool writable = false;
  uint8_t* backing = BackingFor(addr, kind, &writable);
  if (backing == nullptr) {
    fault_ = BusFault::kUnmapped;
    return;
  }
  if (!writable) {
    fault_ = BusFault::kWriteToRom;
    return;
  }
  CountAccess(addr, AccessKind::kWrite);
  backing[0] = static_cast<uint8_t>(value & 0xFF);
  backing[1] = static_cast<uint8_t>(value >> 8);
  InvalidateCode(addr);
}

uint8_t Bus::ReadByte(uint16_t addr, AccessKind kind) {
  AddFramPenalty(addr);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, kind)) {
    CountAccess(addr, kind);
    return kRefusedReadValue & 0xFF;
  }
  if (BusDevice* device = DeviceFor(addr)) {
    uint16_t word = device->ReadWord(static_cast<uint16_t>((addr & ~1) - device->base()));
    uint8_t value = (addr & 1) != 0 ? static_cast<uint8_t>(word >> 8)
                                    : static_cast<uint8_t>(word & 0xFF);
    CountAccess(addr, kind);
    return value;
  }
  bool writable = false;
  uint8_t* backing = BackingFor(addr, kind, &writable);
  if (backing == nullptr) {
    fault_ = BusFault::kUnmapped;
    return kRefusedReadValue & 0xFF;
  }
  CountAccess(addr, kind);
  return *backing;
}

void Bus::WriteByte(uint16_t addr, uint8_t value, AccessKind kind) {
  AddFramPenalty(addr);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    CountAccess(addr, AccessKind::kWrite);
    return;
  }
  if (BusDevice* device = DeviceFor(addr)) {
    uint16_t offset = static_cast<uint16_t>((addr & ~1) - device->base());
    uint16_t word = device->ReadWord(offset);
    if ((addr & 1) != 0) {
      word = static_cast<uint16_t>((word & 0x00FF) | (value << 8));
    } else {
      word = static_cast<uint16_t>((word & 0xFF00) | value);
    }
    CountAccess(addr, AccessKind::kWrite);
    device->WriteWord(offset, word);
    return;
  }
  bool writable = false;
  uint8_t* backing = BackingFor(addr, kind, &writable);
  if (backing == nullptr) {
    fault_ = BusFault::kUnmapped;
    return;
  }
  if (!writable) {
    fault_ = BusFault::kWriteToRom;
    return;
  }
  CountAccess(addr, AccessKind::kWrite);
  *backing = value;
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
  r.Bytes(mem_.data(), mem_.size());
  // The whole memory image just changed: predecoded records are stale. The
  // cache is derived state and never serialized, so restore == rebuild.
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateAll();
  }
}

Status Bus::LoadImage(uint16_t base, const std::vector<uint8_t>& bytes) {
  if (static_cast<uint32_t>(base) + bytes.size() > 0x10000) {
    return OutOfRangeError(StrFormat("image of %zu bytes at %s overflows the address space",
                                     bytes.size(), HexWord(base).c_str()));
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    mem_[base + i] = bytes[i];
  }
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateAll();
  }
  return OkStatus();
}

}  // namespace amulet
