// The memory bus: decodes every CPU access with one region lookup (SRAM,
// FRAM, the BSL ROM, a hole, or an attached device's register word), consults
// the MPU on every access to FRAM, accumulates FRAM wait-state penalty cycles,
// and counts data accesses into an address set for the Amulet Resource
// Profiler and the fleet's per-device statistics.
//
// The decode has two parts. Everything above the peripheral page is fixed by
// memory_map.h and lives in one compile-time table shared by every bus. The
// peripheral page is decoded per register word from a small per-bus table
// that AttachDevice() paints, so device base()/size_bytes() are never asked
// on the access path.
#ifndef SRC_MCU_BUS_H_
#define SRC_MCU_BUS_H_

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/mcu/memory_map.h"

namespace amulet {

class FlightRecorder;
class SnapshotReader;
class SnapshotWriter;

enum class AccessKind : uint8_t {
  kFetch,  // instruction-stream read (needs execute permission)
  kRead,   // data read
  kWrite,  // data write
};

// Why an access was refused at the hardware level. Distinct from MPU
// violations, which are latched in the MPU and surfaced as an NMI.
enum class BusFault : uint8_t {
  kNone = 0,
  kUnmapped,        // hole in the address map
  kWriteToRom,      // write into the BSL stub
  kFetchFromPeriph, // executing out of a register block
};

// A peripheral occupying part of the register space. Word-granular: the bus
// converts byte accesses into read-modify-write on the device.
class BusDevice {
 public:
  virtual ~BusDevice() = default;
  virtual uint16_t base() const = 0;
  virtual uint16_t size_bytes() const = 0;
  virtual uint16_t ReadWord(uint16_t offset) = 0;
  virtual void WriteWord(uint16_t offset, uint16_t value) = 0;
};

// One bit per byte address of the 64 KiB address space.
using AddressSet = std::bitset<0x10000>;

class CodeCache;
class Mpu;

class Bus {
 public:
  // `mpu` (not owned) must outlive the bus; the owning Machine wires its own.
  explicit Bus(Mpu* mpu);

  // Maps the device's register block into the peripheral page. Blocks are
  // word-aligned, lie below kPeriphEnd and must not overlap (all checked).
  void AttachDevice(BusDevice* device);
  Mpu* mpu() const { return mpu_; }
  // Registers the CPU's predecoded-instruction cache so the bus can kill
  // stale entries whenever backing memory changes (architectural writes,
  // pokes, image loads, snapshot restore).
  void SetCodeCache(CodeCache* cache) { code_cache_ = cache; }
  // Data-access counting (not owned; host wiring, never serialized). While a
  // set is installed, every data read or write whose address is in it adds
  // one to data_accesses(): MPU-refused accesses and device-register
  // accesses included; fetches, unmapped addresses and ROM writes excluded.
  // Pass nullptr to stop counting. The count itself is never reset; callers
  // read it as a delta.
  void CountDataAccesses(const AddressSet* set) { counted_ = set; }
  uint64_t data_accesses() const { return data_accesses_; }
  // Optional flight recorder (not owned; host wiring, never serialized).
  // Receives one store event per architectural write — including writes the
  // MPU blocks, which are exactly the interesting ones in a fault tail.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Wait states added per FRAM access (fetch or data). The FR5969 runs FRAM
  // at 8 MHz behind a cache; `1` approximates the average penalty at 16 MHz.
  void set_fram_wait_states(int n) { fram_wait_states_ = n; }
  int fram_wait_states() const { return fram_wait_states_; }

  // Penalty cycles accumulated since the last TakePenaltyCycles() call.
  // Inline: the CPU drains this once per retired instruction.
  uint64_t TakePenaltyCycles() {
    uint64_t taken = penalty_cycles_;
    penalty_cycles_ = 0;
    return taken;
  }
  // Accrues precomputed wait-state penalties; used by the predecode fast
  // path to replay a cached instruction's FRAM fetch cost in one add.
  void AddPenaltyCycles(uint64_t n) { penalty_cycles_ += n; }

  // True when `addr` resolves to plain backed memory (BSL/InfoMem/SRAM/FRAM)
  // with no device in front of it: reads there are side-effect-free and
  // fault-free, so the fast path may cache fetched words. Pure.
  bool IsPlainMemory(uint16_t addr) const;

  // CPU-facing accessors. Word addresses have bit 0 ignored (as on the real
  // part). An MPU refusal yields value 0x3FFF on reads and drops writes; the
  // violation is latched in the MPU, not reported here.
  uint16_t ReadWord(uint16_t addr, AccessKind kind);
  void WriteWord(uint16_t addr, uint16_t value);
  uint8_t ReadByte(uint16_t addr);  // data read: the CPU fetches whole words
  void WriteByte(uint16_t addr, uint8_t value);

  // Sticky hardware fault from the most recent access sequence.
  BusFault fault() const { return fault_; }
  void ClearFault() { fault_ = BusFault::kNone; }

  // Host-side (non-architectural) access: no MPU, no counting, no penalties.
  // Used by loaders, tests, and the OS to implement services.
  uint8_t PeekByte(uint16_t addr) const;
  void PokeByte(uint16_t addr, uint8_t value);
  uint16_t PeekWord(uint16_t addr) const;
  void PokeWord(uint16_t addr, uint16_t value);
  Status LoadImage(uint16_t base, const std::vector<uint8_t>& bytes);

  // Snapshot support: memory image + bus bookkeeping. Wiring (devices, MPU,
  // counting set) is reconstructed by the owning Machine, not serialized.
  // LoadState, like LoadImage, kills only the code-cache entries over the
  // words whose bytes change.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  struct DeviceSlot {
    BusDevice* device;
    uint16_t base;
  };

  // The region byte for `addr` (encoding in bus.cc).
  uint8_t RegionOf(uint16_t addr) const;
  void CountAccess(uint16_t addr, AccessKind kind) {
    if (counted_ != nullptr && kind != AccessKind::kFetch && (*counted_)[addr]) {
      ++data_accesses_;
    }
  }
  void AddFramPenalty(uint8_t region);

  // Invalidates code-cache entries covering `addr` (no-op when no cache is
  // registered). Called from every path that mutates mem_.
  void InvalidateCode(uint16_t addr);

  std::array<uint8_t, 0x10000> mem_{};  // flat backing store for all memory regions
  // Region byte per word of the peripheral page, painted by AttachDevice().
  std::array<uint8_t, kPeriphEnd / 2> periph_regions_;
  std::vector<DeviceSlot> devices_;
  Mpu* mpu_;
  CodeCache* code_cache_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  const AddressSet* counted_ = nullptr;
  uint64_t data_accesses_ = 0;
  BusFault fault_ = BusFault::kNone;
  int fram_wait_states_ = 0;
  uint64_t penalty_cycles_ = 0;
};

}  // namespace amulet

#endif  // SRC_MCU_BUS_H_
