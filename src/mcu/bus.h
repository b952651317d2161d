// The memory bus: routes CPU accesses to RAM/FRAM arrays and peripheral
// devices, consults the MPU on every protected access, accumulates FRAM
// wait-state penalty cycles, and counts data accesses into an address set
// for the Amulet Resource Profiler and the fleet's per-device statistics.
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

// Consulted before every access that lands in MPU-covered memory.
class MemoryProtection {
 public:
  virtual ~MemoryProtection() = default;
  // Returns true if the access is permitted. A refusal must latch the
  // violation inside the implementation (flag + NMI request).
  virtual bool CheckAccess(uint16_t addr, AccessKind kind) = 0;
  // Pure preflight for the predecode fast path: returns what CheckAccess()
  // would return, without latching anything. The conservative default sends
  // every access down the slow path.
  virtual bool WouldPermit(uint16_t addr, AccessKind kind) const {
    (void)addr;
    (void)kind;
    return false;
  }
  // Monotonic generation counter, bumped whenever the permission
  // configuration may have changed; lets the fast path cache WouldPermit()
  // verdicts per instruction. Starts at 1 so that 0 can mean "never
  // computed". Deliberately a non-virtual field load: the fast path reads
  // it on every cached step, and a vtable dispatch here is measurable.
  uint32_t ConfigGeneration() const { return config_generation_; }

 protected:
  // Implementations bump this on every configuration change (register
  // writes, reset, snapshot restore). Host-side derived state, never
  // serialized.
  uint32_t config_generation_ = 1;
};

// One bit per byte address of the 64 KiB address space.
using AddressSet = std::bitset<0x10000>;

class CodeCache;

class Bus {
 public:
  Bus();

  // Devices are consulted in registration order; ranges must not overlap.
  void AttachDevice(BusDevice* device);
  void SetMpu(MemoryProtection* mpu) { mpu_ = mpu; }
  MemoryProtection* mpu() const { return mpu_; }
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
  void WriteWord(uint16_t addr, uint16_t value, AccessKind kind);
  uint8_t ReadByte(uint16_t addr, AccessKind kind);
  void WriteByte(uint16_t addr, uint8_t value, AccessKind kind);

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
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  // Returns backing storage for a plain-memory address, or nullptr if the
  // address belongs to a device/hole.
  uint8_t* BackingFor(uint16_t addr, AccessKind kind, bool* writable);
  BusDevice* DeviceFor(uint16_t addr);
  void CountAccess(uint16_t addr, AccessKind kind) {
    if (counted_ != nullptr && kind != AccessKind::kFetch && (*counted_)[addr]) {
      ++data_accesses_;
    }
  }
  void AddFramPenalty(uint16_t addr);

  // Invalidates code-cache entries covering `addr` (no-op when no cache is
  // registered). Called from every path that mutates mem_.
  void InvalidateCode(uint16_t addr);

  std::array<uint8_t, 0x10000> mem_{};  // flat backing store for all memory regions
  std::vector<BusDevice*> devices_;
  MemoryProtection* mpu_ = nullptr;
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
