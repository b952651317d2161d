// Machine snapshot serialization: a versioned little-endian binary format
// holding the full state of one simulated device (memory images, CPU
// registers and counters, every peripheral's register state). A booted
// firmware image is captured once and cloned into fresh Machine instances in
// O(memcpy) — the mechanism the fleet engine uses to amortize boot cost
// across thousands of simulated devices.
//
// Format:  u32 magic "AMSN" | u32 version | sections...
// Section: u8 tag | u32 payload length | payload bytes
// Readers validate magic, version, every section tag/length, and that the
// buffer is fully consumed; any mismatch yields a non-OK Status. Validation
// runs as sections are read, so a failed restore may leave the machine
// partly overwritten (see RestoreSnapshot).
//
// The writer/reader pair itself (SnapshotWriter/SnapshotReader) lives in
// src/common/binio.h so other subsystems — fleet checkpoints, metric
// registries — serialize with the same primitives.
#ifndef SRC_MCU_SNAPSHOT_H_
#define SRC_MCU_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "src/common/binio.h"

namespace amulet {

inline constexpr uint32_t kSnapshotMagic = 0x4E534D41;  // "AMSN" little-endian
inline constexpr uint32_t kSnapshotVersion = 1;

// Section tags, in the order Machine::SaveState emits them. Tags 16+ are
// reserved for the fleet checkpoint container (src/fleet/checkpoint.h),
// which shares the writer/reader and must not collide with machine tags.
enum class SnapshotSection : uint8_t {
  kSignals = 1,
  kBus = 2,
  kMpu = 3,
  kTimer = 4,
  kHostIo = 5,
  kMultiplier = 6,
  kWatchdog = 7,
  kCpu = 8,
  kMachine = 9,
};

// A serialized machine. Opaque bytes plus the identity of its source; cheap
// to copy between threads (the fleet hands one to every worker).
struct MachineSnapshot {
  std::vector<uint8_t> bytes;
};

}  // namespace amulet

#endif  // SRC_MCU_SNAPSHOT_H_
