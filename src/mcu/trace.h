// Crash-dump rendering of an instruction-address list (the CPU's recent-PC
// ring, FaultRecord::recent_pcs) as disassembly — embedded-style forensics
// without a debugger.
#ifndef SRC_MCU_TRACE_H_
#define SRC_MCU_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mcu/bus.h"

namespace amulet {

// Renders `pcs` as "    0x4412: mov #1, r10" lines, reading the instruction
// bytes back from memory (best effort: memory may have moved on).
std::string RenderTrace(const std::vector<uint16_t>& pcs, const Bus& bus);

}  // namespace amulet

#endif  // SRC_MCU_TRACE_H_
