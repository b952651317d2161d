#include "src/scope/flight_recorder.h"

#include "src/common/strings.h"

namespace amulet {

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kBranch:
      return "branch";
    case FlightEventKind::kIrq:
      return "irq";
    case FlightEventKind::kStore:
      return "store";
    case FlightEventKind::kMpuWrite:
      return "mpu-write";
    case FlightEventKind::kSyscall:
      return "syscall";
    case FlightEventKind::kHostIo:
      return "host-io";
  }
  return "?";
}

std::vector<FlightEvent> FlightRecorder::Tail(size_t max_events) const {
  uint64_t n = recorded_ < kCapacity ? recorded_ : kCapacity;
  if (max_events < n) {
    n = max_events;
  }
  std::vector<FlightEvent> out;
  out.reserve(n);
  for (uint64_t i = recorded_ - n; i < recorded_; ++i) {
    out.push_back(ring_[i & (kCapacity - 1)]);
  }
  return out;
}

std::string RenderFlightEvent(const FlightEvent& event) {
  switch (event.kind) {
    case FlightEventKind::kBranch:
      return StrFormat("  [%10llu] branch %s -> %s",
                       static_cast<unsigned long long>(event.cycles),
                       HexWord(event.a).c_str(), HexWord(event.b).c_str());
    case FlightEventKind::kIrq:
      return StrFormat("  [%10llu] irq vector %s -> %s",
                       static_cast<unsigned long long>(event.cycles),
                       HexWord(event.a).c_str(), HexWord(event.b).c_str());
    case FlightEventKind::kStore:
      return StrFormat("  [%10llu] store %s <- %s",
                       static_cast<unsigned long long>(event.cycles),
                       HexWord(event.a).c_str(), HexWord(event.b).c_str());
    case FlightEventKind::kMpuWrite:
      return StrFormat("  [%10llu] mpu-write +%u <- %s",
                       static_cast<unsigned long long>(event.cycles),
                       static_cast<unsigned>(event.a), HexWord(event.b).c_str());
    case FlightEventKind::kSyscall:
      return StrFormat("  [%10llu] syscall #%u arg %s",
                       static_cast<unsigned long long>(event.cycles),
                       static_cast<unsigned>(event.a), HexWord(event.b).c_str());
    case FlightEventKind::kHostIo:
      return StrFormat("  [%10llu] host-io +%u <- %s",
                       static_cast<unsigned long long>(event.cycles),
                       static_cast<unsigned>(event.a), HexWord(event.b).c_str());
  }
  return StrFormat("  [%10llu] ? %s %s", static_cast<unsigned long long>(event.cycles),
                   HexWord(event.a).c_str(), HexWord(event.b).c_str());
}

}  // namespace amulet
