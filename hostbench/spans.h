// In-memory span recorder for the traced benchmark run. Spans are appended
// to per-thread buffers (no lock on the hot path after a thread's first
// span), kept until the run ends, then collected, attributed (SelfTimes) and
// written as Chrome trace-event JSON.
#ifndef HOSTBENCH_SPANS_H_
#define HOSTBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hostbench/bench_core.h"

namespace hostbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span on the calling thread. Its parent is the innermost open
  // span of this thread, or `parent` when this thread has none open (a
  // worker's first span under the dispatching thread's span). Spans close
  // in LIFO order per thread.
  uint64_t Begin(const char* name, int64_t device = -1, uint64_t parent = 0);
  void End();

  // All spans recorded so far, every thread's buffer concatenated. Call only
  // while no other thread records.
  std::vector<Span> Collect() const;
  void Clear();

 private:
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices into spans
  };
  Buffer* ThisThread();

  const uint64_t generation_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

// RAII span; a null recorder makes it a no-op, which is how the untraced
// run shares code with the traced replay.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int64_t device = -1, uint64_t parent = 0)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name, device, parent) : 0) {}
  ~Scope() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

// Chrome trace-event JSON ({"traceEvents": [...]}) of `spans`: one B/E pair
// per span on its thread's track, timestamps in microseconds relative to the
// earliest span, with id, parent and device in each B event's args.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace hostbench

#endif  // HOSTBENCH_SPANS_H_
