// Host-side parallel-for for fleet device runs and benchmark sweeps. Each
// ParallelFor call spawns thread_count() - 1 helper threads and works as the
// last worker itself; every worker claims the next index with one atomic
// fetch_add until the range is exhausted or the executor is cancelled. One
// index per claim keeps uneven work (devices that fault and restart, apps
// with heavier handlers) balanced without a chunk-size knob: each index is a
// whole simulated device, far costlier than the claim.
//
// Determinism contract: the executor makes NO ordering guarantees between
// indices, so callers must make each body call independent (own Machine, own
// RNG, writing to its own pre-allocated result slot). Done that way, results
// are bit-identical regardless of thread count — the property the fleet
// engine and its tests rely on.
#ifndef SRC_FLEET_EXECUTOR_H_
#define SRC_FLEET_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <functional>

namespace amulet {

class Executor {
 public:
  // threads <= 0 selects DefaultThreadCount(). A single-thread executor runs
  // every index inline on the calling thread.
  explicit Executor(int threads = 0);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Runs body(0, w) .. body(n-1, w), at most thread_count() at a time, and
  // returns once every claimed index has finished. Indices not yet claimed
  // when Cancel() is called never run. `worker` names the thread running the
  // body: within one call every thread has its own index in
  // [0, thread_count()), the calling thread 0, so callers can keep
  // per-thread state (the fleet's resident devices) in a slot per worker.
  void ParallelFor(size_t n, const std::function<void(size_t i, int worker)>& body);
  // The same without the worker index.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Cooperative fail-fast: no index is claimed after Cancel(); bodies already
  // running finish. Sticky for the executor's lifetime, so later ParallelFor
  // calls run nothing. The fleet engine uses this so one failed device stops
  // the remaining million from being simulated.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  int thread_count() const { return threads_; }

  // std::thread::hardware_concurrency(), with a floor of 1.
  static int DefaultThreadCount();

 private:
  int threads_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace amulet

#endif  // SRC_FLEET_EXECUTOR_H_
