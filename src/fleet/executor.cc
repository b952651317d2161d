#include "src/fleet/executor.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace amulet {

int Executor::DefaultThreadCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Executor::Executor(int threads) : threads_(threads > 0 ? threads : DefaultThreadCount()) {}

void Executor::ParallelFor(size_t n, const std::function<void(size_t, int)>& body) {
  std::atomic<size_t> next{0};
  auto work = [&](int worker) {
    while (!cancelled()) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      body(i, worker);
    }
  };
  // No more helpers than indices the caller will not take itself.
  const size_t helpers =
      std::min(static_cast<size_t>(threads_ - 1), n > 0 ? n - 1 : 0);
  std::vector<std::thread> pool;
  pool.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    pool.emplace_back(work, static_cast<int>(t) + 1);
  }
  work(0);
  for (std::thread& helper : pool) {
    helper.join();
  }
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  ParallelFor(n, [&body](size_t i, int) { body(i); });
}

}  // namespace amulet
