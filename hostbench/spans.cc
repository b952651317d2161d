#include "hostbench/spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace hostbench {

namespace {

std::atomic<uint64_t> g_next_generation{1};

// Per-thread cache of the calling thread's buffer in the recorder of the
// given generation; a new recorder (or a recycled address) never matches a
// stale entry because generations are never reused.
struct ThreadCache {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

SpanRecorder::SpanRecorder()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

SpanRecorder::Buffer* SpanRecorder::ThisThread() {
  if (t_cache.generation == generation_) {
    return static_cast<Buffer*>(t_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<uint32_t>(buffers_.size());
  buffer->spans.reserve(1 << 12);
  t_cache.generation = generation_;
  t_cache.buffer = buffer;
  return buffer;
}

uint64_t SpanRecorder::Begin(const char* name, int64_t device, uint64_t parent) {
  Buffer* buffer = ThisThread();
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer->open.empty() ? parent : buffer->spans[buffer->open.back()].id;
  span.name = name;
  span.tid = buffer->tid;
  span.device = device;
  buffer->open.push_back(buffer->spans.size());
  span.t0_ns = NowNs();
  buffer->spans.push_back(span);
  return span.id;
}

void SpanRecorder::End() {
  const int64_t now = NowNs();
  Buffer* buffer = ThisThread();
  buffer->spans[buffer->open.back()].t1_ns = now;
  buffer->open.pop_back();
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  int64_t origin = INT64_MAX;
  std::map<uint32_t, std::vector<const Span*>> tracks;  // recording order per thread
  for (const Span& s : spans) {
    origin = std::min(origin, s.t0_ns);
    tracks[s.tid].push_back(&s);
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  auto emit_end = [&](const Span& s) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}", s.name,
                  static_cast<double>(s.t1_ns - origin) / 1e3, s.tid);
    out += buf;
  };
  for (const auto& [tid, track] : tracks) {
    // Spans were appended at Begin in LIFO order per thread, so a span whose
    // parent is not the innermost open one begins after that one ended.
    std::vector<const Span*> open;
    for (const Span* s : track) {
      while (!open.empty() && open.back()->id != s->parent) {
        emit_end(*open.back());
        open.pop_back();
      }
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"device\":%" PRId64
                    "}}",
                    first ? "" : ",", s->name, static_cast<double>(s->t0_ns - origin) / 1e3,
                    tid, s->id, s->parent, s->device);
      out += buf;
      first = false;
      open.push_back(s);
    }
    while (!open.empty()) {
      emit_end(*open.back());
      open.pop_back();
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace hostbench
