// In-memory span recording for the benchmark's traced run.
//
// Spans are recorded by the benchmark around calls into the program's
// layers (never inside the program). Each span has a name whose prefix up
// to the first '.' is the layer ("core.run_experiment" -> "core"), a start
// and end on the steady clock, the span that caused it, and the experiment
// index it served as its request id. Spans stay in memory until the run
// ends; selfSeconds() turns them into per-layer self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace campaign_bench {

struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int id = -1;
  int parent = -1;          // -1 = top level
  std::int64_t request = -1;  // experiment index, -1 when none
  unsigned thread = 0;        // small per-thread number, for trace viewers

  double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

/// Thread-safe span store. Engine wrappers record from worker threads.
class SpanBuffer {
 public:
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span now; returns its id for close() and for children.
  int open(std::string name, int parent = -1, std::int64_t request = -1);
  void close(int id);

  std::vector<SpanRecord> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null buffer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, std::string name, int parent = -1,
             std::int64_t request = -1)
      : buffer_(buffer),
        id_(buffer != nullptr ? buffer->open(std::move(name), parent, request)
                              : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(id_);
  }
  int id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  int id_;
};

/// Layer of a span name: the text before the first '.'.
std::string layerOf(const std::string& name);

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals (clipped to it) cover. Children running
/// in parallel on several threads are counted once where they overlap, so
/// self time is never negative. Indexed like `spans`.
std::vector<double> selfSeconds(const std::vector<SpanRecord>& spans);

/// Sum of self time per layer.
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON of the spans (for chrome://tracing / Perfetto).
std::string chromeTraceJson(const std::vector<SpanRecord>& spans);

}  // namespace campaign_bench
