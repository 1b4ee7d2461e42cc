#ifndef FIELDSWAP_PERFBENCH_SPANS_H_
#define FIELDSWAP_PERFBENCH_SPANS_H_

// Boundary spans recorded by the benchmark around each call it makes into
// a library layer, plus the analysis that merges them with the spans the
// library itself records in obs::GlobalTrace() and reports self time per
// span name.
//
// Each benchmark thread appends to its own buffer (no lock on the record
// path); buffers are drained after every thread has been joined.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds since obs::GlobalTrace().origin(), the time base the
/// library's own spans use, so both kinds of span share one timeline.
double NowUs();

struct SpanRecord {
  const char* name = nullptr;  // static string
  double start_us = 0;
  double end_us = 0;
  int lane = 0;         // one lane per benchmark OS thread
  int64_t id = 0;       // unique across lanes
  int64_t parent = 0;   // enclosing span on the same lane; 0 = none
  int64_t request = -1; // serving request index; -1 = not a request
};

/// Process-wide span log. Disabled (and free) unless the traced run turns
/// it on.
class SpanLog {
 public:
  static SpanLog& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Gives the calling thread a fresh lane. Must run on every benchmark
  /// thread before it records spans. While the global trace is on, it also
  /// records a probe span into obs::GlobalTrace() so the library's spans on
  /// this OS thread can be matched to the lane afterwards.
  void BindThread();

  /// Moves every recorded span out. Call only when no benchmark thread is
  /// recording.
  std::vector<SpanRecord> Drain();

  /// Called by Span.
  void Record(const SpanRecord& record);

 private:
  struct Lane {
    std::vector<SpanRecord> spans;
  };
  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // guards lanes_ (lane creation and drain only)
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII boundary span on the calling thread's lane.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Per-name aggregate over the merged benchmark + library spans.
struct SpanStats {
  int64_t count = 0;
  double total_us = 0;  // summed durations
  double self_us = 0;   // durations minus same-thread child spans
};

struct TraceAnalysis {
  std::map<std::string, SpanStats> by_name;
  /// Share of [window_start_us, window_end_us] covered by the union of the
  /// benchmark's own boundary spans, across all lanes.
  double boundary_coverage = 0;
};

/// Merges `spans` with obs::GlobalTrace().events() and computes self time
/// per span name and boundary coverage of the window.
TraceAnalysis AnalyzeTrace(const std::vector<SpanRecord>& spans,
                           double window_start_us, double window_end_us);

/// Writes the benchmark spans (with parent and request ids) and the library
/// spans as one Chrome trace JSON file. Returns false on I/O failure.
bool WriteMergedTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // FIELDSWAP_PERFBENCH_SPANS_H_
