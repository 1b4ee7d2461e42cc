#ifndef FIELDSWAP_OBS_METRICS_H_
#define FIELDSWAP_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace fieldswap {
namespace obs {

/// Immutable copy of one histogram's state at snapshot time.
struct HistogramData {
  /// Upper bounds of the finite buckets, strictly increasing. A value v
  /// lands in the first bucket with v <= bound; values above the last
  /// bound land in the implicit overflow bucket.
  std::vector<double> bounds;
  /// bucket_counts.size() == bounds.size() + 1 (last entry = overflow).
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// Estimates the q-quantile (q in [0,1]) of a histogram by linear
/// interpolation inside the bucket holding the target rank, clamped to the
/// observed [min, max]; ranks landing in the overflow bucket return max.
/// Deterministic for a fixed bucket state, so the p50/p90/p99 an export
/// prints are a pure function of its exported bounds+counts.
double HistogramQuantile(const HistogramData& hist, double q);

/// Point-in-time copy of a registry, safe to read without locking.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Renders a snapshot as aligned `name value` lines (one metric per line;
/// histograms render count/sum/mean/min/max).
std::string ExportText(const MetricsSnapshot& snapshot);

/// Renders a snapshot as a JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
std::string ExportJson(const MetricsSnapshot& snapshot);

/// Default histogram bucket bounds: 14 exponential buckets from 0.1 to ~819
/// (doubling), sized for millisecond-scale timings.
const std::vector<double>& DefaultLatencyBounds();

/// Thread-safe registry of named counters, gauges, and fixed-bucket
/// histograms. Metric names follow the `fieldswap.<layer>.<name>`
/// convention (see DESIGN.md "Observability").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named monotonic counter (created at 0 on first use).
  void CounterAdd(const std::string& name, int64_t delta = 1);

  /// Sets the named gauge to `value` (last write wins).
  void GaugeSet(const std::string& name, double value);

  /// Records `value` into the named histogram. The bucket layout is fixed by
  /// the first observation; `bounds` is ignored on later calls. Passing an
  /// empty `bounds` uses DefaultLatencyBounds().
  void HistogramObserve(const std::string& name, double value,
                        const std::vector<double>& bounds = {});

  /// Convenience readers (0 / empty when the metric does not exist).
  int64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  MetricsSnapshot Snapshot() const;

  /// Drops every metric (names included).
  void Reset();

  std::string ExportText() const { return obs::ExportText(Snapshot()); }
  std::string ExportJson() const { return obs::ExportJson(Snapshot()); }

  /// Writes ExportJson() to `path`; returns false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_ FS_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ FS_GUARDED_BY(mu_);
  std::map<std::string, HistogramData> histograms_ FS_GUARDED_BY(mu_);
};

/// Process-wide registry used by the FS_COUNTER/FS_GAUGE helpers below and
/// by all built-in instrumentation. First use arms the FS_METRICS_FILE
/// at-exit export (see ArmEnvExportAtExit in trace.h).
MetricsRegistry& GlobalMetrics();

/// Shorthands for the global registry.
inline void CounterAdd(const std::string& name, int64_t delta = 1) {
  GlobalMetrics().CounterAdd(name, delta);
}
inline void GaugeSet(const std::string& name, double value) {
  GlobalMetrics().GaugeSet(name, value);
}
inline void HistogramObserve(const std::string& name, double value,
                             const std::vector<double>& bounds = {}) {
  GlobalMetrics().HistogramObserve(name, value, bounds);
}

}  // namespace obs
}  // namespace fieldswap

#endif  // FIELDSWAP_OBS_METRICS_H_
