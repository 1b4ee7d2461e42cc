#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr const char* kProbePrefix = "perfbench.lane.";

struct ThreadState {
  int lane = -1;
  std::vector<SpanRecord>* buffer = nullptr;
  int64_t next_seq = 1;
  std::vector<int64_t> open;  // ids of open spans, innermost last
};

thread_local ThreadState t_state;

struct Interval {
  double start = 0;
  double end = 0;
  std::string name;
};

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() -
             fieldswap::obs::GlobalTrace().origin())
      .count();
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog;
  return *log;
}

void SpanLog::BindThread() {
  int lane = 0;
  std::vector<SpanRecord>* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lane = static_cast<int>(lanes_.size());
    lanes_.push_back(std::make_unique<Lane>());
    buffer = &lanes_.back()->spans;
  }
  t_state = ThreadState{};
  t_state.lane = lane;
  t_state.buffer = buffer;
  if (fieldswap::obs::GlobalTrace().enabled()) {
    std::string probe = kProbePrefix + std::to_string(lane);
    fieldswap::obs::TraceSpan span(probe.c_str());
  }
}

std::vector<SpanRecord> SpanLog::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& lane : lanes_) {
    all.insert(all.end(), lane->spans.begin(), lane->spans.end());
    lane->spans.clear();
  }
  return all;
}

void SpanLog::Record(const SpanRecord& record) {
  t_state.buffer->push_back(record);
}

Span::Span(const char* name, int64_t request) {
  if (!SpanLog::Get().enabled() || t_state.buffer == nullptr) return;
  active_ = true;
  record_.name = name;
  record_.lane = t_state.lane;
  record_.id = (static_cast<int64_t>(t_state.lane) << 40) | t_state.next_seq++;
  record_.parent = t_state.open.empty() ? 0 : t_state.open.back();
  record_.request = request;
  t_state.open.push_back(record_.id);
  record_.start_us = NowUs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = NowUs();
  t_state.open.pop_back();
  SpanLog::Get().Record(record_);
}

TraceAnalysis AnalyzeTrace(const std::vector<SpanRecord>& spans,
                           double window_start_us, double window_end_us) {
  TraceAnalysis analysis;
  std::vector<fieldswap::obs::TraceEvent> events =
      fieldswap::obs::GlobalTrace().events();

  // Library spans on a benchmark thread join that thread's lane; spans on
  // other threads (the par pool's workers) get lanes of their own.
  std::map<int, int> lane_of_tid;
  int max_lane = 0;
  for (const SpanRecord& span : spans) max_lane = std::max(max_lane, span.lane);
  const std::string prefix = kProbePrefix;
  for (const auto& event : events) {
    if (event.name.rfind(prefix, 0) == 0) {
      int lane = std::stoi(event.name.substr(prefix.size()));
      lane_of_tid[event.tid] = lane;
      max_lane = std::max(max_lane, lane);
    }
  }
  std::map<int, std::vector<Interval>> lanes;
  for (const SpanRecord& span : spans) {
    lanes[span.lane].push_back({span.start_us, span.end_us, span.name});
  }
  for (const auto& event : events) {
    if (event.name.rfind(prefix, 0) == 0) continue;
    auto it = lane_of_tid.find(event.tid);
    int lane = it != lane_of_tid.end() ? it->second
                                       : max_lane + 1 + event.tid;
    lanes[lane].push_back(
        {event.ts_us, event.ts_us + event.dur_us, event.name});
  }

  // Self time: on one thread spans nest, so a sweep ordered by (start,
  // longest first) with a stack of open intervals finds each span's direct
  // parent; a child's duration is taken off its parent's self time.
  for (auto& [lane, intervals] : lanes) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end > b.end;
              });
    std::vector<double> child_us(intervals.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < intervals.size(); ++i) {
      while (!stack.empty() && intervals[stack.back()].end <= intervals[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const Interval& parent = intervals[stack.back()];
        double end = std::min(parent.end, intervals[i].end);
        child_us[stack.back()] += std::max(0.0, end - intervals[i].start);
      }
      stack.push_back(i);
    }
    for (size_t i = 0; i < intervals.size(); ++i) {
      SpanStats& stats = analysis.by_name[intervals[i].name];
      double dur = intervals[i].end - intervals[i].start;
      ++stats.count;
      stats.total_us += dur;
      stats.self_us += std::max(0.0, dur - child_us[i]);
    }
  }

  // Coverage: union of the benchmark's spans clipped to the window.
  std::vector<std::pair<double, double>> covered;
  covered.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    double start = std::max(span.start_us, window_start_us);
    double end = std::min(span.end_us, window_end_us);
    if (end > start) covered.push_back({start, end});
  }
  std::sort(covered.begin(), covered.end());
  double union_us = 0;
  double cursor = window_start_us;
  for (const auto& [start, end] : covered) {
    double from = std::max(start, cursor);
    if (end > from) {
      union_us += end - from;
      cursor = end;
    }
  }
  double window = window_end_us - window_start_us;
  analysis.boundary_coverage = window > 0 ? union_us / window : 0;
  return analysis;
}

bool WriteMergedTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& span : spans) {
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.lane
        << ", \"ts\": " << span.start_us
        << ", \"dur\": " << (span.end_us - span.start_us)
        << ", \"args\": {\"id\": " << span.id << ", \"parent\": "
        << span.parent << ", \"request\": " << span.request << "}}";
    first = false;
  }
  for (const auto& event : fieldswap::obs::GlobalTrace().events()) {
    out << (first ? "\n" : ",\n") << "{\"name\": \"" << event.name
        << "\", \"ph\": \"X\", \"pid\": 2, \"tid\": " << event.tid
        << ", \"ts\": " << event.ts_us << ", \"dur\": " << event.dur_us
        << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
