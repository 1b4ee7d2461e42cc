// Performance-observability tests: the util JSON model, histogram
// quantiles and the pinned export format, and the span profiler (self vs
// total time, deterministic ordering, thread-merged aggregation).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "util/json.h"

namespace fieldswap {
namespace {

using obs::BuildProfile;
using obs::HistogramData;
using obs::HistogramQuantile;
using obs::MetricsRegistry;
using obs::ProfileEntry;
using obs::ProfileReport;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::TraceSpan;
using util::JsonValue;

JsonValue ParseOrDie(const std::string& text) {
  std::optional<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.has_value()) << "unparsable: " << text;
  return parsed.has_value() ? *parsed : JsonValue();
}

// ---------------------------------------------------------------- util/json

TEST(JsonValueTest, ParseDumpRoundTripCanonicalizes) {
  // Key order and whitespace normalize; numbers survive exactly.
  JsonValue value = ParseOrDie(
      "{\"b\": [1, 2.5, -3e2], \"a\": {\"y\": true, \"x\": null}, "
      "\"s\": \"hi\\nthere\"}");
  EXPECT_EQ(value.Dump(),
            "{\"a\": {\"x\": null, \"y\": true}, \"b\": [1, 2.5, -300], "
            "\"s\": \"hi\\nthere\"}");
  // Dump(Parse(Dump)) is a fixed point.
  EXPECT_EQ(ParseOrDie(value.Dump()).Dump(), value.Dump());
}

TEST(JsonValueTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1, 2").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{1: 2}").has_value());
}

TEST(JsonValueTest, FormatJsonNumberIsShortestRoundTrip) {
  EXPECT_EQ(util::FormatJsonNumber(3.0), "3");
  EXPECT_EQ(util::FormatJsonNumber(-17.0), "-17");
  EXPECT_EQ(util::FormatJsonNumber(0.25), "0.25");
  EXPECT_EQ(util::FormatJsonNumber(0.1), "0.1");
  double third = 1.0 / 3.0;
  std::string text = util::FormatJsonNumber(third);
  JsonValue reparsed = ParseOrDie(text);
  EXPECT_EQ(reparsed.number_value(), third);
}

TEST(JsonValueTest, FindAndBuildHelpers) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("k", JsonValue::MakeNumber(7));
  ASSERT_NE(object.Find("k"), nullptr);
  EXPECT_EQ(object.Find("k")->number_value(), 7.0);
  EXPECT_EQ(object.Find("missing"), nullptr);
  JsonValue array = JsonValue::MakeArray();
  array.Append(JsonValue::MakeString("a"));
  EXPECT_EQ(array.array_items().size(), 1u);
}

// --------------------------------------------------- histogram quantiles

HistogramData MakeHistogram(const std::vector<double>& bounds,
                            const std::vector<double>& values) {
  MetricsRegistry registry;
  for (double v : values) registry.HistogramObserve("h", v, bounds);
  return registry.Snapshot().histograms.at("h");
}

TEST(HistogramQuantileTest, InterpolatesWithinBucket) {
  // 10 values uniform in the (4, 8] bucket: p50 lands mid-bucket.
  HistogramData hist =
      MakeHistogram({4.0, 8.0}, {5, 5, 6, 6, 6, 7, 7, 7, 8, 8});
  double p50 = HistogramQuantile(hist, 0.50);
  EXPECT_GT(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  // All mass in one bucket: rank q*10 of 10 interpolates linearly from the
  // bucket's lower bound.
  EXPECT_NEAR(p50, 4.0 + (8.0 - 4.0) * 0.5, 1e-9);
}

TEST(HistogramQuantileTest, TailRanksHitOverflowBucketMax) {
  HistogramData hist = MakeHistogram({1.0, 2.0}, {0.5, 1.5, 50.0, 90.0});
  // p99 rank lands in the overflow bucket, which reports the observed max.
  EXPECT_EQ(HistogramQuantile(hist, 0.99), 90.0);
  EXPECT_EQ(HistogramQuantile(hist, 1.0), 90.0);
}

TEST(HistogramQuantileTest, EmptyAndClampedInputs) {
  HistogramData empty;
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0.0);
  HistogramData hist = MakeHistogram({10.0}, {2.0, 3.0});
  // Estimates never leave the observed [min, max] envelope.
  EXPECT_GE(HistogramQuantile(hist, 0.01), 2.0);
  EXPECT_LE(HistogramQuantile(hist, 0.99), 3.0);
}

// Pins the histogram export wire format: explicit bucket bounds and
// per-bucket counts (not just summary stats) plus derived quantiles, so
// tail latency can be read back from exported data.
TEST(HistogramExportTest, JsonFormatIsPinned) {
  MetricsRegistry registry;
  registry.HistogramObserve("fieldswap.test.lat_ms", 1.0, {1.0, 2.0});
  registry.HistogramObserve("fieldswap.test.lat_ms", 2.0, {1.0, 2.0});
  registry.HistogramObserve("fieldswap.test.lat_ms", 5.0, {1.0, 2.0});
  EXPECT_EQ(registry.ExportJson(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": "
            "{\"fieldswap.test.lat_ms\": {\"count\": 3, \"sum\": 8, "
            "\"min\": 1, \"max\": 5, \"mean\": 2.66667, \"p50\": 1.5, "
            "\"p90\": 5, \"p99\": 5, "
            "\"bounds\": [1, 2], \"buckets\": [1, 1, 1]}}}");
  std::string text = registry.ExportText();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

// ----------------------------------------------------------------- profiler

TraceEvent MakeEvent(const std::string& name, double ts_us, double dur_us,
                     int tid, int depth) {
  TraceEvent event;
  event.name = name;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = tid;
  event.depth = depth;
  return event;
}

TEST(ProfilerTest, SelfTimeExcludesDirectChildren) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent("parent", 0, 100, 0, 0));
  events.push_back(MakeEvent("child", 10, 30, 0, 1));
  events.push_back(MakeEvent("child", 50, 20, 0, 1));
  events.push_back(MakeEvent("grandchild", 12, 5, 0, 2));
  ProfileReport report = BuildProfile(events);

  const ProfileEntry* parent = report.Find("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->count, 1);
  EXPECT_DOUBLE_EQ(parent->total_us, 100);
  // parent self = 100 - (30 + 20); the grandchild is charged to `child`.
  EXPECT_DOUBLE_EQ(parent->self_us, 50);

  const ProfileEntry* child = report.Find("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 2);
  EXPECT_DOUBLE_EQ(child->total_us, 50);
  EXPECT_DOUBLE_EQ(child->self_us, 45);

  const ProfileEntry* grandchild = report.Find("grandchild");
  ASSERT_NE(grandchild, nullptr);
  EXPECT_DOUBLE_EQ(grandchild->self_us, 5);
}

TEST(ProfilerTest, SiblingsOnOtherThreadsDoNotNest) {
  // Identical timestamps on different tids must not be treated as nesting.
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent("a", 0, 100, 0, 0));
  events.push_back(MakeEvent("b", 10, 50, 1, 0));
  ProfileReport report = BuildProfile(events);
  EXPECT_DOUBLE_EQ(report.Find("a")->self_us, 100);
  EXPECT_DOUBLE_EQ(report.Find("b")->self_us, 50);
}

TEST(ProfilerTest, EntriesAreSortedByNameAndJsonIsStable) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent("zeta", 0, 10, 0, 0));
  events.push_back(MakeEvent("alpha", 20, 10, 0, 0));
  events.push_back(MakeEvent("mid", 40, 10, 0, 0));
  ProfileReport report = BuildProfile(events, /*dropped=*/2);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].name, "alpha");
  EXPECT_EQ(report.entries[1].name, "mid");
  EXPECT_EQ(report.entries[2].name, "zeta");
  EXPECT_EQ(report.total_spans, 3);
  EXPECT_EQ(report.dropped_spans, 2);
  EXPECT_EQ(report.ToJson(),
            "{\"dropped_spans\": 2, \"schema_version\": 1, \"spans\": "
            "{\"alpha\": {\"count\": 1, \"self_us\": 10, \"total_us\": 10}, "
            "\"mid\": {\"count\": 1, \"self_us\": 10, \"total_us\": 10}, "
            "\"zeta\": {\"count\": 1, \"self_us\": 10, \"total_us\": 10}}, "
            "\"total_spans\": 3}");
  // Text rows appear in the same (name) order so two reports diff cleanly.
  std::string text = report.ToText();
  EXPECT_LT(text.find("alpha"), text.find("mid"));
  EXPECT_LT(text.find("mid"), text.find("zeta"));
}

TEST(ProfilerTest, RealNestedSpansAggregate) {
  TraceRecorder recorder;
  {
    TraceSpan outer("outer", &recorder);
    {
      TraceSpan inner("inner", &recorder);
    }
    {
      TraceSpan inner("inner", &recorder);
    }
  }
  ProfileReport report = BuildProfile(recorder);
  ASSERT_NE(report.Find("outer"), nullptr);
  ASSERT_NE(report.Find("inner"), nullptr);
  EXPECT_EQ(report.Find("outer")->count, 1);
  EXPECT_EQ(report.Find("inner")->count, 2);
  EXPECT_GE(report.Find("outer")->total_us, report.Find("inner")->total_us);
  // outer self-time = outer total minus both inner spans.
  EXPECT_NEAR(report.Find("outer")->self_us,
              report.Find("outer")->total_us - report.Find("inner")->total_us,
              1e-6);
}

TEST(ProfilerTest, ThreadMergedAggregationUnderParPool) {
  TraceRecorder recorder;
  int threads_before = par::Threads();
  par::SetThreads(4);
  constexpr size_t kTasks = 32;
  par::ParallelFor(kTasks, [&](size_t i) {
    TraceSpan span("pooled_work", &recorder);
    (void)i;
  });
  par::SetThreads(threads_before);
  ProfileReport report = BuildProfile(recorder);
  const ProfileEntry* entry = report.Find("pooled_work");
  ASSERT_NE(entry, nullptr);
  // Every task's span is counted once, whichever worker ran it.
  EXPECT_EQ(entry->count, static_cast<int64_t>(kTasks));
  EXPECT_EQ(report.total_spans, static_cast<int64_t>(kTasks));
}

TEST(ProfilerTest, ProcessStatsSample) {
  obs::ProcessStats stats = obs::SampleProcessStats();
  EXPECT_GT(stats.peak_rss_kb, 0);
  EXPECT_GE(stats.user_cpu_s + stats.system_cpu_s, 0);

  MetricsRegistry registry;
  obs::PublishProcessGauges(registry);
  EXPECT_GT(registry.GaugeValue("fieldswap.process.peak_rss_kb"), 0);
  EXPECT_GE(registry.GaugeValue("fieldswap.process.heap_watermark_kb"),
            registry.GaugeValue("fieldswap.process.heap_in_use_kb") == 0
                ? 0
                : registry.GaugeValue("fieldswap.process.heap_in_use_kb"));
}

}  // namespace
}  // namespace fieldswap
