// Tests for the metrics core (src/common/metrics/): bucket math,
// exact totals under concurrent Observe (this suite carries the
// `concurrency` label, so TSan checks the relaxed-atomic claims),
// family/registry identity guarantees, the Prometheus text render
// (golden), the JSON render (must parse with the repo's own parser),
// and the request-trace plumbing.
#include "common/metrics/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics/trace.h"

namespace fairtopk {
namespace metrics {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, TracksLevel) {
  Gauge gauge;
  gauge.Inc();
  gauge.Inc();
  gauge.Dec();
  EXPECT_EQ(gauge.value(), 1);
  gauge.Set(-7);
  EXPECT_EQ(gauge.value(), -7);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(HistogramTest, BucketMath) {
  // Bucket i counts values with bit_width == i: inclusive upper bound
  // 2^i - 1.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketBound(0), 0u);
  EXPECT_EQ(Histogram::BucketBound(1), 1u);
  EXPECT_EQ(Histogram::BucketBound(2), 3u);
  EXPECT_EQ(Histogram::BucketBound(26), (uint64_t{1} << 26) - 1);
  // Every value lands in a bucket whose bound covers it and whose
  // predecessor's bound does not.
  for (uint64_t value : {0ull, 1ull, 2ull, 100ull, 65535ull, 65536ull}) {
    const int index = Histogram::BucketIndex(value);
    EXPECT_LE(value, Histogram::BucketBound(index)) << value;
    if (index > 0) {
      EXPECT_GT(value, Histogram::BucketBound(index - 1)) << value;
    }
  }
  // Values past the last finite bound clamp into the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 26),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, ObserveUpdatesCountSumAndBuckets) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(5);
  histogram.Observe(5);
  histogram.Observe(uint64_t{1} << 30);  // overflow bucket
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 10u + (uint64_t{1} << 30));
  EXPECT_EQ(histogram.bucket_count(0), 1u);
  EXPECT_EQ(histogram.bucket_count(Histogram::BucketIndex(5)), 2u);
  EXPECT_EQ(histogram.bucket_count(Histogram::kNumBuckets - 1), 1u);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0u);
}

// count and sum are exact (each Observe is three relaxed fetch_adds),
// so concurrent totals can be asserted precisely — not approximately.
TEST(HistogramTest, ConcurrentObservesAreExact) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Histogram histogram;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Spread observations across many buckets, thread-dependent so
        // threads race on different and identical buckets alike.
        histogram.Observe((i * 37 + static_cast<uint64_t>(t)) % 5000);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += (i * 37 + static_cast<uint64_t>(t)) % 5000;
    }
  }
  EXPECT_EQ(histogram.sum(), expected_sum);
  uint64_t bucket_total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, histogram.count());
}

TEST(FamilyTest, SameLabelsSameSeries) {
  MetricsRegistry registry;
  Family<Counter>& family =
      registry.CounterFamily("requests", "requests by op", {"op"});
  Counter& detect = family.With({"detect"});
  detect.Inc();
  EXPECT_EQ(&family.With({"detect"}), &detect);
  EXPECT_NE(&family.With({"stats"}), &detect);
  EXPECT_EQ(family.With({"detect"}).value(), 1u);
}

TEST(RegistryTest, FamilyFactoriesAreIdempotent) {
  MetricsRegistry registry;
  Family<Counter>& first = registry.CounterFamily("c", "help", {"op"});
  Family<Counter>& second = registry.CounterFamily("c", "help", {"op"});
  EXPECT_EQ(&first, &second);
  Family<Gauge>& gauge = registry.GaugeFamily("g", "help");
  EXPECT_EQ(&registry.GaugeFamily("g", "help"), &gauge);
}

TEST(RegistryTest, PrometheusRenderGolden) {
  MetricsRegistry registry;
  Family<Counter>& requests =
      registry.CounterFamily("app_requests_total", "Requests by op", {"op"});
  requests.With({"detect"}).Inc(3);
  requests.With({"stats"}).Inc();
  registry.GaugeFamily("app_active", "Active connections").With({}).Set(2);

  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP app_active Active connections\n"
            "# TYPE app_active gauge\n"
            "app_active 2\n"
            "# HELP app_requests_total Requests by op\n"
            "# TYPE app_requests_total counter\n"
            "app_requests_total{op=\"detect\"} 3\n"
            "app_requests_total{op=\"stats\"} 1\n");
}

TEST(RegistryTest, PrometheusHistogramRenderGolden) {
  MetricsRegistry registry;
  Family<Histogram>& latency =
      registry.HistogramFamily("app_latency", "Latency", {"op"});
  Histogram& histogram = latency.With({"detect"});
  histogram.Observe(0);
  histogram.Observe(5);   // bucket 3 (le 7)
  histogram.Observe(5);
  histogram.Observe(uint64_t{1} << 40);  // +Inf bucket

  // The 28 bucket lines are generated the same way the renderer
  // documents them: le = 2^i - 1 cumulative, then +Inf = total.
  std::string expected = "# HELP app_latency Latency\n# TYPE app_latency histogram\n";
  uint64_t cumulative = 0;
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    if (i == 0) cumulative = 1;       // the Observe(0)
    if (i == 3) cumulative = 3;       // + the two Observe(5)
    expected += "app_latency_bucket{op=\"detect\",le=\"" +
                std::to_string(Histogram::BucketBound(i)) + "\"} " +
                std::to_string(cumulative) + "\n";
  }
  expected += "app_latency_bucket{op=\"detect\",le=\"+Inf\"} 4\n";
  expected +=
      "app_latency_sum{op=\"detect\"} " + std::to_string(10 + (uint64_t{1} << 40)) + "\n";
  expected += "app_latency_count{op=\"detect\"} 4\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(RegistryTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.CounterFamily("c", "help", {"path"})
      .With({"a\"b\\c\nd"})
      .Inc();
  const std::string out = registry.RenderPrometheus();
  EXPECT_NE(out.find("c{path=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << out;
}

// The JSON render must round-trip through the repo's own (strict,
// duplicate-key-rejecting) parser — this is what the `metrics` JSONL
// op returns inside its data envelope.
TEST(RegistryTest, JsonRenderParses) {
  MetricsRegistry registry;
  registry.CounterFamily("requests", "Requests", {"op"})
      .With({"detect"})
      .Inc(3);
  Histogram& histogram =
      registry.HistogramFamily("latency", "Latency").With({});
  histogram.Observe(5);
  histogram.Observe(100);

  Result<JsonValue> parsed = ParseJson(registry.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* families = parsed->Find("families");
  ASSERT_NE(families, nullptr);
  ASSERT_TRUE(families->is_array());
  ASSERT_EQ(families->array_items().size(), 2u);

  const JsonValue& latency = families->array_items()[0];
  EXPECT_EQ(latency.StringOr("name", ""), "latency");
  EXPECT_EQ(latency.StringOr("type", ""), "histogram");
  const JsonValue& series = latency.Find("series")->array_items()[0];
  EXPECT_EQ(series.NumberOr("count", 0), 2.0);
  EXPECT_EQ(series.NumberOr("sum", 0), 105.0);
  // Zero buckets are skipped: two observations → two bucket entries.
  EXPECT_EQ(series.Find("buckets")->array_items().size(), 2u);

  const JsonValue& requests = families->array_items()[1];
  EXPECT_EQ(requests.StringOr("type", ""), "counter");
  const JsonValue& counter_series = requests.Find("series")->array_items()[0];
  EXPECT_EQ(counter_series.NumberOr("value", 0), 3.0);
  EXPECT_EQ(counter_series.Find("labels")->StringOr("op", ""), "detect");
}

TEST(TraceTest, RequestTraceCollectsSpansAndCounters) {
  RequestTrace trace;
  trace.OnSpan("parse", 12);
  trace.OnSpan("search", 300);
  trace.OnCounter("nodes_visited", 42);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_STREQ(trace.spans()[0].first, "parse");
  EXPECT_EQ(trace.spans()[1].second, 300u);
  ASSERT_EQ(trace.counters().size(), 1u);
  EXPECT_EQ(trace.counters()[0].second, 42u);
}

TEST(TraceTest, SpanTimerReportsOnceAndNullSinkIsNoop) {
  RequestTrace trace;
  {
    SpanTimer span(&trace, "phase");
    span.Stop();
    span.Stop();  // idempotent
  }  // destructor must not double-report
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_STREQ(trace.spans()[0].first, "phase");
  { SpanTimer span(nullptr, "ignored"); }
}

// Repeated span names (a batch op reporting a phase per member) must
// aggregate in the JSON members — the protocol's own parser rejects
// duplicate object keys.
TEST(TraceTest, WriteJsonMembersAggregatesRepeatedNames) {
  RequestTrace trace;
  trace.OnSpan("search", 10);
  trace.OnSpan("serialize", 1);
  trace.OnSpan("search", 5);
  trace.OnCounter("nodes_visited", 7);
  trace.OnCounter("nodes_visited", 3);

  JsonWriter w;
  w.BeginObject();
  trace.WriteJsonMembers(w);
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->NumberOr("search", 0), 15.0);
  EXPECT_EQ(spans->NumberOr("serialize", 0), 1.0);
  EXPECT_EQ(parsed->Find("counters")->NumberOr("nodes_visited", 0), 10.0);
}

}  // namespace
}  // namespace metrics
}  // namespace fairtopk
