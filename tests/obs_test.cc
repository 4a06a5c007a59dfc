// Tests for the observability layer (src/obs): histogram quantiles against
// the exact testing_util::Percentile oracle, concurrent registry updates (run
// under TSan by scripts/check.sh), and golden/hostile-name exposition tests
// for the Prometheus and JSON exporters.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/registry.h"
#include "test_util.h"
#include "trace/json.h"

namespace gpl {
namespace obs {
namespace {

// ---- Histogram quantiles vs. the exact oracle ----------------------------

// One bucket spans a factor of 10^(1/20) ~ 1.122, so the interpolated
// quantile can be off by at most ~12.2% relative to the exact value (plus
// nothing: clamping to min/max_seen keeps the tails inside the sample).
constexpr double kBucketRelTol = 0.13;

void ExpectQuantilesMatchOracle(const std::vector<double>& sample,
                                const char* label) {
  Histogram hist{HistogramOptions::LatencyMs()};
  for (const double v : sample) hist.Observe(v);
  ASSERT_EQ(hist.TotalCount(), sample.size());
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const double exact = testing_util::Percentile(sample, q * 100.0);
    const double approx = hist.Quantile(q);
    EXPECT_NEAR(approx, exact, kBucketRelTol * exact)
        << label << " q=" << q;
  }
  // The quantile estimate never leaves the observed range.
  const double lo = *std::min_element(sample.begin(), sample.end());
  const double hi = *std::max_element(sample.begin(), sample.end());
  EXPECT_GE(hist.Quantile(0.0), lo);
  EXPECT_LE(hist.Quantile(1.0), hi);
}

TEST(HistogramQuantile, UniformMatchesExactPercentile) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(0.5, 500.0);
  std::vector<double> sample(5000);
  for (double& v : sample) v = dist(rng);
  ExpectQuantilesMatchOracle(sample, "uniform");
}

TEST(HistogramQuantile, ExponentialMatchesExactPercentile) {
  // Heavy right tail, like service latencies under queueing.
  std::mt19937 rng(7);
  std::exponential_distribution<double> dist(1.0 / 20.0);
  std::vector<double> sample(5000);
  for (double& v : sample) v = 0.01 + dist(rng);
  ExpectQuantilesMatchOracle(sample, "exponential");
}

TEST(HistogramQuantile, LognormalMatchesExactPercentile) {
  // Multi-decade spread exercises many buckets.
  std::mt19937 rng(1234);
  std::lognormal_distribution<double> dist(1.0, 1.5);
  std::vector<double> sample(5000);
  for (double& v : sample) v = dist(rng);
  ExpectQuantilesMatchOracle(sample, "lognormal");
}

TEST(HistogramQuantile, BimodalMatchesExactPercentile) {
  // Fast-path vs. slow-path mix (cache hits vs. cold queries).
  std::mt19937 rng(99);
  std::normal_distribution<double> fast(2.0, 0.2);
  std::normal_distribution<double> slow(200.0, 20.0);
  std::vector<double> sample;
  sample.reserve(4000);
  for (int i = 0; i < 3000; ++i) sample.push_back(std::max(0.01, fast(rng)));
  for (int i = 0; i < 1000; ++i) sample.push_back(std::max(0.01, slow(rng)));
  ExpectQuantilesMatchOracle(sample, "bimodal");
}

TEST(HistogramQuantile, ConstantSampleIsExact) {
  Histogram hist{HistogramOptions::LatencyMs()};
  for (int i = 0; i < 100; ++i) hist.Observe(17.5);
  // All mass in one bucket and min == max: clamping makes this exact.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 17.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 17.5);
}

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  Histogram hist{HistogramOptions::LatencyMs()};
  EXPECT_EQ(hist.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
}

TEST(Histogram, OutOfRangeValuesLandInEdgeBuckets) {
  HistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 100.0;
  options.buckets_per_decade = 4;
  Histogram hist(options);
  hist.Observe(1e-6);  // below min: underflow bucket, clamped by min_seen
  hist.Observe(1e9);   // above max: overflow bucket, clamped by max_seen
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.counts.front(), 1u);
  EXPECT_EQ(snap.counts.back(), 1u);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min_seen, 1e-6);
  EXPECT_DOUBLE_EQ(snap.max_seen, 1e9);
  EXPECT_LE(hist.Quantile(0.99), 1e9);
}

TEST(Histogram, IgnoresNonFiniteValues) {
  Histogram hist{HistogramOptions::LatencyMs()};
  hist.Observe(std::nan(""));
  hist.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.TotalCount(), 0u);
}

// ---- Registry semantics --------------------------------------------------

TEST(MetricsRegistry, HandlesAreStablePerNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "help", {{"class", "Q5"}});
  Counter* b = registry.GetCounter("requests_total", "help", {{"class", "Q5"}});
  Counter* c = registry.GetCounter("requests_total", "help", {{"class", "Q8"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Label order does not matter: the registry canonicalizes by key.
  Gauge* g1 = registry.GetGauge("depth", "", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = registry.GetGauge("depth", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
}

TEST(MetricsRegistry, CallbackGaugesCollectAndRemove) {
  MetricsRegistry registry;
  double source = 41.0;
  const uint64_t id = registry.AddCallbackGauge("live_value", "from callback",
                                                {}, [&] { return source; });
  source = 42.0;
  std::vector<FamilySnapshot> families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  ASSERT_EQ(families[0].series.size(), 1u);
  EXPECT_DOUBLE_EQ(families[0].series[0].value, 42.0);
  registry.RemoveCallback(id);
  families = registry.Collect();
  ASSERT_EQ(families.size(), 1u);
  EXPECT_TRUE(families[0].series.empty());
}

TEST(MetricsRegistry, NullHelpersAreNoOps) {
  // The disabled-metrics fast path: every helper accepts nullptr.
  Inc(nullptr);
  Inc(nullptr, 5);
  Set(nullptr, 1.0);
  Add(nullptr, 1.0);
  Observe(nullptr, 1.0);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  // Exercised under ThreadSanitizer by scripts/check.sh: handle acquisition
  // races registration, and all three metric kinds race their updates.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter* shared = registry.GetCounter("shared_total", "");
      Counter* mine = registry.GetCounter(
          "per_thread_total", "", {{"thread", std::to_string(t)}});
      Gauge* gauge = registry.GetGauge("accumulated", "");
      Histogram* hist = registry.GetHistogram(
          "latency", "", HistogramOptions::LatencyMs());
      for (int i = 0; i < kIters; ++i) {
        shared->Increment();
        mine->Increment();
        gauge->Add(1.0);
        hist->Observe(1.0 + (i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("shared_total", "")->Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry
                  .GetCounter("per_thread_total", "",
                              {{"thread", std::to_string(t)}})
                  ->Value(),
              static_cast<uint64_t>(kIters));
  }
  EXPECT_DOUBLE_EQ(registry.GetGauge("accumulated", "")->Value(),
                   static_cast<double>(kThreads) * kIters);
  Histogram* hist =
      registry.GetHistogram("latency", "", HistogramOptions::LatencyMs());
  EXPECT_EQ(hist->TotalCount(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, CollectWhileWriting) {
  // Snapshots taken mid-update must be internally consistent (count >=
  // sum-of-buckets reconciliation) and must never tear.
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("latency", "", HistogramOptions::LatencyMs());
  Counter* counter = registry.GetCounter("events_total", "");
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      hist->Observe(0.5 + (i % 7));
      counter->Increment();
    }
  });
  for (int i = 0; i < 50; ++i) {
    for (const FamilySnapshot& family : registry.Collect()) {
      for (const SeriesSnapshot& series : family.series) {
        if (!series.histogram.has_value()) continue;
        uint64_t bucket_total = 0;
        for (const uint64_t c : series.histogram->counts) bucket_total += c;
        EXPECT_GE(series.histogram->count, bucket_total);
      }
    }
  }
  writer.join();
}

// ---- Exporters -----------------------------------------------------------

TEST(PrometheusExport, GoldenCounterAndGauge) {
  MetricsRegistry registry;
  registry.GetCounter("gpl_requests_total", "Requests by class",
                      {{"class", "Q5"}})
      ->Increment(3);
  registry.GetCounter("gpl_requests_total", "Requests by class",
                      {{"class", "Q8"}})
      ->Increment(7);
  registry.GetGauge("gpl_queue_depth", "Waiting queries")->Set(2.5);
  const std::string expected =
      "# HELP gpl_queue_depth Waiting queries\n"
      "# TYPE gpl_queue_depth gauge\n"
      "gpl_queue_depth 2.5\n"
      "# HELP gpl_requests_total Requests by class\n"
      "# TYPE gpl_requests_total counter\n"
      "gpl_requests_total{class=\"Q5\"} 3\n"
      "gpl_requests_total{class=\"Q8\"} 7\n";
  EXPECT_EQ(PrometheusText(registry), expected);
}

TEST(PrometheusExport, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry registry;
  HistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 100.0;
  options.buckets_per_decade = 1;  // bounds: 1, 10, 100
  Histogram* hist = registry.GetHistogram("lat_ms", "Latency", options);
  hist->Observe(0.5);
  hist->Observe(5.0);
  hist->Observe(50.0);
  hist->Observe(5000.0);  // overflow
  const std::string expected =
      "# HELP lat_ms Latency\n"
      "# TYPE lat_ms histogram\n"
      "lat_ms_bucket{le=\"1\"} 1\n"
      "lat_ms_bucket{le=\"10\"} 2\n"
      "lat_ms_bucket{le=\"100\"} 3\n"
      "lat_ms_bucket{le=\"+Inf\"} 4\n"
      "lat_ms_sum 5055.5\n"
      "lat_ms_count 4\n";
  EXPECT_EQ(PrometheusText(registry), expected);
}

TEST(PrometheusExport, HostileNamesAreSanitizedAndEscaped) {
  MetricsRegistry registry;
  registry
      .GetCounter("2nd metric#with bad chars!", "help with \\ and \nnewline",
                  {{"bad label!", "value with \"quotes\", \\ and \nnewline"}})
      ->Increment();
  const std::string text = PrometheusText(registry);
  EXPECT_EQ(text,
            "# HELP _2nd_metric_with_bad_chars_ help with \\\\ and "
            "\\nnewline\n"
            "# TYPE _2nd_metric_with_bad_chars_ counter\n"
            "_2nd_metric_with_bad_chars_{bad_label_=\"value with \\\"quotes"
            "\\\", \\\\ and \\nnewline\"} 1\n");
}

TEST(PrometheusExport, ColonAllowedInMetricNameNotLabelName) {
  EXPECT_EQ(SanitizeMetricName("ns:sub:name"), "ns:sub:name");
  EXPECT_EQ(SanitizeLabelName("ns:sub"), "ns_sub");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(JsonExport, SnapshotIsValidJsonWithQuantiles) {
  MetricsRegistry registry;
  registry.GetCounter("events_total", "Events")->Increment(12);
  registry.GetGauge("depth", "Queue depth")->Set(3.0);
  Histogram* hist = registry.GetHistogram("lat_ms", "Latency",
                                          HistogramOptions::LatencyMs());
  for (int i = 1; i <= 100; ++i) hist->Observe(static_cast<double>(i));
  const std::string json = JsonSnapshot(registry);
  std::string error;
  ASSERT_TRUE(trace::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
}

TEST(JsonExport, HostileNamesStayValidJson) {
  MetricsRegistry registry;
  registry
      .GetCounter("name with \"quotes\" and \\backslash\\",
                  "help\nwith\tcontrol chars",
                  {{"läbel", "va\"lue\n"}})
      ->Increment();
  const std::string json = JsonSnapshot(registry);
  std::string error;
  EXPECT_TRUE(trace::ValidateJson(json, &error)) << error << "\n" << json;
}

TEST(JsonExport, GoldenSmallRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("a_total", "A", {{"k", "v"}})->Increment(5);
  registry.GetGauge("b", "B")->Set(1.5);
  EXPECT_EQ(JsonSnapshot(registry),
            "{\"metrics\":["
            "{\"name\":\"a_total\",\"type\":\"counter\",\"help\":\"A\","
            "\"series\":[{\"labels\":{\"k\":\"v\"},\"value\":5}]},"
            "{\"name\":\"b\",\"type\":\"gauge\",\"help\":\"B\","
            "\"series\":[{\"labels\":{},\"value\":1.5}]}"
            "]}");
}

TEST(EncodeLabelsTest, SortsByKey) {
  EXPECT_EQ(EncodeLabels({{"b", "2"}, {"a", "1"}}),
            EncodeLabels({{"a", "1"}, {"b", "2"}}));
  EXPECT_NE(EncodeLabels({{"a", "1"}}), EncodeLabels({{"a", "2"}}));
}

}  // namespace
}  // namespace obs
}  // namespace gpl
