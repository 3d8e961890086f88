// Metrics registry tests (common/metrics.h): naming discipline, label-set
// identity, lock-free mutation under contention, and both serializations
// (Prometheus text exposition, JSON).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"

namespace reese {
namespace {

using metrics::Labels;
using metrics::Registry;

TEST(Metrics, NamingConventionIsEnforced) {
  EXPECT_TRUE(metrics::valid_metric_name("reese_core_cycles_total"));
  EXPECT_TRUE(metrics::valid_metric_name("reese_service_queue_depth"));
  EXPECT_FALSE(metrics::valid_metric_name("core_cycles_total"));  // no prefix
  EXPECT_FALSE(metrics::valid_metric_name("reese_Core_cycles"));  // upper case
  EXPECT_FALSE(metrics::valid_metric_name("reese_core-cycles"));  // dash
  EXPECT_FALSE(metrics::valid_metric_name(""));

  EXPECT_TRUE(metrics::valid_label_name("kind"));
  EXPECT_TRUE(metrics::valid_label_name("exec_class"));
  EXPECT_FALSE(metrics::valid_label_name("9kind"));
  EXPECT_FALSE(metrics::valid_label_name("kind-of"));

  Registry registry;
  // Counters must end in _total; gauges and histograms must not.
  EXPECT_EQ(registry.counter("reese_test_things"), nullptr);
  EXPECT_NE(registry.counter("reese_test_things_total"), nullptr);
  EXPECT_EQ(registry.gauge("reese_test_depth_total"), nullptr);
  EXPECT_NE(registry.gauge("reese_test_depth"), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_latency_total", {1.0}), nullptr);
  EXPECT_NE(registry.histogram("reese_test_latency", {1.0}), nullptr);
  // Invalid label names are refused at registration.
  EXPECT_EQ(registry.counter("reese_test_labeled_total", {{"bad-label", "x"}}),
            nullptr);
}

TEST(Metrics, LabelSetsAreDistinctSeries) {
  Registry registry;
  metrics::Counter* a =
      registry.counter("reese_test_cells_total", {{"kind", "experiment"}});
  metrics::Counter* b =
      registry.counter("reese_test_cells_total", {{"kind", "campaign"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  // Same (name, labels) -> the same stable handle.
  EXPECT_EQ(registry.counter("reese_test_cells_total",
                             {{"kind", "experiment"}}),
            a);
  a->inc(3);
  b->inc();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(registry.size(), 2u);
  // A name is owned by its first type: re-registering as a gauge fails.
  EXPECT_EQ(registry.gauge("reese_test_cells_total"), nullptr);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry registry;
  metrics::Gauge* gauge = registry.gauge("reese_test_level");
  ASSERT_NE(gauge, nullptr);
  gauge->set(2.5);
  gauge->add(1.25);
  gauge->add(-0.75);
  EXPECT_DOUBLE_EQ(gauge->value(), 3.0);
}

TEST(Metrics, HistogramObserveAndBulkImport) {
  Registry registry;
  metrics::HistogramMetric* histogram =
      registry.histogram("reese_test_cycles", {1.0, 4.0, 16.0});
  ASSERT_NE(histogram, nullptr);
  histogram->observe(0.5);   // bucket 0 (le 1)
  histogram->observe(4.0);   // bucket 1 (le 4, boundary is inclusive)
  histogram->observe(100.0); // +Inf
  EXPECT_EQ(histogram->count(), 3u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 104.5);
  const std::vector<u64> buckets = histogram->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);

  // Bulk import: O(1) mirroring of an external distribution, including a
  // sum-only charge with a zero count.
  histogram->add_bucket(2, 10, 100.0);
  histogram->add_bucket(3, 0, 7.5);
  EXPECT_EQ(histogram->count(), 13u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 212.0);
  EXPECT_EQ(histogram->bucket_counts()[2], 10u);

  // Mismatched or invalid bounds on re-registration are refused.
  EXPECT_EQ(registry.histogram("reese_test_cycles", {1.0, 2.0}), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_bad", {}), nullptr);
  EXPECT_EQ(registry.histogram("reese_test_bad", {3.0, 2.0}), nullptr);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr u64 kIncrements = 20'000;
  metrics::Counter* counter = registry.counter("reese_test_contended_total");
  metrics::Gauge* gauge = registry.gauge("reese_test_contended");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(gauge, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter, gauge] {
      for (u64 i = 0; i < kIncrements; ++i) {
        counter->inc();
        gauge->add(1.0);
        // Re-registration from many threads must return the same handle.
        EXPECT_EQ(registry.counter("reese_test_contended_total"), counter);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kIncrements);
  EXPECT_DOUBLE_EQ(gauge->value(),
                   static_cast<double>(kThreads * kIncrements));
}

TEST(Metrics, PrometheusExposition) {
  Registry registry;
  registry.counter("reese_test_jobs_total", {{"kind", "experiment"}},
                   "Jobs run")->inc(5);
  registry.counter("reese_test_jobs_total", {{"kind", "campaign"}})->inc(2);
  registry.gauge("reese_test_depth", {}, "Queue depth")->set(3.5);
  metrics::HistogramMetric* histogram = registry.histogram(
      "reese_test_latency", {1.0, 8.0}, {}, "Latency in cycles");
  histogram->observe(0.5);
  histogram->observe(2.0);
  histogram->observe(99.0);

  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("# HELP reese_test_jobs_total Jobs run"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"campaign\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_jobs_total{kind=\"experiment\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("reese_test_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reese_test_latency histogram"),
            std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"8\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_sum 101.5"), std::string::npos);
  EXPECT_NE(text.find("reese_test_latency_count 3"), std::string::npos);
  // Every exposition line is either a comment or "name{labels} value".
  usize lines = 0;
  for (usize start = 0; start < text.size();) {
    usize end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    if (line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.rfind("reese_", 0), 0u) << line;
  }
  EXPECT_GT(lines, 10u);
}

TEST(Metrics, JsonSerializationRoundTrips) {
  Registry registry;
  registry.counter("reese_test_events_total", {{"kind", "squash"}})->inc(7);
  registry.gauge("reese_test_ipc")->set(1.25);
  registry.histogram("reese_test_sep", {2.0, 4.0})->observe(3.0);

  const std::string body = registry.json();
  EXPECT_TRUE(json::parse_json(body).ok()) << body;
  const Result<json::Value> parsed = json::parse_json(body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* list = parsed.value().find("metrics");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->array.size(), 3u);
  // snapshot() sorts by name, so the order is deterministic.
  const json::Value& counter = list->array[0];
  EXPECT_EQ(counter.find("name")->string, "reese_test_events_total");
  EXPECT_EQ(counter.find("type")->string, "counter");
  EXPECT_EQ(counter.find("labels")->find("kind")->string, "squash");
  EXPECT_EQ(counter.find("value")->uint_value, 7u);
  const json::Value& gauge = list->array[1];
  EXPECT_EQ(gauge.find("name")->string, "reese_test_ipc");
  EXPECT_DOUBLE_EQ(gauge.find("value")->number, 1.25);
  const json::Value& histogram = list->array[2];
  EXPECT_EQ(histogram.find("type")->string, "histogram");
  EXPECT_EQ(histogram.find("count")->uint_value, 1u);
  ASSERT_EQ(histogram.find("buckets")->array.size(), 3u);
  EXPECT_EQ(histogram.find("buckets")->array[1].uint_value, 1u);
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.gauge("reese_test_z");
  registry.counter("reese_test_a_total")->inc();
  registry.counter("reese_test_m_total", {{"w", "li"}});
  registry.counter("reese_test_m_total", {{"w", "gcc"}});
  const std::vector<metrics::Sample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "reese_test_a_total");
  EXPECT_EQ(samples[1].name, "reese_test_m_total");
  EXPECT_EQ(samples[1].labels[0].second, "gcc");  // labels sort within name
  EXPECT_EQ(samples[2].labels[0].second, "li");
  EXPECT_EQ(samples[3].name, "reese_test_z");
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
}

}  // namespace
}  // namespace reese
