#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace moa {
namespace obs {
namespace {

// The registry is process-global; every test starts from zeroed values.
class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override { MetricsRegistry::Global().ResetForTest(); }
};

TEST_F(MetricsRegistryTest, CounterAddsAndMerges) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_total");
  EXPECT_EQ(c->Value(), 0.0);
  c->Add();
  c->Add(2.5);
  EXPECT_EQ(c->Value(), 3.5);
}

TEST_F(MetricsRegistryTest, GaugeKeepsLastValue) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test_gauge");
  g->Set(7.0);
  g->Set(-1.5);
  EXPECT_EQ(g->Value(), -1.5);
}

TEST_F(MetricsRegistryTest, HistogramTracksCountSumMinMaxQuantiles) {
  HistogramMetric* h = MetricsRegistry::Global().GetHistogram("test_hist_ms");
  EXPECT_EQ(h->Count(), 0);
  EXPECT_EQ(h->Sum(), 0.0);
  EXPECT_EQ(h->Quantile(0.5), 0.0);  // empty: defined, no division by zero
  for (int i = 1; i <= 100; ++i) h->Observe(static_cast<double>(i));
  EXPECT_EQ(h->Count(), 100);
  EXPECT_EQ(h->Sum(), 5050.0);
  EXPECT_EQ(h->Min(), 1.0);
  EXPECT_EQ(h->Max(), 100.0);
  const double p50 = h->Quantile(0.50);
  const double p95 = h->Quantile(0.95);
  EXPECT_NEAR(p50, 50.0, 5.0);
  EXPECT_NEAR(p95, 95.0, 5.0);
  EXPECT_LE(p50, p95);
}

TEST_F(MetricsRegistryTest, LabelIdentityAndHandleStability) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test_labeled_total", "strategy=heap");
  Counter* b = registry.GetCounter("test_labeled_total", "strategy=maxscore");
  Counter* a_again = registry.GetCounter("test_labeled_total", "strategy=heap");
  EXPECT_NE(a, b);        // distinct label -> distinct series
  EXPECT_EQ(a, a_again);  // same (name, label) -> same handle
  a->Add(3);
  b->Add(4);
  EXPECT_EQ(a->Value(), 3.0);
  EXPECT_EQ(b->Value(), 4.0);
  // ResetForTest zeroes values but keeps handles valid.
  registry.ResetForTest();
  EXPECT_EQ(a->Value(), 0.0);
  a->Add();
  EXPECT_EQ(a_again->Value(), 1.0);
}

TEST_F(MetricsRegistryTest, RenderIsDeterministicAndOrdered) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Register out of order; Render must sort by (name, label).
  registry.GetCounter("test_zzz_total")->Add(1);
  registry.GetCounter("test_aaa_total", "k=b")->Add(2);
  registry.GetCounter("test_aaa_total", "k=a")->Add(3);
  registry.GetGauge("test_mmm")->Set(9);

  const std::string first = registry.Render(MetricsFormat::kPrometheus);
  const std::string second = registry.Render(MetricsFormat::kPrometheus);
  EXPECT_EQ(first, second);  // byte-identical re-render

  const size_t aaa_a = first.find("test_aaa_total{k=\"a\"} 3");
  const size_t aaa_b = first.find("test_aaa_total{k=\"b\"} 2");
  const size_t zzz = first.find("test_zzz_total 1");
  ASSERT_NE(aaa_a, std::string::npos) << first;
  ASSERT_NE(aaa_b, std::string::npos) << first;
  ASSERT_NE(zzz, std::string::npos) << first;
  EXPECT_LT(aaa_a, aaa_b);
  EXPECT_LT(aaa_b, zzz);

  const std::string json = registry.Render(MetricsFormat::kJson);
  EXPECT_EQ(json, registry.Render(MetricsFormat::kJson));
  EXPECT_NE(json.find("\"test_aaa_total\""), std::string::npos) << json;
}

TEST_F(MetricsRegistryTest, MetricNamesSortedAndDeduplicated) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test_names_b_total", "x=1");
  registry.GetCounter("test_names_b_total", "x=2");
  registry.GetGauge("test_names_a");
  const std::vector<std::string> names = registry.MetricNames();
  int a_seen = 0, b_seen = 0;
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // strictly sorted -> deduplicated
  }
  for (const std::string& n : names) {
    a_seen += (n == "test_names_a") ? 1 : 0;
    b_seen += (n == "test_names_b_total") ? 1 : 0;
  }
  EXPECT_EQ(a_seen, 1);
  EXPECT_EQ(b_seen, 1);  // two labels, one family name
}

TEST_F(MetricsRegistryTest, ConcurrentCounterIncrementsAreExact) {
  // 8 threads x 10k increments through the sharded cells; the merged
  // value must be exact. Also the TSan target for the counter path.
  Counter* c = MetricsRegistry::Global().GetCounter("test_concurrent_total");
  HistogramMetric* h =
      MetricsRegistry::Global().GetHistogram("test_concurrent_ms");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (int i = 0; i < kIters; ++i) {
        c->Add();
        if (i % 100 == 0) h->Observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(h->Count(), kThreads * (kIters / 100));
}

TEST_F(MetricsRegistryTest, ConcurrentRegistrationYieldsOneSeries) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &handles, t] {
      handles[t] = registry.GetCounter("test_race_total", "k=v");
      handles[t]->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->Value(), static_cast<double>(kThreads));
}

}  // namespace
}  // namespace obs
}  // namespace moa
