// Tests for the acic::obs metrics layer: counter/gauge/histogram
// semantics, registry find-or-create and kind collisions, snapshot
// isolation, exports, the scoped timer, and (under TSan) concurrent
// hot-path writes.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::obs {
namespace {

TEST(MetricsRegistryTest, CounterAccumulates) {
  MetricsRegistry registry;
  auto& c = registry.counter("requests");
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.inc();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(MetricsRegistryTest, GaugeKeepsLastValue) {
  MetricsRegistry registry;
  auto& g = registry.gauge("depth");
  g.set(7.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  auto& a = registry.counter("x");
  auto& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
}

TEST(MetricsRegistryTest, KindCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.histogram("x"), Error);
}

TEST(MetricsRegistryTest, HistogramBoundsMismatchThrows) {
  MetricsRegistry registry;
  registry.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(registry.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), Error);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsHandles) {
  MetricsRegistry registry;
  auto& c = registry.counter("c");
  auto& h = registry.histogram("h", {1.0});
  c.add(5.0);
  h.observe(0.5);
  registry.reset_all();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handle still live after reset
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(MetricsHistogramTest, BucketsCountByUpperBound) {
  MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 4.0, 16.0});
  for (double v : {0.5, 1.0, 2.0, 10.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 113.5);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(h.bucket(1), 1u);  // 2.0
  EXPECT_EQ(h.bucket(2), 1u);  // 10.0
  EXPECT_EQ(h.bucket(3), 1u);  // 100.0 → overflow
}

TEST(MetricsHistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

TEST(MetricsHistogramTest, SnapshotQuantiles) {
  MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);  // bucket <=1
  for (int i = 0; i < 10; ++i) h.observe(5.0);  // bucket <=8
  const auto snap = registry.snapshot();
  const auto* hs = snap.histogram("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(hs->quantile(0.99), 8.0);
  EXPECT_NEAR(hs->mean(), (90 * 0.5 + 10 * 5.0) / 100.0, 1e-12);
}

// A snapshot taken while observe() runs can read a bucket before an
// observation lands in it and `count` after: count one above the bucket
// sum.  Quantiles used to rank against `count`, ran past the last
// bucket and reported the last bound (16,777,216 us for the latency
// buckets) as the p99 of a histogram whose samples all sit in bucket 0.
TEST(MetricsSnapshotTest, QuantilesRankAgainstTheBucketsNotCount) {
  const std::vector<double> bounds = {1.0, 4.0, 16.0};
  HistogramSnapshot hs;
  hs.name = "lat";
  hs.bounds = bounds;
  hs.buckets = {1, 0, 0, 0};
  hs.count = 2;
  hs.sum = 0.5;
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(hs.quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 1.0);

  MetricsSnapshot snap;
  snap.histograms.push_back(hs);
  EXPECT_NE(snap.to_text().find("lat count=2 sum=0.5 mean=0.25 p50=1 p99=1\n"),
            std::string::npos)
      << snap.to_text();
}

TEST(MetricsSnapshotTest, SnapshotIsIsolatedFromLaterWrites) {
  MetricsRegistry registry;
  auto& c = registry.counter("c");
  auto& h = registry.histogram("h", {1.0});
  c.add(2.0);
  h.observe(0.5);
  const auto snap = registry.snapshot();
  c.add(100.0);
  h.observe(0.5);
  ASSERT_NE(snap.counter("c"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.counter("c"), 2.0);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1u);
}

TEST(MetricsSnapshotTest, TextAndCsvExports) {
  MetricsRegistry registry;
  registry.counter("service.requests.rank").add(4.0);
  registry.gauge("queue.depth").set(2.0);
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  const auto snap = registry.snapshot();

  const auto text = snap.to_text("  ");
  EXPECT_NE(text.find("  service.requests.rank 4"), std::string::npos);
  EXPECT_NE(text.find("  queue.depth 2"), std::string::npos);
  EXPECT_NE(text.find("  lat count=1"), std::string::npos);

  const auto csv = snap.to_csv();
  ASSERT_EQ(csv.header.size(), 9u);
  ASSERT_EQ(csv.rows.size(), 3u);
  for (const auto& row : csv.rows) EXPECT_EQ(row.size(), csv.header.size());
  // Round-trips through the CSV writer (no commas/newlines in cells).
  EXPECT_NO_THROW(to_csv(csv));
}

TEST(MetricsTimerTest, RecordsOneObservation) {
  MetricsRegistry registry;
  auto& h = registry.histogram("t_us");
  {
    Timer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 1e6);  // a no-op scope should be well under a second
}

TEST(MetricsConcurrency, ParallelWritesAreExact) {
  MetricsRegistry registry;
  auto& c = registry.counter("hits");
  auto& h = registry.histogram("lat", {1.0, 2.0, 4.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(t % 4));
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_DOUBLE_EQ(c.value(), double(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kPerThread);
}

TEST(MetricsConcurrency, SnapshotDuringWritesIsConsistentPerInstrument) {
  MetricsRegistry registry;
  auto& c = registry.counter("c");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) c.inc();
  });
  for (int i = 0; i < 100; ++i) {
    const auto snap = registry.snapshot();
    ASSERT_NE(snap.counter("c"), nullptr);
    EXPECT_GE(*snap.counter("c"), 0.0);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace acic::obs
