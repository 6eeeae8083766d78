// Unit tests for the observability registry: counters, gauges,
// fixed-bucket histograms, snapshots, and the concurrency contract
// (resolve-once pointers updated lock-free from many threads).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace crimson {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CounterResolveOnceAndAccumulate) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("a.count");
  EXPECT_EQ(c, reg.GetCounter("a.count"));  // stable pointer
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(reg.Snapshot().counter("a.count"), 42u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("a.level");
  g->Set(7);
  g->Set(3);
  EXPECT_EQ(g->value(), 3u);
  // Gauges merge into the counters map of the snapshot.
  EXPECT_EQ(reg.Snapshot().counter("a.level"), 3u);
}

TEST(MetricsRegistryTest, SnapshotIsPointInTime) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  c->Add(5);
  MetricsSnapshot snap = reg.Snapshot();
  c->Add(100);
  EXPECT_EQ(snap.counter("x"), 5u);
  EXPECT_EQ(reg.Snapshot().counter("x"), 105u);
}

TEST(MetricsRegistryTest, UnknownNamesReadAsZeroOrNull) {
  MetricsRegistry reg;
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("never.registered"), 0u);
  EXPECT_EQ(snap.histogram("never.registered"), nullptr);
}

TEST(MetricsRegistryTest, KindMismatchReturnsDetachedCell) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("dual");
  c->Add(9);
  // Re-requesting the same name as a different kind must not crash and
  // must not corrupt the original cell.
  Histogram* h = reg.GetHistogram("dual");
  ASSERT_NE(h, nullptr);
  h->Observe(1);
  Gauge* g = reg.GetGauge("dual");
  ASSERT_NE(g, nullptr);
  g->Set(123);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("dual"), 9u);           // original kind wins
  EXPECT_EQ(snap.histogram("dual"), nullptr);    // orphan not snapshotted
}

TEST(HistogramTest, BucketAssignmentInclusiveUpperBounds) {
  Histogram h({10, 100});
  h.Observe(1);
  h.Observe(10);    // inclusive: lands in the first bucket
  h.Observe(11);
  h.Observe(100);   // second bucket
  h.Observe(5000);  // overflow bucket
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);  // 10, 100, UINT64_MAX
  EXPECT_EQ(snap.bounds[2], UINT64_MAX);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1u + 10 + 11 + 100 + 5000);
}

TEST(HistogramTest, EmptyHistogramPercentilesAreZero) {
  Histogram h(Histogram::DefaultLatencyBoundsUs());
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p50(), 0.0);
  EXPECT_EQ(snap.p99(), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // 100 observations of value 50 all land in bucket (10, 100]; every
  // percentile estimate must stay inside that bucket.
  Histogram h({10, 100, 1000});
  for (int i = 0; i < 100; ++i) h.Observe(50);
  HistogramSnapshot snap = h.Snapshot();
  for (double p : {1.0, 50.0, 99.0}) {
    double v = snap.Percentile(p);
    EXPECT_GT(v, 10.0) << "p" << p;
    EXPECT_LE(v, 100.0) << "p" << p;
  }
  EXPECT_EQ(snap.mean(), 50.0);
}

TEST(HistogramTest, PercentileOrdersAcrossBuckets) {
  Histogram h({10, 100, 1000});
  for (int i = 0; i < 90; ++i) h.Observe(5);     // 90% in bucket 0
  for (int i = 0; i < 9; ++i) h.Observe(500);    // 9% in bucket 2
  h.Observe(100000);                             // 1% overflow
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_LE(snap.p50(), 10.0);
  EXPECT_GT(snap.p95(), 100.0);
  EXPECT_LE(snap.p95(), 1000.0);
  // Overflow bucket reports its lower edge as a floor.
  EXPECT_DOUBLE_EQ(snap.Percentile(99.9), 1000.0);
}

TEST(HistogramTest, BucketWidthTracksContainingBucket) {
  Histogram h({10, 100, 1000});
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.BucketWidth(5), 10.0);     // (0, 10]
  EXPECT_DOUBLE_EQ(snap.BucketWidth(50), 90.0);    // (10, 100]
  EXPECT_DOUBLE_EQ(snap.BucketWidth(500), 900.0);  // (100, 1000]
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const std::vector<uint64_t>& bounds = Histogram::DefaultLatencyBoundsUs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistryTest, HistogramBoundsApplyOnFirstCreationOnly) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat", {5, 50});
  EXPECT_EQ(h, reg.GetHistogram("lat"));          // same cell
  EXPECT_EQ(h, reg.GetHistogram("lat", {1, 2}));  // later bounds ignored
  h->Observe(3);
  MetricsSnapshot full = reg.Snapshot();
  ASSERT_NE(full.histogram("lat"), nullptr);
  EXPECT_EQ(full.histogram("lat")->bounds.size(), 3u);  // 5, 50, max
}

TEST(MetricsRegistryStress, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads race registration of the same names too.
      Counter* c = reg.GetCounter("stress.count");
      Histogram* h = reg.GetHistogram("stress.lat");
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>((t * kOpsPerThread + i) % 1000) + 1);
        if (i % 1000 == 0) (void)reg.Snapshot();  // readers race writers
      }
    });
  }
  for (auto& th : threads) th.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("stress.count"),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  ASSERT_NE(snap.histogram("stress.lat"), nullptr);
  EXPECT_EQ(snap.histogram("stress.lat")->count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t n : snap.histogram("stress.lat")->counts) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.histogram("stress.lat")->count);
}

}  // namespace
}  // namespace obs
}  // namespace crimson
