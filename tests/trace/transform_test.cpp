#include "trace/transform.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace edc::trace {
namespace {

Trace MakeTrace() {
  Trace t{.name = "t", .records = {}};
  for (int i = 0; i < 10; ++i) {
    TraceRecord r;
    r.timestamp = i * kSecond;
    r.op = i % 2 ? OpType::kRead : OpType::kWrite;
    r.offset = static_cast<u64>(i) * 4096;
    r.size = 4096;
    t.records.push_back(r);
  }
  return t;
}

TEST(TimeScale, DoublesLoad) {
  Trace t = MakeTrace();
  Trace scaled = TimeScale(t, 2.0);
  ASSERT_EQ(scaled.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(scaled.records[i].timestamp, t.records[i].timestamp / 2);
    EXPECT_EQ(scaled.records[i].offset, t.records[i].offset);
  }
  TraceStats s0 = ComputeStats(t);
  TraceStats s1 = ComputeStats(scaled);
  EXPECT_NEAR(s1.mean_iops, s0.mean_iops * 2, s0.mean_iops * 0.01);
}

TEST(TimeScale, FactorBelowOneStretches) {
  Trace t = MakeTrace();
  Trace slow = TimeScale(t, 0.5);
  EXPECT_EQ(slow.records[4].timestamp, t.records[4].timestamp * 2);
}

TEST(TimeScale, NonPositiveFactorEmpty) {
  EXPECT_TRUE(TimeScale(MakeTrace(), 0.0).records.empty());
}

TEST(Slice, KeepsWindowRebased) {
  Trace t = MakeTrace();
  Trace s = Slice(t, 3 * kSecond, 6 * kSecond);
  ASSERT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.records[0].timestamp, 0);
  EXPECT_EQ(s.records[0].offset, 3u * 4096);
  EXPECT_EQ(s.records[2].timestamp, 2 * kSecond);
}

TEST(Slice, EmptyWindow) {
  EXPECT_TRUE(Slice(MakeTrace(), kSecond, kSecond).records.empty());
}

TEST(Merge, InterleavesByTimestamp) {
  Trace a = MakeTrace();
  Trace b = MakeTrace();
  for (auto& r : b.records) r.timestamp += kSecond / 2;
  Trace m = Merge({a, b}, 0);
  ASSERT_EQ(m.records.size(), 20u);
  for (std::size_t i = 1; i < m.records.size(); ++i) {
    EXPECT_LE(m.records[i - 1].timestamp, m.records[i].timestamp);
  }
}

TEST(Merge, AddressStrideSeparatesVolumes) {
  Trace a = MakeTrace();
  Trace b = MakeTrace();
  u64 stride = 1ull << 30;
  Trace m = Merge({a, b}, stride);
  u64 low = 0, high = 0;
  for (const auto& r : m.records) {
    (r.offset >= stride ? high : low) += 1;
  }
  EXPECT_EQ(low, 10u);
  EXPECT_EQ(high, 10u);
}

TEST(FilterOp, SplitsReadsAndWrites) {
  Trace t = MakeTrace();
  Trace reads = FilterOp(t, OpType::kRead);
  Trace writes = FilterOp(t, OpType::kWrite);
  EXPECT_EQ(reads.records.size(), 5u);
  EXPECT_EQ(writes.records.size(), 5u);
  for (const auto& r : reads.records) EXPECT_EQ(r.op, OpType::kRead);
}

TEST(Head, TruncatesAndClamps) {
  Trace t = MakeTrace();
  EXPECT_EQ(Head(t, 3).records.size(), 3u);
  EXPECT_EQ(Head(t, 100).records.size(), 10u);
  EXPECT_TRUE(Head(t, 0).records.empty());
}

TEST(TimeScale, PreservesSyntheticShape) {
  auto p = PresetByName("Fin1", 10.0);
  ASSERT_TRUE(p.ok());
  Trace t = GenerateSynthetic(*p, 3);
  TraceStats before = ComputeStats(t);
  TraceStats after = ComputeStats(TimeScale(t, 4.0));
  EXPECT_EQ(before.total_requests, after.total_requests);
  EXPECT_NEAR(after.write_ratio, before.write_ratio, 1e-9);
  EXPECT_NEAR(after.mean_iops, before.mean_iops * 4, before.mean_iops * 0.05);
}

}  // namespace
}  // namespace edc::trace
