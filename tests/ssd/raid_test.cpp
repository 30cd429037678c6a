#include "ssd/raid.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace edc::ssd {
namespace {

RaisConfig SmallRais(RaisLevel level, u32 disks = 5) {
  RaisConfig c;
  c.level = level;
  c.num_disks = disks;
  c.chunk_pages = 4;
  c.member.geometry.pages_per_block = 8;
  c.member.geometry.num_blocks = 64;
  c.member.store_data = true;
  return c;
}

std::vector<Bytes> Payloads(u32 n, u8 fill) {
  std::vector<Bytes> v;
  for (u32 i = 0; i < n; ++i) v.emplace_back(4096, static_cast<u8>(fill + i));
  return v;
}

TEST(Rais, LogicalCapacity) {
  Rais r0(SmallRais(RaisLevel::kRais0));
  Rais r5(SmallRais(RaisLevel::kRais5));
  // RAIS5 loses one disk's worth of capacity to parity.
  EXPECT_NEAR(static_cast<double>(r5.logical_pages()) /
                  static_cast<double>(r0.logical_pages()),
              0.8, 0.01);
}

TEST(Rais, PlacementCoversAllDisksAndRotatesParity) {
  Rais rais(SmallRais(RaisLevel::kRais5));
  std::set<u32> data_disks, parity_disks;
  for (Lba lba = 0; lba < 400; ++lba) {
    auto p = rais.Place(lba);
    ASSERT_LT(p.data_disk, 5u);
    ASSERT_LT(p.parity_disk, 5u);
    ASSERT_NE(p.data_disk, p.parity_disk);
    data_disks.insert(p.data_disk);
    parity_disks.insert(p.parity_disk);
  }
  EXPECT_EQ(data_disks.size(), 5u);
  EXPECT_EQ(parity_disks.size(), 5u);  // parity rotates over all disks
}

TEST(Rais, PlacementIsInjectivePerDisk) {
  Rais rais(SmallRais(RaisLevel::kRais5));
  std::set<std::pair<u32, Lba>> seen;
  for (Lba lba = 0; lba < 500; ++lba) {
    auto p = rais.Place(lba);
    EXPECT_TRUE(seen.insert({p.data_disk, p.disk_lba}).second)
        << "collision at lba " << lba;
  }
}

TEST(Rais, WriteReadRoundTrip) {
  Rais rais(SmallRais(RaisLevel::kRais5));
  auto w = rais.Write(17, Payloads(6, 40), 0);
  ASSERT_TRUE(w.ok());
  auto r = rais.Read(17, 6, w->completion);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->pages.size(), 6u);
  for (u32 i = 0; i < 6; ++i) {
    EXPECT_EQ(r->pages[i], Bytes(4096, static_cast<u8>(40 + i))) << i;
  }
}

TEST(Rais, Rais5WritePaysParityPenalty) {
  Rais r5(SmallRais(RaisLevel::kRais5));
  Rais r0(SmallRais(RaisLevel::kRais0));
  auto w5 = r5.Write(0, Payloads(1, 1), 0);
  auto w0 = r0.Write(0, Payloads(1, 1), 0);
  ASSERT_TRUE(w5.ok());
  ASSERT_TRUE(w0.ok());
  // RMW: two programs (data+parity) vs one.
  EXPECT_EQ(w0->cost.pages_programmed, 1u);
  EXPECT_EQ(w5->cost.pages_programmed, 2u);
  EXPECT_GT(w5->completion, w0->completion);
}

TEST(Rais, StripingParallelizesAcrossDisks) {
  // A multi-chunk read touches several disks concurrently: the array
  // completion should be far below the serial sum.
  RaisConfig cfg = SmallRais(RaisLevel::kRais0);
  cfg.chunk_pages = 1;
  Rais rais(cfg);
  auto w = rais.Write(0, Payloads(5, 1), 0);
  ASSERT_TRUE(w.ok());

  Ssd single(cfg.member);
  auto sw = single.Write(0, Payloads(5, 1), 0);
  ASSERT_TRUE(sw.ok());

  SimTime t0 = w->completion;
  auto ra = rais.Read(0, 5, t0);
  ASSERT_TRUE(ra.ok());
  auto rs = single.Read(0, 5, sw->completion);
  ASSERT_TRUE(rs.ok());
  EXPECT_LT(ra->completion - t0, rs->completion - sw->completion);
}

TEST(Rais, StatsAggregateMembers) {
  Rais rais(SmallRais(RaisLevel::kRais5));
  auto w = rais.Write(0, Payloads(10, 3), 0);
  ASSERT_TRUE(w.ok());
  DeviceStats s = rais.stats();
  // 10 data pages + parity traffic.
  EXPECT_GE(s.host_pages_written, 20u);
  std::vector<DeviceStats> members;
  for (u32 i = 0; i < rais.num_disks(); ++i) {
    members.push_back(rais.member(i).stats());
  }
  // No spares, and the array-level counters are all zero.
  EXPECT_EQ(s, FoldParallel(members));
}

TEST(FoldParallel, SumsMaxesAndAverages) {
  DeviceStats a;
  a.host_pages_written = 10;
  a.gc_pages_copied = 2;
  a.max_erase_count = 7;
  a.mean_erase_count = 1.5;
  a.busy_time = 100;
  a.energy_j = 0.25;
  a.read_faults = 1;
  DeviceStats b;
  b.host_pages_written = 30;
  b.gc_pages_copied = 8;
  b.max_erase_count = 2;
  b.mean_erase_count = 0.5;
  b.busy_time = 300;
  b.energy_j = 0.5;
  b.degraded_reads = 9;
  const DeviceStats both[] = {a, b};
  DeviceStats f = FoldParallel(both);
  EXPECT_EQ(f.host_pages_written, 40u);
  EXPECT_EQ(f.gc_pages_copied, 10u);
  EXPECT_EQ(f.read_faults, 1u);
  EXPECT_EQ(f.degraded_reads, 9u);
  EXPECT_DOUBLE_EQ(f.energy_j, 0.75);
  EXPECT_EQ(f.max_erase_count, 7u);  // the hottest device
  EXPECT_EQ(f.busy_time, 300);       // parallel lanes, not a sum
  EXPECT_DOUBLE_EQ(f.mean_erase_count, 1.0);
  // Recomputed from the summed pages, not averaged: (40 + 10) / 40.
  EXPECT_DOUBLE_EQ(f.waf, 1.25);
}

TEST(FoldParallel, EmptyAndWriteFreeInputs) {
  EXPECT_EQ(FoldParallel({}), DeviceStats{});  // mean 0, waf 1.0
  DeviceStats reads_only;
  reads_only.host_pages_read = 12;
  reads_only.gc_pages_copied = 3;  // relocations with no host writes
  reads_only.waf = 9.0;
  const DeviceStats one[] = {reads_only};
  EXPECT_EQ(FoldParallel(one).waf, 1.0);
}

TEST(Rais, TrimMapsThrough) {
  Rais rais(SmallRais(RaisLevel::kRais5));
  auto w = rais.Write(3, Payloads(1, 9), 0);
  ASSERT_TRUE(w.ok());
  auto t = rais.Trim(3, 1, w->completion);
  ASSERT_TRUE(t.ok());
  auto r = rais.Read(3, 1, t->completion);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->pages[0].empty());
}

TEST(Rais, OutOfRangeFails) {
  Rais rais(SmallRais(RaisLevel::kRais0));
  EXPECT_FALSE(rais.WriteModeled(rais.logical_pages() * 2, 1, 0).ok());
}

}  // namespace
}  // namespace edc::ssd
