// edc::shard unit coverage: router splitting, the async submit/complete
// fabric, QoS plumbing, lifecycle guards and stat aggregation. The
// cross-shard determinism acceptance matrix lives in
// tests/integration/shard_determinism_test.cpp.
#include "edc/shard.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace edc::shard {
namespace {

core::StackConfig BaseConfig() {
  core::StackConfig cfg;
  cfg.mode = core::ExecutionMode::kFunctional;
  cfg.content_profile = "usr";
  cfg.ssd.geometry.num_blocks = 256;
  cfg.ssd.store_data = false;
  return cfg;
}

constexpr u64 kBlk = kLogicalBlockSize;

TEST(ShardRouter, SingleShardNeverSplits) {
  ShardRouter r(1, 64);
  std::vector<ShardRouter::Part> parts;
  r.Split(0, 4096 * 100, &parts);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].shard, 0u);
  EXPECT_EQ(parts[0].offset, 0u);
  EXPECT_EQ(parts[0].size, 4096u * 100);
  EXPECT_EQ(r.shard_of(0), 0u);
  EXPECT_EQ(r.shard_of(123456), 0u);
}

TEST(ShardRouter, ChunksRotateAcrossShards) {
  ShardRouter r(4, 16);
  EXPECT_EQ(r.shard_of(0), 0u);
  EXPECT_EQ(r.shard_of(15), 0u);
  EXPECT_EQ(r.shard_of(16), 1u);
  EXPECT_EQ(r.shard_of(47), 2u);
  EXPECT_EQ(r.shard_of(48), 3u);
  EXPECT_EQ(r.shard_of(64), 0u);  // wraps back
}

TEST(ShardRouter, SplitsAtEveryChunkBoundary) {
  ShardRouter r(2, 4);  // 16 KiB chunks
  std::vector<ShardRouter::Part> parts;
  // 8 blocks starting at block 2: spans chunks [0,4), [4,8), [8,12).
  r.Split(2 * kBlk, 8 * static_cast<u32>(kBlk), &parts);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].shard, 0u);
  EXPECT_EQ(parts[0].offset, 2 * kBlk);
  EXPECT_EQ(parts[0].size, 2 * kBlk);
  EXPECT_EQ(parts[1].shard, 1u);
  EXPECT_EQ(parts[1].offset, 4 * kBlk);
  EXPECT_EQ(parts[1].size, 4 * kBlk);
  EXPECT_EQ(parts[2].shard, 0u);
  EXPECT_EQ(parts[2].offset, 8 * kBlk);
  EXPECT_EQ(parts[2].size, 2 * kBlk);
  // Offsets ascend and tile the request exactly.
  u64 expect_off = 2 * kBlk;
  for (const auto& p : parts) {
    EXPECT_EQ(p.offset, expect_off);
    expect_off += p.size;
  }
  EXPECT_EQ(expect_off, 8 * kBlk + 2 * kBlk);
}

TEST(ShardRouter, PartShardsMatchShardOf) {
  ShardRouter r(3, 8);
  std::vector<ShardRouter::Part> parts;
  r.Split(5 * kBlk, 40 * static_cast<u32>(kBlk), &parts);
  for (const auto& p : parts) {
    for (u64 b = p.offset / kBlk; b < (p.offset + p.size) / kBlk; ++b) {
      EXPECT_EQ(r.shard_of(b), p.shard);
    }
  }
}

TEST(ShardedEngine, LifecycleGuards) {
  ShardedOptions so;
  so.shards = 2;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;

  // Data plane before StartRunLoops is rejected.
  Request req;
  req.kind = OpKind::kWrite;
  req.offset = 0;
  req.size = 4096;
  EXPECT_FALSE(e.Submit(req).ok());

  ASSERT_TRUE(e.StartRunLoops().ok());
  EXPECT_TRUE(e.running());
  // Control plane while running is rejected.
  EXPECT_FALSE(e.FlushAllPending(0).ok());
  EXPECT_FALSE(e.RecoverAllFromDevice(0).ok());
  EXPECT_FALSE(e.ReadBlockData(0).ok());
  EXPECT_FALSE(e.RecreateEngine(0).ok());
  // Tenant range is validated.
  req.tenant = 99;
  EXPECT_FALSE(e.Submit(req).ok());

  ASSERT_TRUE(e.StopRunLoops().ok());
  EXPECT_FALSE(e.running());
  EXPECT_TRUE(e.FlushAllPending(0).ok());
}

TEST(ShardedEngine, WritesReadsAndTrimsAcrossShards) {
  ShardedOptions so;
  so.shards = 4;
  so.chunk_blocks = 2;  // tiny chunks force straddling
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  ASSERT_TRUE(e.StartRunLoops().ok());

  std::vector<u64> seqs;
  e.SetCompletionCallback([&](const Completion& c) {
    ASSERT_TRUE(c.status.ok());
    EXPECT_GE(c.completion, c.admitted);
    seqs.push_back(c.seq);
  });

  SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = t;
    req.offset = static_cast<u64>((i * 3) % 50) * kBlk;
    req.size =
        static_cast<u32>(kBlk) * static_cast<u32>(1 + (i % 6));  // <= 6 blocks
    ASSERT_TRUE(e.Submit(req).ok()) << i;
    t += kMillisecond;
  }
  for (int i = 0; i < 10; ++i) {
    Request req;
    req.kind = i % 2 == 0 ? OpKind::kRead : OpKind::kTrim;
    req.arrival = t;
    req.offset = static_cast<u64>(i * 4) * kBlk;
    req.size = static_cast<u32>(kBlk) * 2;
    ASSERT_TRUE(e.Submit(req).ok()) << i;
    t += kMillisecond;
  }
  ASSERT_TRUE(e.Drain().ok());
  ASSERT_TRUE(e.StopRunLoops().ok());

  // Completions applied strictly in submission order.
  ASSERT_EQ(seqs.size(), 50u);
  for (u64 i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);

  ASSERT_TRUE(e.FlushAllPending(t).ok());
  EXPECT_TRUE(e.AuditAll().ok()) << e.AuditAll().ToString();

  // Every shard saw work (tiny chunks spray the LBA space).
  core::EngineStats stats = e.AggregateEngineStats();
  EXPECT_GT(stats.host_writes, 0u);
  EXPECT_GT(stats.logical_bytes_written, 0u);
  for (u32 s = 0; s < e.shards(); ++s) {
    EXPECT_GT(e.engine(s).stats().host_writes, 0u) << "shard " << s;
  }
}

TEST(ShardedEngine, SubmitAndWaitReturnsTheRightCompletion) {
  ShardedOptions so;
  so.shards = 2;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  ASSERT_TRUE(e.StartRunLoops().ok());
  for (int i = 0; i < 20; ++i) {
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = i * kMillisecond;
    req.offset = static_cast<u64>(i) * kBlk;
    req.size = static_cast<u32>(kBlk);
    auto done = e.SubmitAndWait(req);
    ASSERT_TRUE(done.ok()) << i;
    EXPECT_EQ(done->seq, static_cast<u64>(i));
    EXPECT_EQ(done->kind, OpKind::kWrite);
    EXPECT_EQ(done->submitted, i * kMillisecond);
    ASSERT_TRUE(done->status.ok());
  }
  ASSERT_TRUE(e.StopRunLoops().ok());
}

TEST(ShardedEngine, TokenBucketDelaysAdmission) {
  ShardedOptions so;
  so.shards = 2;
  so.qos.tenant_iops_cap = 100;  // 10 ms per token
  so.qos.tenant_burst = 1;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  ASSERT_TRUE(e.StartRunLoops().ok());
  std::vector<SimTime> admitted;
  e.SetCompletionCallback([&](const Completion& c) {
    admitted.push_back(c.admitted);
  });
  for (int i = 0; i < 5; ++i) {
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = 0;  // all at once: the cap spreads them out
    req.offset = static_cast<u64>(i) * kBlk;
    req.size = static_cast<u32>(kBlk);
    ASSERT_TRUE(e.Submit(req).ok());
  }
  ASSERT_TRUE(e.Drain().ok());
  ASSERT_TRUE(e.StopRunLoops().ok());
  ASSERT_EQ(admitted.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(admitted[static_cast<std::size_t>(i)],
              i * 10 * kMillisecond);
  }
}

TEST(ShardedEngine, WindowBackpressureStillAppliesInOrder) {
  ShardedOptions so;
  so.shards = 2;
  so.window = 4;  // tiny in-flight window forces applies inside Submit
  so.max_batch = 2;
  so.ring_capacity = 8;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  ASSERT_TRUE(e.StartRunLoops().ok());
  std::vector<u64> seqs;
  e.SetCompletionCallback(
      [&](const Completion& c) { seqs.push_back(c.seq); });
  for (int i = 0; i < 64; ++i) {
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = i * kMicrosecond;
    req.offset = static_cast<u64>(i % 32) * kBlk;
    req.size = static_cast<u32>(kBlk) * 3;
    ASSERT_TRUE(e.Submit(req).ok()) << i;
  }
  ASSERT_TRUE(e.Drain().ok());
  ASSERT_TRUE(e.StopRunLoops().ok());
  ASSERT_EQ(seqs.size(), 64u);
  for (u64 i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST(ShardedEngine, RestartAfterStopKeepsWorking) {
  ShardedOptions so;
  so.shards = 2;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(e.StartRunLoops().ok());
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = round * kSecond;
    req.offset = static_cast<u64>(round) * kBlk;
    req.size = static_cast<u32>(kBlk);
    auto done = e.SubmitAndWait(req);
    ASSERT_TRUE(done.ok()) << round;
    ASSERT_TRUE(e.StopRunLoops().ok());
    EXPECT_TRUE(e.AuditAll().ok());
  }
}

TEST(ShardedEngine, AggregatesDeviceStatsAcrossShards) {
  ShardedOptions so;
  so.shards = 4;
  so.chunk_blocks = 1;
  auto se = ShardedEngine::Create(so, BaseConfig());
  ASSERT_TRUE(se.ok());
  ShardedEngine& e = **se;
  ASSERT_TRUE(e.StartRunLoops().ok());
  for (int i = 0; i < 32; ++i) {
    Request req;
    req.kind = OpKind::kWrite;
    req.arrival = i * kMillisecond;
    req.offset = static_cast<u64>(i) * kBlk;
    req.size = static_cast<u32>(kBlk);
    ASSERT_TRUE(e.Submit(req).ok());
  }
  ASSERT_TRUE(e.Drain().ok());
  ASSERT_TRUE(e.StopRunLoops().ok());
  ASSERT_TRUE(e.FlushAllPending(32 * kMillisecond).ok());
  ssd::DeviceStats agg = e.AggregateDeviceStats();
  std::vector<ssd::DeviceStats> per_shard;
  for (u32 s = 0; s < e.shards(); ++s) {
    per_shard.push_back(e.device(s).stats());
  }
  EXPECT_EQ(agg, ssd::FoldParallel(per_shard));
  EXPECT_GT(agg.host_pages_written, 0u);
}

}  // namespace
}  // namespace edc::shard
