// Integration: synthetic paper traces replayed through full stacks.
// Checks functional integrity under a realistic workload and the paper's
// qualitative orderings (ratio ordering across schemes, EDC's balance).
#include <gtest/gtest.h>

#include <string>

#include "sim/replay.hpp"
#include "trace/synthetic.hpp"
#include "trace/transform.hpp"

namespace edc::sim {
namespace {

using core::ExecutionMode;
using core::Scheme;
using core::Stack;
using core::StackConfig;

StackConfig BaseConfig(Scheme scheme, ExecutionMode mode) {
  StackConfig cfg;
  cfg.scheme = scheme;
  cfg.mode = mode;
  cfg.content_profile = "fin";
  cfg.seed = 77;
  cfg.ssd.geometry.pages_per_block = 32;
  cfg.ssd.geometry.num_blocks = 2048;  // 256 MiB
  cfg.ssd.store_data = false;
  return cfg;
}

trace::Trace SmallTrace(const char* preset, double seconds) {
  auto p = trace::PresetByName(preset, seconds);
  EXPECT_TRUE(p.ok());
  // Shrink the footprint so a short functional test exercises overwrites.
  p->working_set_blocks = 4000;
  return GenerateSynthetic(*p, 11);
}

TEST(Replay, FunctionalIntegrityAcrossSchemesFin1) {
  trace::Trace t = SmallTrace("Fin1", 3.0);
  ASSERT_GT(t.records.size(), 200u);
  for (Scheme scheme : core::AllSchemes()) {
    auto stack = Stack::Create(BaseConfig(scheme, ExecutionMode::kFunctional));
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok()) << core::SchemeName(scheme) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->requests, t.records.size());

    // Every block that was ever written must read back exactly.
    core::Engine& engine = (*stack)->engine();
    std::set<Lba> blocks;
    for (const auto& r : t.records) {
      if (r.op != trace::OpType::kWrite) continue;
      for (u64 b = 0; b < r.block_count(); ++b) {
        blocks.insert(r.first_block() + b);
      }
    }
    int checked = 0;
    for (Lba b : blocks) {
      if (++checked > 400) break;  // sample; full check is O(minutes)
      auto got = engine.ReadBlockData(b);
      ASSERT_TRUE(got.ok()) << core::SchemeName(scheme) << " block " << b;
      ASSERT_EQ(*got, engine.ExpectedBlockData(b))
          << core::SchemeName(scheme) << " block " << b;
    }
  }
}

TEST(Replay, CompressionRatioOrderingMatchesPaper) {
  // Fig. 8 ordering: Bzip2 >= Gzip > EDC > Lzf... with EDC between Lzf
  // and Gzip (EDC mixes Gzip/Lzf/Store). Native == 1.
  trace::Trace t = SmallTrace("Fin1", 3.0);
  std::map<Scheme, double> ratio;
  for (Scheme scheme : core::AllSchemes()) {
    auto stack = Stack::Create(BaseConfig(scheme, ExecutionMode::kFunctional));
    ASSERT_TRUE(stack.ok());
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok());
    ratio[scheme] = result->compression_ratio;
  }
  EXPECT_DOUBLE_EQ(ratio[Scheme::kNative], 1.0);
  EXPECT_GT(ratio[Scheme::kLzf], 1.05);
  EXPECT_GE(ratio[Scheme::kGzip], ratio[Scheme::kLzf]);
  EXPECT_GE(ratio[Scheme::kBzip2], ratio[Scheme::kGzip] * 0.9);
  EXPECT_GT(ratio[Scheme::kEdc], 1.05);
}

TEST(Replay, ModeledModeRunsFastAndTracksFunctionalRatio) {
  trace::Trace t = SmallTrace("Fin2", 3.0);

  auto cfgm = BaseConfig(Scheme::kGzip, ExecutionMode::kModeled);
  cfgm.modeled_check_interval = 64;
  auto model = Stack::CalibrateCostModel(cfgm);
  ASSERT_TRUE(model.ok());

  auto modeled = Stack::Create(cfgm, *model);
  ASSERT_TRUE(modeled.ok());
  auto rm = ReplayTrace(**modeled, t);
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();

  auto functional =
      Stack::Create(BaseConfig(Scheme::kGzip, ExecutionMode::kFunctional));
  ASSERT_TRUE(functional.ok());
  auto rf = ReplayTrace(**functional, t);
  ASSERT_TRUE(rf.ok());

  EXPECT_NEAR(rm->compression_ratio, rf->compression_ratio,
              rf->compression_ratio * 0.25);
  // Drift self-check ran and stayed modest.
  EXPECT_GT(rm->engine.drift_checks, 0u);
  EXPECT_LT(rm->engine.drift_abs_error_sum /
                static_cast<double>(rm->engine.drift_checks),
            0.2);
}

TEST(Replay, ResponseTimeOrderingUnderLoad) {
  // Fig. 10 shape: Bzip2 far slower than Lzf; EDC no slower than Gzip.
  trace::Trace t = SmallTrace("Fin1", 4.0);
  auto model = Stack::CalibrateCostModel(
      BaseConfig(Scheme::kEdc, ExecutionMode::kModeled));
  ASSERT_TRUE(model.ok());

  std::map<Scheme, double> rt;
  for (Scheme scheme : core::AllSchemes()) {
    auto stack =
        Stack::Create(BaseConfig(scheme, ExecutionMode::kModeled), *model);
    ASSERT_TRUE(stack.ok());
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok());
    rt[scheme] = result->response_us.mean();
  }
  EXPECT_GT(rt[Scheme::kBzip2], rt[Scheme::kLzf] * 1.5);
  EXPECT_GT(rt[Scheme::kGzip], rt[Scheme::kLzf] * 0.9);
  EXPECT_LE(rt[Scheme::kEdc], rt[Scheme::kGzip] * 1.1);
}

TEST(Replay, Rais5RunsAllSchemes) {
  trace::Trace t = SmallTrace("Usr_0", 2.0);
  auto base = BaseConfig(Scheme::kEdc, ExecutionMode::kModeled);
  auto model = Stack::CalibrateCostModel(base);
  ASSERT_TRUE(model.ok());
  for (Scheme scheme : {Scheme::kNative, Scheme::kEdc}) {
    StackConfig cfg = BaseConfig(scheme, ExecutionMode::kModeled);
    auto& rais = cfg.device.emplace<ssd::RaisConfig>();
    rais.level = ssd::RaisLevel::kRais5;
    rais.num_disks = 5;
    rais.member = cfg.ssd;
    auto stack = Stack::Create(cfg, *model);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->requests, 100u);
    EXPECT_GT(result->device.host_pages_written, 0u);
  }
}

TEST(Replay, MaxRequestsOptionTruncates) {
  trace::Trace t = SmallTrace("Prxy_0", 2.0);
  auto stack =
      Stack::Create(BaseConfig(Scheme::kNative, ExecutionMode::kFunctional));
  ASSERT_TRUE(stack.ok());
  ReplayOptions opt;
  opt.max_requests = 50;
  auto result = ReplayTrace(**stack, t, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->requests, 50u);
}

TEST(Replay, PercentilesOrdered) {
  trace::Trace t = SmallTrace("Fin2", 2.0);
  auto stack =
      Stack::Create(BaseConfig(Scheme::kLzf, ExecutionMode::kFunctional));
  ASSERT_TRUE(stack.ok());
  auto result = ReplayTrace(**stack, t);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->p50_us, result->p95_us);
  EXPECT_LE(result->p95_us, result->p99_us);
  EXPECT_GE(result->p50_us, 0.0);
}

TEST(Replay, SpaceSavingMetric) {
  trace::Trace t = SmallTrace("Fin1", 2.0);
  auto stack =
      Stack::Create(BaseConfig(Scheme::kGzip, ExecutionMode::kFunctional));
  ASSERT_TRUE(stack.ok());
  auto result = ReplayTrace(**stack, t);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->space_saving(), 0.0);
  EXPECT_LT(result->space_saving(), 1.0);
  EXPECT_NEAR(result->space_saving(),
              1.0 - 1.0 / result->compression_ratio, 1e-9);
}


TEST(Replay, HybridFtlStackRunsEdc) {
  trace::Trace t = SmallTrace("Fin1", 2.0);
  StackConfig cfg = BaseConfig(Scheme::kEdc, ExecutionMode::kFunctional);
  cfg.ssd.ftl = ssd::FtlKind::kHybridLog;
  cfg.ssd.geometry.overprovision = 0.2;
  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok());
  auto result = ReplayTrace(**stack, t);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Spot-check functional integrity on the hybrid FTL.
  core::Engine& engine = (*stack)->engine();
  int checked = 0;
  for (const auto& r : t.records) {
    if (r.op != trace::OpType::kWrite || ++checked > 100) continue;
    Lba b = r.first_block();
    auto got = engine.ReadBlockData(b);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, engine.ExpectedBlockData(b)) << "block " << b;
  }
}

TEST(Replay, HddStackRunsAllSchemes) {
  trace::Trace base = SmallTrace("Fin2", 2.0);
  trace::Trace t = trace::TimeScale(base, 0.05);  // HDD operating range
  t.name = base.name;
  for (Scheme scheme : {Scheme::kNative, Scheme::kEdc}) {
    StackConfig cfg = BaseConfig(scheme, ExecutionMode::kFunctional);
    cfg.device.emplace<ssd::HddConfig>().num_pages = 1u << 20;
    auto stack = Stack::Create(cfg);
    ASSERT_TRUE(stack.ok());
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->requests, 100u);
  }
}

TEST(Replay, Rais0StackRuns) {
  trace::Trace t = SmallTrace("Usr_0", 1.5);
  StackConfig cfg = BaseConfig(Scheme::kLzf, ExecutionMode::kFunctional);
  auto& rais = cfg.device.emplace<ssd::RaisConfig>();
  rais.level = ssd::RaisLevel::kRais0;
  rais.num_disks = 4;
  rais.member = cfg.ssd;
  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok());
  auto result = ReplayTrace(**stack, t);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->device.host_pages_written, 0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  trace::Trace t = SmallTrace("Fin1", 1.5);
  StackConfig cfg = BaseConfig(Scheme::kEdc, ExecutionMode::kFunctional);
  auto a = Stack::Create(cfg);
  auto b = Stack::Create(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = ReplayTrace(**a, t);
  auto rb = ReplayTrace(**b, t);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->response_us.mean(), rb->response_us.mean());
  EXPECT_EQ(ra->compression_ratio, rb->compression_ratio);
  EXPECT_EQ(ra->engine.groups_written, rb->engine.groups_written);
}

void ExpectSameMoments(const RunningStats& a, const RunningStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectSameEngineStats(const core::EngineStats& a,
                           const core::EngineStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.host_writes, b.host_writes) << what;
  EXPECT_EQ(a.host_reads, b.host_reads) << what;
  EXPECT_EQ(a.logical_bytes_written, b.logical_bytes_written) << what;
  EXPECT_EQ(a.groups_written, b.groups_written) << what;
  EXPECT_EQ(a.merged_blocks, b.merged_blocks) << what;
  EXPECT_EQ(a.blocks_skipped_content, b.blocks_skipped_content) << what;
  EXPECT_EQ(a.blocks_skipped_intensity, b.blocks_skipped_intensity) << what;
  EXPECT_EQ(a.groups_by_codec, b.groups_by_codec) << what;
  EXPECT_EQ(a.compressed_bytes_total, b.compressed_bytes_total) << what;
  EXPECT_EQ(a.allocated_bytes_total, b.allocated_bytes_total) << what;
  EXPECT_EQ(a.unmapped_block_reads, b.unmapped_block_reads) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
  EXPECT_EQ(a.cpu_busy_time, b.cpu_busy_time) << what;
  EXPECT_EQ(a.journal_bytes_written, b.journal_bytes_written) << what;
  EXPECT_EQ(a.journal_checkpoints, b.journal_checkpoints) << what;
  ExpectSameMoments(a.write_latency_us, b.write_latency_us,
                    what + " engine writes");
  ExpectSameMoments(a.read_latency_us, b.read_latency_us,
                    what + " engine reads");
}

void ExpectSameDeviceStats(const ssd::DeviceStats& a,
                           const ssd::DeviceStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.host_pages_read, b.host_pages_read) << what;
  EXPECT_EQ(a.host_pages_written, b.host_pages_written) << what;
  EXPECT_EQ(a.gc_pages_copied, b.gc_pages_copied) << what;
  EXPECT_EQ(a.gc_runs, b.gc_runs) << what;
  EXPECT_EQ(a.background_reclaims, b.background_reclaims) << what;
  EXPECT_EQ(a.total_erases, b.total_erases) << what;
  EXPECT_EQ(a.max_erase_count, b.max_erase_count) << what;
  EXPECT_EQ(a.mean_erase_count, b.mean_erase_count) << what;
  EXPECT_EQ(a.waf, b.waf) << what;
  EXPECT_EQ(a.busy_time, b.busy_time) << what;
  EXPECT_EQ(a.energy_j, b.energy_j) << what;
}

// Both entry points run the same loop: at one shard and one tenant the
// sharded fabric must report exactly what the direct stack reports.
TEST(Replay, ShardedAtOneShardOneTenantMatchesDirect) {
  for (const char* preset : {"Fin1", "Prxy_0", "Fin2"}) {
    trace::Trace t = SmallTrace(preset, 2.0);
    for (Scheme scheme : {Scheme::kLzf, Scheme::kEdc}) {
      const std::string what =
          std::string(preset) + "/" + std::string(core::SchemeName(scheme));
      StackConfig cfg = BaseConfig(scheme, ExecutionMode::kFunctional);
      auto stack = Stack::Create(cfg);
      ASSERT_TRUE(stack.ok()) << what;
      auto direct = ReplayTrace(**stack, t);
      ASSERT_TRUE(direct.ok()) << what << ": " << direct.status().ToString();
      auto sharded = ReplayShardedTrace(cfg, t, ShardedReplayOptions{});
      ASSERT_TRUE(sharded.ok())
          << what << ": " << sharded.status().ToString();

      EXPECT_EQ(direct->requests, sharded->requests) << what;
      ExpectSameMoments(direct->response_us, sharded->response_us, what);
      ExpectSameMoments(direct->write_response_us,
                        sharded->write_response_us, what + " writes");
      ExpectSameMoments(direct->read_response_us, sharded->read_response_us,
                        what + " reads");
      EXPECT_EQ(direct->p50_us, sharded->p50_us) << what;
      EXPECT_EQ(direct->p95_us, sharded->p95_us) << what;
      EXPECT_EQ(direct->p99_us, sharded->p99_us) << what;
      EXPECT_EQ(direct->write_p50_us, sharded->write_p50_us) << what;
      EXPECT_EQ(direct->write_p95_us, sharded->write_p95_us) << what;
      EXPECT_EQ(direct->write_p99_us, sharded->write_p99_us) << what;
      EXPECT_EQ(direct->read_p50_us, sharded->read_p50_us) << what;
      EXPECT_EQ(direct->read_p95_us, sharded->read_p95_us) << what;
      EXPECT_EQ(direct->read_p99_us, sharded->read_p99_us) << what;
      EXPECT_EQ(direct->compression_ratio, sharded->compression_ratio)
          << what;
      ExpectSameEngineStats(direct->engine, sharded->engine, what);
      ExpectSameDeviceStats(direct->device, sharded->device, what);
    }
  }
}

// A request that fails ends the replay with its status on both paths.
// Durable Prxy_0 on a 64 MiB device with a 4-page journal outgrows a
// journal half at a checkpoint; the sharded replay used to drop that
// completion and report success.
TEST(Replay, FailedRequestFailsDirectAndShardedReplay) {
  auto preset = trace::PresetByName("Prxy_0", 5.0);
  ASSERT_TRUE(preset.ok());
  trace::Trace t = GenerateSynthetic(*preset, 42);
  StackConfig cfg;
  cfg.scheme = Scheme::kLzf;
  cfg.mode = ExecutionMode::kFunctional;
  cfg.content_profile = "prxy";
  cfg.ssd = ssd::MakeX25eConfig(64, /*store_data=*/true);
  cfg.durability.enabled = true;
  cfg.durability.journal_pages = 4;

  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok());
  auto direct = ReplayTrace(**stack, t);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kResourceExhausted)
      << direct.status().ToString();

  struct Shape {
    u32 shards, tenants;
  };
  for (Shape shape : {Shape{1, 1}, Shape{1, 2}, Shape{2, 1}}) {
    ShardedReplayOptions so;
    so.shards = shape.shards;
    so.tenants = shape.tenants;
    auto sharded = ReplayShardedTrace(cfg, t, so);
    ASSERT_FALSE(sharded.ok())
        << shape.shards << " shards, " << shape.tenants << " tenants: "
        << sharded->response_us.count() << " samples for "
        << sharded->requests << " requests";
    EXPECT_EQ(sharded.status().code(), StatusCode::kResourceExhausted)
        << sharded.status().ToString();
    if (shape.shards == 1) {
      EXPECT_EQ(sharded.status().ToString(), direct.status().ToString());
    }
  }
}

}  // namespace
}  // namespace edc::sim
