// Engine-wiring builder behaviour, through both of its callers
// (Stack::Create and shard::ShardedEngine::Create): scheme wiring, shared
// cost models, device dispatch and the 1/N capacity split, durable-mode
// preconditions and configuration pass-through.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <variant>
#include <vector>

#include "common/worker_pool.hpp"
#include "edc/shard.hpp"
#include "edc/stack.hpp"
#include "obs/observer.hpp"

namespace edc::core {
namespace {

StackConfig Base() {
  StackConfig cfg;
  cfg.mode = ExecutionMode::kFunctional;
  cfg.content_profile = "usr";
  cfg.ssd.geometry.num_blocks = 128;
  cfg.ssd.store_data = false;
  return cfg;
}

/// `cfg` on each device kind, in the variant's order: the single SSD, a
/// RAIS array of cfg.ssd members, and an HDD and an NVM of `pages` raw
/// pages that retain data when cfg.ssd does.
std::vector<StackConfig> OnEachDevice(const StackConfig& cfg,
                                      u64 pages = 4096) {
  std::vector<StackConfig> out(4, cfg);
  out[1].device.emplace<ssd::RaisConfig>().member = cfg.ssd;
  auto& hdd = out[2].device.emplace<ssd::HddConfig>();
  hdd.num_pages = pages;
  hdd.store_data = cfg.ssd.store_data;
  auto& nvm = out[3].device.emplace<ssd::NvmConfig>();
  nvm.num_pages = pages;
  nvm.store_data = cfg.ssd.store_data;
  return out;
}

/// Logical pages of one of `n` equal slices of `cfg`'s device, built by
/// hand: 1/n of the raw capacity, floored at 4 flash blocks (per member)
/// or 64 pages.
u64 SliceLogicalPages(const StackConfig& cfg, u32 n) {
  if (const auto* rais = std::get_if<ssd::RaisConfig>(&cfg.device)) {
    ssd::RaisConfig rc = *rais;
    rc.member.geometry.num_blocks =
        std::max<u32>(4, rc.member.geometry.num_blocks / n);
    return ssd::Rais(rc).logical_pages();
  }
  if (const auto* hdd = std::get_if<ssd::HddConfig>(&cfg.device)) {
    ssd::HddConfig hc = *hdd;
    hc.num_pages = std::max<u64>(64, hc.num_pages / n);
    return ssd::Hdd(hc).logical_pages();
  }
  if (const auto* nvm = std::get_if<ssd::NvmConfig>(&cfg.device)) {
    ssd::NvmConfig nc = *nvm;
    nc.num_pages = std::max<u64>(64, nc.num_pages / n);
    return ssd::Nvm(nc).logical_pages();
  }
  ssd::SsdConfig sc = cfg.ssd;
  sc.geometry.num_blocks = std::max<u32>(4, sc.geometry.num_blocks / n);
  return ssd::Ssd(sc).logical_pages();
}

Result<std::unique_ptr<shard::ShardedEngine>> CreateSharded(
    const StackConfig& cfg, u32 shards) {
  shard::ShardedOptions options;
  options.shards = shards;
  return shard::ShardedEngine::Create(options, cfg);
}

TEST(Stack, CreatesEverySchemeAndDeviceCombo) {
  for (Scheme scheme : AllSchemes()) {
    StackConfig cfg = Base();
    cfg.scheme = scheme;
    auto stack = Stack::Create(cfg);
    ASSERT_TRUE(stack.ok()) << SchemeName(scheme);
    EXPECT_EQ((*stack)->config().scheme, scheme);
    for (u32 n : {1u, 3u}) {
      auto sharded = CreateSharded(cfg, n);
      ASSERT_TRUE(sharded.ok()) << SchemeName(scheme) << " x" << n;
      ASSERT_EQ((*sharded)->shards(), n);
      for (u32 s = 0; s < n; ++s) {
        EXPECT_EQ((*sharded)->engine(s).config().scheme, scheme);
      }
    }
  }
  // `tiny` is small enough that a third of it falls below the floors.
  StackConfig tiny = Base();
  tiny.ssd.geometry.num_blocks = 8;
  std::vector<StackConfig> configs = OnEachDevice(Base());
  for (const StackConfig& cfg : OnEachDevice(tiny, /*pages=*/100)) {
    configs.push_back(cfg);
  }
  for (const StackConfig& cfg : configs) {
    const std::size_t k = cfg.device.index();
    auto stack = Stack::Create(cfg);
    ASSERT_TRUE(stack.ok()) << k;
    EXPECT_GT((*stack)->device().logical_pages(), 0u);
    EXPECT_EQ((*stack)->device().logical_pages(), SliceLogicalPages(cfg, 1))
        << k;
    for (u32 n : {1u, 3u}) {
      auto sharded = CreateSharded(cfg, n);
      ASSERT_TRUE(sharded.ok()) << k << " x" << n;
      const u64 expected = SliceLogicalPages(cfg, n);
      for (u32 s = 0; s < n; ++s) {
        EXPECT_EQ((*sharded)->device(s).logical_pages(), expected)
            << "device kind " << k << ", shard " << s << " of " << n;
      }
    }
  }
}

TEST(Stack, DurableRequiresFunctionalMode) {
  StackConfig cfg = Base();
  cfg.ssd.store_data = true;
  cfg.durability.enabled = true;
  cfg.mode = ExecutionMode::kModeled;
  EXPECT_EQ(Stack::Create(cfg).status().code(), StatusCode::kInvalidArgument);
  for (u32 n : {1u, 3u}) {
    EXPECT_EQ(CreateSharded(cfg, n).status().code(),
              StatusCode::kInvalidArgument)
        << n;
  }
}

TEST(Stack, DurableRequiresDataRetainingDevice) {
  // Rejected by both builders unless the device retains data.
  for (bool store_data : {false, true}) {
    StackConfig durable = Base();
    durable.ssd.store_data = store_data;
    durable.durability.enabled = true;
    durable.durability.journal_pages = 8;
    const StatusCode want =
        store_data ? StatusCode::kOk : StatusCode::kInvalidArgument;
    for (const StackConfig& cfg : OnEachDevice(durable)) {
      const std::size_t k = cfg.device.index();
      EXPECT_EQ(Stack::Create(cfg).status().code(), want) << k;
      for (u32 n : {1u, 3u}) {
        EXPECT_EQ(CreateSharded(cfg, n).status().code(), want)
            << k << " x" << n;
      }
    }
  }
}

TEST(Stack, SharedCostModelSkipsRecalibration) {
  StackConfig cfg = Base();
  cfg.mode = ExecutionMode::kModeled;
  auto model = Stack::CalibrateCostModel(cfg);
  ASSERT_TRUE(model.ok());
  // Reuse across many stacks: must construct fast (no codec runs).
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    auto stack = Stack::Create(cfg, *model);
    ASSERT_TRUE(stack.ok());
    EXPECT_EQ((*stack)->engine().config().mode, ExecutionMode::kModeled);
  }
  double s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  EXPECT_LT(s, 1.0);  // calibration alone takes multiple seconds
}

TEST(Stack, SeqDetectorOnlyForEdcByDefault) {
  StackConfig cfg = Base();
  cfg.scheme = Scheme::kLzf;
  auto lzf = Stack::Create(cfg);
  ASSERT_TRUE(lzf.ok());
  EXPECT_FALSE((*lzf)->engine().config().use_seq_detector);
  cfg.scheme = Scheme::kEdc;
  auto edcs = Stack::Create(cfg);
  ASSERT_TRUE(edcs.ok());
  EXPECT_TRUE((*edcs)->engine().config().use_seq_detector);
}

TEST(Stack, ConfigKnobsReachEngine) {
  obs::Observer observer;
  WorkerPool pool(1);
  StackConfig cfg = Base();
  // A non-default value in every EngineOptions field but `mode`: durable
  // mode needs the default functional mode, and modeled mode would
  // calibrate a cost model per engine (SharedCostModelSkipsRecalibration
  // checks that `mode` reaches the engine).
  cfg.scheme = Scheme::kGzip;
  cfg.elastic.busy_iops = 123;
  cfg.elastic.saturate_iops = 4567;
  cfg.monitor.update_interval = 7 * kMillisecond;
  cfg.estimator.sample_windows = 2;
  cfg.seq.max_merge_blocks = 5;
  cfg.alloc_policy = AllocPolicy::kExactQuanta;
  cfg.cache_groups = 99;
  cfg.cpu_contexts = 3;
  cfg.modeled_check_interval = 11;
  cfg.audit_every_n_ops = 13;
  cfg.ssd.store_data = true;
  cfg.durability.enabled = true;
  cfg.durability.journal_pages = 16;
  cfg.durability.max_program_retries = 2;
  cfg.read_retry_attempts = 19;
  cfg.read_retry_backoff = 23 * kMicrosecond;
  cfg.breaker_error_budget = 17;
  cfg.obs = &observer;
  cfg.compress_pool = &pool;
  const EngineOptions& want = cfg;

  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  const EngineConfig& ec = (*stack)->engine().config();
  EXPECT_TRUE(static_cast<const EngineOptions&>(ec) == want);
  EXPECT_FALSE(ec.use_seq_detector);  // derived: SD merging is EDC-only

  // Shard engines run the same options, minus the observer and the codec
  // offload pool.
  EngineOptions want_shard = want;
  want_shard.obs = nullptr;
  want_shard.compress_pool = nullptr;
  for (u32 n : {1u, 3u}) {
    auto sharded = CreateSharded(cfg, n);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (u32 s = 0; s < n; ++s) {
      SCOPED_TRACE(testing::Message() << "shard " << s << " of " << n);
      const EngineConfig& sc = (*sharded)->engine(s).config();
      EXPECT_TRUE(static_cast<const EngineOptions&>(sc) == want_shard);
      EXPECT_EQ(sc.use_seq_detector, ec.use_seq_detector);
    }
  }
}

TEST(Monitor, UpdateIntervalControlsSmoothing) {
  // With a huge update interval the EWMA never re-primes, so the blended
  // estimate leans on the live window; with a tiny interval it smooths.
  MonitorConfig coarse;
  coarse.update_interval = kSecond * 100;
  MonitorConfig fine;
  fine.update_interval = kMillisecond;
  WorkloadMonitor a(coarse), b(fine);
  for (int i = 0; i < 1000; ++i) {
    SimTime t = i * kMillisecond;
    a.Record(t, 4096);
    b.Record(t, 4096);
  }
  // Both converge to ~1000 IOPS; neither may be wildly off.
  EXPECT_NEAR(a.CalculatedIops(kSecond), 1000, 300);
  EXPECT_NEAR(b.CalculatedIops(kSecond), 1000, 300);
}

}  // namespace
}  // namespace edc::core
