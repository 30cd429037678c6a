// Engine-wiring builder behaviour, through both of its callers
// (Stack::Create and shard::ShardedEngine::Create): scheme wiring, shared
// cost models, device dispatch and the 1/N capacity split, durable-mode
// preconditions and configuration pass-through.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

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

enum class DeviceKind { kSsd, kRais, kHdd, kNvm };
constexpr DeviceKind kAllDeviceKinds[] = {DeviceKind::kSsd, DeviceKind::kRais,
                                          DeviceKind::kHdd, DeviceKind::kNvm};

StackConfig WithDevice(StackConfig cfg, DeviceKind kind) {
  cfg.use_rais = kind == DeviceKind::kRais;
  cfg.use_hdd = kind == DeviceKind::kHdd;
  cfg.use_nvm = kind == DeviceKind::kNvm;
  cfg.rais.member = cfg.ssd;
  cfg.hdd.num_pages = 4096;
  cfg.nvm.num_pages = 4096;
  return cfg;
}

/// Logical pages of one of `n` equal slices of `cfg`'s device, built by
/// hand: 1/n of the raw capacity, floored at 4 flash blocks (per member)
/// or 64 pages.
u64 SliceLogicalPages(const StackConfig& cfg, u32 n) {
  if (cfg.use_rais) {
    ssd::RaisConfig rc = cfg.rais;
    rc.member.geometry.num_blocks =
        std::max<u32>(4, rc.member.geometry.num_blocks / n);
    return ssd::Rais(rc).logical_pages();
  }
  if (cfg.use_hdd) {
    ssd::HddConfig hc = cfg.hdd;
    hc.num_pages = std::max<u64>(64, hc.num_pages / n);
    return ssd::Hdd(hc).logical_pages();
  }
  if (cfg.use_nvm) {
    ssd::NvmConfig nc = cfg.nvm;
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

/// Every EngineConfig field but obs and compress_pool.
void ExpectSameEngineConfig(const EngineConfig& a, const EngineConfig& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.elastic.saturate_iops, b.elastic.saturate_iops);
  EXPECT_EQ(a.elastic.busy_iops, b.elastic.busy_iops);
  EXPECT_EQ(a.elastic.busy_codec, b.elastic.busy_codec);
  EXPECT_EQ(a.elastic.idle_codec, b.elastic.idle_codec);
  EXPECT_EQ(a.monitor.window, b.monitor.window);
  EXPECT_EQ(a.monitor.update_interval, b.monitor.update_interval);
  EXPECT_EQ(a.estimator.sample_windows, b.estimator.sample_windows);
  EXPECT_EQ(a.estimator.probe_bytes, b.estimator.probe_bytes);
  EXPECT_EQ(a.seq.max_merge_blocks, b.seq.max_merge_blocks);
  EXPECT_EQ(a.seq.idle_flush_timeout, b.seq.idle_flush_timeout);
  EXPECT_EQ(a.use_seq_detector, b.use_seq_detector);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.alloc_policy, b.alloc_policy);
  EXPECT_EQ(a.cache_groups, b.cache_groups);
  EXPECT_EQ(a.cpu_contexts, b.cpu_contexts);
  EXPECT_EQ(a.modeled_check_interval, b.modeled_check_interval);
  EXPECT_EQ(a.audit_every_n_ops, b.audit_every_n_ops);
  EXPECT_EQ(a.durability.enabled, b.durability.enabled);
  EXPECT_EQ(a.durability.journal_pages, b.durability.journal_pages);
  EXPECT_EQ(a.durability.max_program_retries,
            b.durability.max_program_retries);
  EXPECT_EQ(a.durability.retry_backoff, b.durability.retry_backoff);
  EXPECT_EQ(a.read_retry_attempts, b.read_retry_attempts);
  EXPECT_EQ(a.read_retry_backoff, b.read_retry_backoff);
  EXPECT_EQ(a.breaker_error_budget, b.breaker_error_budget);
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
  for (DeviceKind kind : kAllDeviceKinds) {
    const int k = static_cast<int>(kind);
    StackConfig large = WithDevice(Base(), kind);
    // Small enough that a third of it falls below the slice floors.
    StackConfig tiny = Base();
    tiny.ssd.geometry.num_blocks = 8;
    tiny = WithDevice(tiny, kind);
    tiny.hdd.num_pages = 100;
    tiny.nvm.num_pages = 100;
    for (const StackConfig& cfg : {large, tiny}) {
      auto stack = Stack::Create(cfg);
      ASSERT_TRUE(stack.ok()) << k;
      EXPECT_GT((*stack)->device().logical_pages(), 0u);
      EXPECT_EQ((*stack)->device().logical_pages(),
                SliceLogicalPages(cfg, 1))
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
  for (DeviceKind kind : kAllDeviceKinds) {
    const int k = static_cast<int>(kind);
    StackConfig cfg = WithDevice(Base(), kind);
    cfg.durability.enabled = true;
    cfg.durability.journal_pages = 8;
    EXPECT_EQ(Stack::Create(cfg).status().code(),
              StatusCode::kInvalidArgument)
        << k;
    for (u32 n : {1u, 3u}) {
      EXPECT_EQ(CreateSharded(cfg, n).status().code(),
                StatusCode::kInvalidArgument)
          << k << " x" << n;
    }
    // The same device retaining data is accepted by both.
    cfg.ssd.store_data = true;
    cfg.rais.member.store_data = true;
    cfg.hdd.store_data = true;
    cfg.nvm.store_data = true;
    EXPECT_TRUE(Stack::Create(cfg).ok()) << k;
    for (u32 n : {1u, 3u}) {
      EXPECT_TRUE(CreateSharded(cfg, n).ok()) << k << " x" << n;
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
  cfg.scheme = Scheme::kEdc;
  cfg.cache_groups = 99;
  cfg.cpu_contexts = 3;
  cfg.alloc_policy = AllocPolicy::kExactQuanta;
  cfg.elastic.busy_iops = 123;
  cfg.elastic.saturate_iops = 4567;
  cfg.monitor.update_interval = 7 * kMillisecond;
  cfg.estimator.sample_windows = 2;
  cfg.seq.max_merge_blocks = 5;
  cfg.modeled_check_interval = 11;
  cfg.audit_every_n_ops = 13;
  cfg.ssd.store_data = true;
  cfg.durability.enabled = true;
  cfg.durability.journal_pages = 16;
  cfg.durability.max_program_retries = 2;
  cfg.breaker_error_budget = 17;
  cfg.read_retry_attempts = 19;
  cfg.read_retry_backoff = 23 * kMicrosecond;
  cfg.obs = &observer;
  cfg.compress_pool = &pool;
  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  const EngineConfig& ec = (*stack)->engine().config();
  EXPECT_EQ(ec.cache_groups, 99u);
  EXPECT_EQ(ec.cpu_contexts, 3u);
  EXPECT_EQ(ec.alloc_policy, AllocPolicy::kExactQuanta);
  EXPECT_EQ(ec.elastic.busy_iops, 123);
  EXPECT_EQ(ec.elastic.saturate_iops, 4567);
  EXPECT_EQ(ec.monitor.update_interval, 7 * kMillisecond);
  EXPECT_EQ(ec.estimator.sample_windows, 2u);
  EXPECT_EQ(ec.seq.max_merge_blocks, 5u);
  EXPECT_TRUE(ec.use_seq_detector);
  EXPECT_EQ(ec.modeled_check_interval, 11u);
  EXPECT_EQ(ec.audit_every_n_ops, 13u);
  EXPECT_TRUE(ec.durability.enabled);
  EXPECT_EQ(ec.durability.journal_pages, 16u);
  EXPECT_EQ(ec.durability.max_program_retries, 2u);
  EXPECT_EQ(ec.breaker_error_budget, 17u);
  EXPECT_EQ(ec.read_retry_attempts, 19u);
  EXPECT_EQ(ec.read_retry_backoff, 23 * kMicrosecond);
  EXPECT_EQ(ec.obs, &observer);
  EXPECT_EQ(ec.compress_pool, &pool);

  // Shard engines run the same config, minus the observer and the codec
  // offload pool.
  for (u32 n : {1u, 3u}) {
    auto sharded = CreateSharded(cfg, n);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (u32 s = 0; s < n; ++s) {
      SCOPED_TRACE(testing::Message() << "shard " << s << " of " << n);
      const EngineConfig& sc = (*sharded)->engine(s).config();
      ExpectSameEngineConfig(sc, ec);
      EXPECT_EQ(sc.obs, nullptr);
      EXPECT_EQ(sc.compress_pool, nullptr);
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
