// Configuration-matrix fuzz: the randomized workload of engine_fuzz_test
// replayed against *non-default* engine/device configurations — group
// cache on, multiple CPU contexts, exact-quanta and whole-page placement,
// hybrid log-block FTL, RAIS5 and HDD devices — all in functional mode
// with full read-back verification. Features must compose without
// corrupting data.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "edc/stack.hpp"

namespace edc::core {
namespace {

enum class Variant {
  kCacheAndCores,
  kExactQuanta,
  kWholePage,
  kHybridFtl,
  kRais5,
  kHdd,
  kPrefixProbeNoSd,
};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kCacheAndCores: return "cache_cores";
    case Variant::kExactQuanta: return "exact_quanta";
    case Variant::kWholePage: return "whole_page";
    case Variant::kHybridFtl: return "hybrid_ftl";
    case Variant::kRais5: return "rais5";
    case Variant::kHdd: return "hdd";
    case Variant::kPrefixProbeNoSd: return "probe_nosd";
  }
  return "?";
}

StackConfig MakeConfig(Variant v) {
  StackConfig cfg;
  cfg.scheme = Scheme::kEdc;
  cfg.mode = ExecutionMode::kFunctional;
  cfg.content_profile = "usr";
  cfg.seed = 20260707;
  cfg.ssd.geometry.pages_per_block = 16;
  cfg.ssd.geometry.num_blocks = 512;
  cfg.ssd.store_data = false;
  switch (v) {
    case Variant::kCacheAndCores:
      cfg.cache_groups = 64;
      cfg.cpu_contexts = 4;
      break;
    case Variant::kExactQuanta:
      cfg.alloc_policy = AllocPolicy::kExactQuanta;
      break;
    case Variant::kWholePage:
      cfg.alloc_policy = AllocPolicy::kWholePage;
      break;
    case Variant::kHybridFtl:
      cfg.ssd.ftl = ssd::FtlKind::kHybridLog;
      cfg.ssd.geometry.overprovision = 0.25;
      break;
    case Variant::kRais5: {
      auto& rais = cfg.device.emplace<ssd::RaisConfig>();
      rais.level = ssd::RaisLevel::kRais5;
      rais.num_disks = 5;
      rais.member = cfg.ssd;
      break;
    }
    case Variant::kHdd:
      cfg.device.emplace<ssd::HddConfig>().num_pages = 1u << 16;
      break;
    case Variant::kPrefixProbeNoSd:
      cfg.estimator.kind = EstimatorKind::kPrefixProbe;
      cfg.use_seq_detector_for_edc = false;
      break;
  }
  return cfg;
}

class ConfigMatrixFuzz : public ::testing::TestWithParam<Variant> {};

TEST_P(ConfigMatrixFuzz, RandomOpsReadBackExactly) {
  auto stack = Stack::Create(MakeConfig(GetParam()));
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  Engine& e = (*stack)->engine();

  Pcg32 rng(static_cast<u64>(GetParam()) * 31 + 5, 7);
  std::unordered_map<Lba, bool> trimmed;
  SimTime now = 0;
  const Lba kSpan = 400;

  for (int step = 0; step < 500; ++step) {
    now += FromMicros(rng.NextRange(5, 800));
    Lba first = rng.NextBounded(kSpan);
    u32 n = 1 + rng.NextBounded(6);
    if (first + n > kSpan) n = static_cast<u32>(kSpan - first);
    if (n == 0) continue;
    u32 dice = rng.NextBounded(100);
    if (dice < 60) {
      auto r = e.Write(now, first * kLogicalBlockSize,
                       n * static_cast<u32>(kLogicalBlockSize));
      ASSERT_TRUE(r.ok()) << VariantName(GetParam()) << " step " << step
                          << ": " << r.status().ToString();
      for (u32 i = 0; i < n; ++i) trimmed[first + i] = false;
    } else if (dice < 90) {
      auto r = e.Read(now, first * kLogicalBlockSize,
                      n * static_cast<u32>(kLogicalBlockSize));
      ASSERT_TRUE(r.ok()) << VariantName(GetParam()) << " step " << step;
    } else {
      auto r = e.Trim(now, first * kLogicalBlockSize,
                      n * static_cast<u32>(kLogicalBlockSize));
      ASSERT_TRUE(r.ok()) << VariantName(GetParam()) << " step " << step;
      for (u32 i = 0; i < n; ++i) trimmed[first + i] = true;
    }
  }
  ASSERT_TRUE(e.FlushPending(now).ok());

  for (const auto& [lba, was_trimmed] : trimmed) {
    auto got = e.ReadBlockData(lba);
    ASSERT_TRUE(got.ok()) << VariantName(GetParam()) << " block " << lba;
    if (was_trimmed) {
      ASSERT_EQ(*got, Bytes(kLogicalBlockSize, 0))
          << VariantName(GetParam()) << " block " << lba;
    } else {
      ASSERT_EQ(*got, e.ExpectedBlockData(lba))
          << VariantName(GetParam()) << " block " << lba;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ConfigMatrixFuzz,
    ::testing::Values(Variant::kCacheAndCores, Variant::kExactQuanta,
                      Variant::kWholePage, Variant::kHybridFtl,
                      Variant::kRais5, Variant::kHdd,
                      Variant::kPrefixProbeNoSd),
    [](const ::testing::TestParamInfo<Variant>& param_info) {
      return VariantName(param_info.param);
    });

}  // namespace
}  // namespace edc::core
