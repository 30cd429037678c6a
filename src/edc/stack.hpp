// Stack: one fully-wired storage system under test — content generator,
// cost model, device (SSD, RAIS, HDD or NVM) and the EDC engine with a
// chosen scheme. This is the top-level object examples and benches
// construct.
//
// BuildStackParts is the one place a StackConfig becomes engine wiring;
// Stack::Create calls it for one engine and shard::ShardedEngine::Create
// for N shards.
#pragma once

#include <memory>
#include <vector>

#include "edc/engine.hpp"
#include "ssd/hdd.hpp"
#include "ssd/nvm.hpp"
#include "ssd/raid.hpp"

namespace edc::core {

struct StackConfig {
  Scheme scheme = Scheme::kEdc;
  ElasticParams elastic;
  ExecutionMode mode = ExecutionMode::kFunctional;

  /// Content profile name (datagen) driving write payloads.
  std::string content_profile = "usr";
  u64 seed = 42;

  /// Device: single SSD by default; set use_rais for an array or use_hdd
  /// for a spinning disk (the paper's future-work target).
  ssd::SsdConfig ssd = ssd::MakeX25eConfig(256, /*store_data=*/false);
  bool use_rais = false;
  ssd::RaisConfig rais;
  bool use_hdd = false;
  ssd::HddConfig hdd;
  bool use_nvm = false;
  ssd::NvmConfig nvm;

  /// SD merging is the paper's EDC feature; fixed baselines compress each
  /// request as a unit.
  bool use_seq_detector_for_edc = true;
  AllocPolicy alloc_policy = AllocPolicy::kSizeClass;
  std::size_t cache_groups = 0;  // LRU group cache (see EngineConfig)
  u32 cpu_contexts = 1;          // parallel compression contexts
  /// Real worker pool for functional-mode codec offload (non-owning; must
  /// outlive the stack). Null keeps the serial seed behaviour. See
  /// EngineConfig::compress_pool.
  WorkerPool* compress_pool = nullptr;
  MonitorConfig monitor;
  EstimatorConfig estimator;
  SeqDetectorConfig seq;
  u32 modeled_check_interval = 0;
  /// Inline StateAuditor cadence (see EngineConfig::audit_every_n_ops).
  u32 audit_every_n_ops = 0;
  /// Crash-consistent on-flash format + mapping journal. Requires
  /// functional mode and a data-retaining device (store_data = true).
  DurabilityConfig durability;
  /// Media-error budget before the engine demotes itself to uncompressed
  /// writes (see EngineConfig::breaker_error_budget). 0 disables.
  u32 breaker_error_budget = 0;
  /// Transient-unavailability read retries (see
  /// EngineConfig::read_retry_attempts / read_retry_backoff). 0 disables.
  u32 read_retry_attempts = 0;
  SimTime read_retry_backoff = 50 * kMicrosecond;
  /// Optional observability sink (non-owning; must outlive the stack).
  /// Wired into the engine and the device, and a device-stats collector is
  /// registered so snapshots carry edc_device_* metrics. Null = disabled.
  obs::Observer* obs = nullptr;
};

/// What a StackConfig wires for `n` engines: one content generator and
/// one cost model that every engine shares, the EngineConfig every engine
/// runs with, and a private device per engine.
struct StackParts {
  std::unique_ptr<datagen::ContentGenerator> generator;
  /// Null in functional mode unless the caller shared a model.
  std::shared_ptr<const CostModel> cost_model;
  EngineConfig engine;
  /// One per engine, each with 1/n of the configured raw capacity (with
  /// a floor), so n engines model the same hardware as one.
  std::vector<std::unique_ptr<ssd::Device>> devices;
};

/// Build the parts of `config` for `n` engines. Durable mode must run in
/// functional mode over a data-retaining device (store_data = true),
/// else this returns InvalidArgument. `shared_cost_model` as for
/// Stack::Create.
Result<StackParts> BuildStackParts(
    const StackConfig& config, u32 n,
    std::shared_ptr<const CostModel> shared_cost_model = nullptr);

class Stack {
 public:
  /// Build a stack: BuildStackParts for one engine, plus the device's
  /// observer hookup and edc_device_* / edc_rais_* metrics collector when
  /// `config.obs` is set. `shared_cost_model` lets callers calibrate once
  /// and reuse across schemes (calibration runs the real codecs); when
  /// null and the mode is modeled, a private model is calibrated here.
  static Result<std::unique_ptr<Stack>> Create(
      const StackConfig& config,
      std::shared_ptr<const CostModel> shared_cost_model = nullptr);

  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  ssd::Device& device() { return *device_; }
  const ssd::Device& device() const { return *device_; }
  const datagen::ContentGenerator& generator() const { return *generator_; }
  const StackConfig& config() const { return config_; }

  /// Calibrate a cost model for a config (shared across stacks). With a
  /// pool the per-codec calibration samples run in parallel (see
  /// CostModel::Calibrate for the measurement caveat).
  static Result<std::shared_ptr<const CostModel>> CalibrateCostModel(
      const StackConfig& config, WorkerPool* pool = nullptr);

 private:
  Stack() = default;

  StackConfig config_;
  std::unique_ptr<datagen::ContentGenerator> generator_;
  std::shared_ptr<const CostModel> cost_model_;
  std::unique_ptr<ssd::Device> device_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace edc::core
