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
#include <variant>
#include <vector>

#include "edc/engine.hpp"
#include "ssd/hdd.hpp"
#include "ssd/nvm.hpp"
#include "ssd/raid.hpp"

namespace edc::core {

/// A stack's settings: the engine's own (EngineOptions, taken as is)
/// plus what the stack builds around it.
struct StackConfig : EngineOptions {
  /// Content profile name (datagen) driving write payloads.
  std::string content_profile = "usr";
  u64 seed = 42;

  /// The single SSD, used only while `device` holds std::monostate.
  ssd::SsdConfig ssd = ssd::MakeX25eConfig(256, /*store_data=*/false);
  /// Device kind: std::monostate (the default) is the single SSD above;
  /// otherwise a RAIS array, a spinning disk (the paper's future-work
  /// target) or byte-addressable NVM.
  std::variant<std::monostate, ssd::RaisConfig, ssd::HddConfig,
               ssd::NvmConfig>
      device;

  /// SD merging is the paper's EDC feature; fixed baselines compress each
  /// request as a unit. The engine's use_seq_detector is derived from this
  /// and the scheme.
  bool use_seq_detector_for_edc = true;
  /// Deleted so that comparing two StackConfigs cannot slice to
  /// EngineOptions and skip the fields above.
  bool operator==(const StackConfig&) const = delete;
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
