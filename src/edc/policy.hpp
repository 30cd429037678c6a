// Compression policies: Native (never compress), Fixed (the always-on
// single-codec baselines the paper compares against) and Elastic — the
// paper's contribution: pick the codec from the calculated-IOPS band and
// skip compression for blocks the estimator predicts non-compressible.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "datagen/profile.hpp"

namespace edc::core {

/// Everything a policy may consult for one compression decision.
struct PolicyInputs {
  double calculated_iops = 0;        // from the WorkloadMonitor
  double est_compressed_fraction = 1.0;  // from the estimator (1.0 = none)
  u32 group_blocks = 1;              // size of the (merged) write group
  /// Device queue backlog at decision time (Fig. 6 feedback signal):
  /// how long a request submitted now would wait before service starts.
  SimTime device_backlog = 0;
  /// Optional semantic hint about the content class (the paper's
  /// future-work "file type information"); -1 when unavailable.
  int content_hint = -1;  // datagen::ChunkKind when >= 0
};

struct PolicyDecision {
  codec::CodecId codec = codec::CodecId::kStore;
  /// Why Store was chosen (for stats): saturated vs. non-compressible.
  bool skipped_for_intensity = false;
  bool skipped_for_content = false;
};

class CompressionPolicy {
 public:
  virtual ~CompressionPolicy() = default;
  virtual PolicyDecision Choose(const PolicyInputs& in) const = 0;
  virtual std::string_view name() const = 0;
};

/// Native: write-through, never compress.
class NativePolicy final : public CompressionPolicy {
 public:
  PolicyDecision Choose(const PolicyInputs&) const override {
    return PolicyDecision{};
  }
  std::string_view name() const override { return "native"; }
};

/// Fixed: one codec for every block, regardless of load or content —
/// the paper's model of existing products.
class FixedPolicy final : public CompressionPolicy {
 public:
  explicit FixedPolicy(codec::CodecId codec) : codec_(codec) {}
  PolicyDecision Choose(const PolicyInputs&) const override {
    PolicyDecision d;
    d.codec = codec_;
    return d;
  }
  std::string_view name() const override {
    return codec::CodecName(codec_);
  }

 private:
  codec::CodecId codec_;
};

struct ElasticParams {
  /// Calculated-IOPS thresholds (4 KiB page units/second).
  /// iops >= saturate_iops          -> Store (skip compression)
  /// busy_iops <= iops < saturate   -> busy_codec (fast / low ratio)
  /// iops < busy_iops               -> idle_codec (slow / high ratio)
  /// Defaults sit inside the paper workloads' dynamic range: their idle
  /// valleys run at tens of page-IOPS and their ON bursts at 1-3 k, so
  /// bursts compress with the fast codec and the heaviest bursts write
  /// through (the paper's elastic behaviour).
  double saturate_iops = 3000;
  double busy_iops = 600;
  codec::CodecId busy_codec = codec::CodecId::kLzf;
  codec::CodecId idle_codec = codec::CodecId::kGzip;
  /// Estimator gate: predicted compressed fraction at or above this writes
  /// through uncompressed (the paper's 75% rule).
  double write_through_fraction = 0.75;
  bool use_estimator = true;

  /// Fig. 6 feedback: when the device backlog exceeds this, behave as if
  /// saturated (write through) regardless of arrival-rate bands; half of
  /// it escalates idle->busy codec. 0 disables the feedback path.
  SimTime backlog_saturate = 0;

  /// Future-work "file type" hints: when a content hint is present,
  /// kRandom-class data writes through without sampling and kZero/kRuns
  /// data always uses the high-ratio codec (it compresses almost for
  /// free at any speed).
  bool use_content_hints = false;
  bool operator==(const ElasticParams&) const = default;
};

class ElasticPolicy final : public CompressionPolicy {
 public:
  explicit ElasticPolicy(const ElasticParams& params = {})
      : params_(params) {}

  PolicyDecision Choose(const PolicyInputs& in) const override;
  std::string_view name() const override { return "edc"; }
  const ElasticParams& params() const { return params_; }

 private:
  ElasticParams params_;
};

/// The paper's five evaluated schemes.
enum class Scheme { kNative, kLzf, kGzip, kBzip2, kEdc };

std::string_view SchemeName(Scheme scheme);
Result<Scheme> SchemeFromName(std::string_view name);
std::vector<Scheme> AllSchemes();

/// Build the policy for a scheme (EDC takes its elastic parameters).
std::unique_ptr<CompressionPolicy> MakePolicy(Scheme scheme,
                                              const ElasticParams& edc = {});

}  // namespace edc::core
