// Compressibility estimation by sampling (paper §III-D, citing the
// content-based-sampling line of work [Xie et al., Harnik et al.]).
//
// The estimator never runs a full compressor over the block on the
// critical path. It samples a few windows, combines two cheap signals —
// byte-histogram entropy and the match density of a micro-LZ probe over
// the samples — and predicts the compressed-size fraction. Blocks
// predicted above the write-through threshold (75%, i.e. < 1.33x ratio)
// are stored uncompressed.
#pragma once

#include "common/types.hpp"

namespace edc::core {

/// Estimation strategy.
enum class EstimatorKind {
  /// Entropy + LZ-match-density over scattered sample windows (default;
  /// the paper's "sampling technique").
  kSampling,
  /// Actually compress a prefix of the block with the fast codec and
  /// extrapolate — more accurate, costs one small real compression.
  kPrefixProbe,
};

struct EstimatorConfig {
  EstimatorKind kind = EstimatorKind::kSampling;
  /// Number of sample windows spread evenly across the block (kSampling).
  u32 sample_windows = 4;
  /// Bytes per sample window.
  u32 window_bytes = 256;
  /// Prefix bytes compressed by kPrefixProbe.
  u32 probe_bytes = 1024;
  /// Predicted compressed fraction above which the block is treated as
  /// non-compressible (the paper's 75% rule).
  double write_through_fraction = 0.75;
  bool operator==(const EstimatorConfig&) const = default;
};

class CompressibilityEstimator {
 public:
  explicit CompressibilityEstimator(const EstimatorConfig& config = {});

  /// Predicted compressed_size / original_size in (0, 1.05].
  double EstimateCompressedFraction(ByteSpan block) const;

  /// The paper's gate: should this block be compressed at all?
  bool IsCompressible(ByteSpan block) const {
    return EstimateCompressedFraction(block) <
           config_.write_through_fraction;
  }

  const EstimatorConfig& config() const { return config_; }

 private:
  EstimatorConfig config_;
};

}  // namespace edc::core
