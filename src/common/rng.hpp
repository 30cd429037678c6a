// PCG32 pseudo-random generator: small, fast, statistically solid and fully
// deterministic across platforms — every stochastic component (trace
// synthesis, content generation, workload sampling) is seeded explicitly.
//
// ZipfSampler is the tabled form of Pcg32::NextZipf for a fixed (n, s): it
// consumes the same draws and returns the same rank for every draw, so the
// content generator can sample its word, word-length, letter and dup-pool
// ranks without ~12 exp/log calls per draw.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/hash.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace edc {

/// PCG-XSH-RR 64/32 (O'Neill 2014).
class Pcg32 {
 public:
  explicit Pcg32(u64 seed = 0x853C49E6748FEA9Bull, u64 stream = 1)
      : state_(0), inc_((stream << 1) | 1u) {
    NextU32();
    state_ += Mix64(seed);
    NextU32();
  }

  u32 NextU32() {
    u64 old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    u32 xorshifted = static_cast<u32>(((old >> 18) ^ old) >> 27);
    u32 rot = static_cast<u32>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  u64 NextU64() {
    return (static_cast<u64>(NextU32()) << 32) | NextU32();
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  u32 NextBounded(u32 bound) {
    if (bound == 0) return 0;
    u64 m = static_cast<u64>(NextU32()) * bound;
    u32 l = static_cast<u32>(m);
    if (l < bound) {
      u32 t = (0u - bound) % bound;
      while (l < t) {
        m = static_cast<u64>(NextU32()) * bound;
        l = static_cast<u32>(m);
      }
    }
    return static_cast<u32>(m >> 32);
  }

  /// Uniform integer in [0, 2^53): 27 high bits of one draw, 26 of the
  /// next. NextDouble() is this value over 2^53, exactly.
  u64 Next53() {
    u64 a = NextU32() >> 5;  // 27 bits
    u64 b = NextU32() >> 6;  // 26 bits
    return (a << 26) | b;
  }

  /// Uniform double in [0, 1) with full 53-bit resolution.
  double NextDouble() {
    return static_cast<double>(Next53()) / 9007199254740992.0;  // / 2^53
  }

  /// Uniform double in [lo, hi).
  double NextRange(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Exponential with the given mean (inter-arrival times).
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return -mean * std::log(1.0 - u);
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic, throughput is irrelevant here).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 1e-12) u1 = 1e-12;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Lognormal with given mu/sigma of the underlying normal.
  double NextLogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * NextGaussian());
  }

  /// Pareto (heavy tail) with scale xm > 0 and shape alpha > 0.
  double NextPareto(double xm, double alpha) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return xm / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Bernoulli with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  /// The integer form of NextBool(p) for a p fixed in advance: Next53() is
  /// below ceil(p * 2^53) exactly when NextDouble() < p, so
  /// NextBelow(BoolThreshold(p)) takes the same draws and gives the same
  /// answer as NextBool(p) without the int-to-double divide.
  static constexpr u64 BoolThreshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return u64{1} << 53;
    const double scaled = p * 9007199254740992.0;  // exact: a power of 2
    const u64 floor = static_cast<u64>(scaled);
    return floor + (static_cast<double>(floor) < scaled ? 1 : 0);
  }
  bool NextBelow(u64 threshold) { return Next53() < threshold; }

  /// Integer Zipf over [0, n) with exponent s by rejection-inversion
  /// (Hörmann & Derflinger). Rebuilds H(n + 0.5) and pays ~12 exp/log per
  /// draw; a ZipfSampler built once for (n, s) gives the same ranks from
  /// the same draws far cheaper.
  u32 NextZipf(u32 n, double s);

  bool operator==(const Pcg32&) const = default;

  /// Derive an independent generator for a sub-stream (e.g. per-LBA
  /// content): deterministic function of the parent seed and the key.
  static Pcg32 Derive(u64 seed, u64 key) {
    return Pcg32(Mix64(seed ^ Mix64(key)), Mix64(key) | 1);
  }

 private:
  u64 state_;
  u64 inc_;
};

/// Rejection-inversion Zipf sampler over [0, n) with exponent s, built once
/// for a fixed (n, s) and read-only afterwards (safe to share across
/// threads; each caller brings its own Pcg32).
///
/// With H(x) = ∫ t^-s dt, a draw maps u, uniform on [H(0.5) - 1, H(n + 0.5)),
/// to the rank k = floor(H⁻¹(u) + 0.5), clamped to [1, n], and accepts it
/// when a second uniform times h_k = H(k + 0.5) - H(k - 0.5) is at most
/// p_k = k^-s. The table holds, per rank k, B_k = H(k + 0.5) (as a guard
/// band around it), h_k and p_k, each computed by the same expression as
/// NextZipf; a guide table over u finds k with a lookup and a short scan.
/// A u within the guard band of some B_k (relative 1e-9) takes the
/// closed-form H⁻¹ path instead, so every draw yields exactly NextZipf's
/// rank and both consume the same draws.
class ZipfSampler {
 public:
  /// Above this n no table is built (it would cost 36 bytes per rank) and
  /// every draw takes the closed-form path.
  static constexpr u32 kMaxTabledN = 1u << 16;

  /// `tabled = false` keeps no tables: the per-call form NextZipf uses.
  ZipfSampler(u32 n, double s, bool tabled = true);

  /// Draw a rank in [0, n): the same draws and result as rng.NextZipf(n, s).
  EDC_HOT u32 Sample(Pcg32& rng) const {
    if (n_ <= 1) return 0;
    if (s_ <= 0.0) return rng.NextBounded(n_);
    for (int iter = 0; iter < kMaxRejections; ++iter) {
      const double u = hx0_ + rng.NextDouble() * width_;
      if (table_.empty()) {
        const double k = ExactRankReal(u);
        if (rng.NextDouble() * RankMass(k) <= std::exp(-s_ * std::log(k))) {
          return static_cast<u32>(k) - 1;
        }
      } else {
        const u32 k = Rank(u);
        if (rng.NextDouble() * table_[k].h <= table_[k].p) return k - 1;
      }
    }
    return 0;  // Overwhelmingly unlikely; keep determinism over perfection.
  }

  /// The 1-based rank a draw u maps to: the table's answer, or the closed
  /// form's inside a guard band or without a table. Equals ExactRank(u).
  u32 Rank(double u) const {
    if (table_.empty()) return ExactRank(u);
    const double bucket = (u - hx0_) * guide_scale_;
    const std::size_t last = guide_.size() - 1;
    std::size_t g = 0;
    if (bucket >= static_cast<double>(last)) {
      g = last;
    } else if (bucket > 0.0) {
      g = static_cast<std::size_t>(bucket);
    }
    u32 k = guide_[g];
    while (u >= table_[k].lo) ++k;  // table_[n].lo is +inf
    // Past B_{k-1} by more than its band, below B_k by more than its band:
    // the table's k is H⁻¹'s. Otherwise ask H⁻¹ (table_[0].hi is -inf).
    if (u <= table_[k - 1].hi) return ExactRank(u);
    return k;
  }

  /// floor(H⁻¹(u) + 0.5) clamped to [1, n]: NextZipf's inversion step.
  u32 ExactRank(double u) const {
    return static_cast<u32>(ExactRankReal(u));
  }

  /// B_k = H(k + 0.5): the u at which rank k + 1 begins (k in [1, n)).
  double Boundary(u32 k) const;

 private:
  static constexpr int kMaxRejections = 128;

  struct Entry {
    double lo;  // B_k minus its guard band
    double hi;  // B_k plus its guard band
    double h;   // h_k = B_k - B_{k-1}
    double p;   // p_k = k^-s
  };

  double H(double x) const;
  double HInverse(double u) const;
  double ExactRankReal(double u) const;
  double RankMass(double k) const { return H(k + 0.5) - H(k - 0.5); }

  u32 n_;
  double s_;
  double one_minus_s_ = 0.0;
  bool log_branch_ = false;  // s == 1 to within 1e-9: H is log
  double hx0_ = 0.0;         // H(0.5) - 1, the low end of u
  double width_ = 0.0;       // H(n + 0.5) - hx0_
  double guide_scale_ = 0.0;
  std::vector<Entry> table_;  // ranks 0..n; 0 and n are sentinels
  std::vector<u32> guide_;    // first candidate rank per u bucket
};

}  // namespace edc
