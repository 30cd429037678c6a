#include "common/rng.hpp"

#include <limits>

namespace edc {
namespace {

// Half-width of the guard band around each B_k, relative to B_k. H⁻¹(u)
// moves by at least ~0.4 of u's relative change near a boundary, so outside
// the band the table's rank and the closed form's cannot differ by
// rounding, which is ~1e-15 relative.
constexpr double kBoundaryRelTol = 1e-9;

}  // namespace

ZipfSampler::ZipfSampler(u32 n, double s, bool tabled) : n_(n), s_(s) {
  if (n_ <= 1 || s_ <= 0.0) return;  // Sample() never inverts H here
  one_minus_s_ = 1.0 - s_;
  log_branch_ = std::abs(one_minus_s_) < 1e-9;
  hx0_ = H(0.5) - 1.0;
  width_ = H(static_cast<double>(n_) + 0.5) - hx0_;
  if (!tabled || n_ > kMaxTabledN) return;

  // H = (x^(1-s) - 1) / (1-s) loses absolute precision ~eps / |1-s| to
  // the subtraction; widen the band by that for s close to (but not
  // within 1e-9 of) 1.
  const double abs_tol = log_branch_ ? 0.0 : 1e-13 / std::abs(one_minus_s_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  table_.resize(static_cast<std::size_t>(n_) + 1);
  table_[0] = Entry{-kInf, -kInf, 0.0, 0.0};
  double prev = H(0.5);  // B_0
  for (u32 k = 1; k <= n_; ++k) {
    const double kd = static_cast<double>(k);
    // H(k - 0.5) is H((k - 1) + 0.5) = B_{k-1} bit for bit (both
    // arguments are exact), so h_k is NextZipf's subtraction.
    const double b = H(kd + 0.5);
    const double band = kBoundaryRelTol * std::abs(b) + abs_tol;
    table_[k] = Entry{b - band, b + band, b - prev,
                      std::exp(-s_ * std::log(kd))};
    prev = b;
  }
  // B_n is the top of u's range, not a boundary: H⁻¹ clamps past it.
  table_[n_].lo = kInf;

  // Guide bucket g starts at the first rank whose band lies wholly at or
  // above the bucket's low edge. Expected scan length is n / buckets.
  const std::size_t buckets = n_;
  guide_.resize(buckets);
  guide_scale_ = static_cast<double>(buckets) / width_;
  u32 k = 1;
  for (std::size_t g = 0; g < buckets; ++g) {
    const double edge = hx0_ + static_cast<double>(g) / guide_scale_;
    while (k < n_ && table_[k].hi < edge) ++k;
    guide_[g] = k;
  }
}

double ZipfSampler::Boundary(u32 k) const {
  return H(static_cast<double>(k) + 0.5);
}

double ZipfSampler::H(double x) const {
  const double log_x = std::log(x);
  if (log_branch_) return log_x;
  return (std::exp(one_minus_s_ * log_x) - 1.0) / one_minus_s_;
}

double ZipfSampler::HInverse(double u) const {
  if (log_branch_) return std::exp(u);
  return std::exp(std::log1p(u * one_minus_s_) / one_minus_s_);
}

double ZipfSampler::ExactRankReal(double u) const {
  const double nd = static_cast<double>(n_);
  double k = std::floor(HInverse(u) + 0.5);
  if (k < 1.0) k = 1.0;
  if (k > nd) k = nd;
  return k;
}

u32 Pcg32::NextZipf(u32 n, double s) {
  return ZipfSampler(n, s, /*tabled=*/false).Sample(*this);
}

}  // namespace edc
