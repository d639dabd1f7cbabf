#include "src/common/rng.h"

#include <algorithm>
#include <cmath>

namespace fabricsim {

Rng::Rng(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  NextU32();
  state_ += seed;
  NextU32();
}

uint32_t Rng::NextU32() {
  uint64_t oldstate = state_;
  state_ = oldstate * 6364136223846793005ULL + inc_;
  uint32_t xorshifted =
      static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
  uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((-rot) & 31));
}

uint64_t Rng::NextU64() {
  return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
}

uint64_t Rng::UniformU64(uint64_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformRange(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Exponential(double mean) {
  // A non-positive (or NaN) mean has no exponential distribution; the
  // old code silently returned negative/NaN draws that wrecked event
  // scheduling downstream. Degenerate means collapse to 0 without
  // consuming randomness, so callers with a guarded rate draw the same
  // stream as before.
  if (!(mean > 0.0)) return 0.0;
  double u = UniformDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

Rng Rng::Fork(uint64_t stream_id) {
  // Derive the child's seed from our stream so forks are independent.
  uint64_t child_seed = NextU64();
  return Rng(child_seed, stream_id * 2654435761ULL + 0x9e3779b97f4a7c15ULL);
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

// Scatters a rank over [0, n) so popular keys are spread across the
// key space (same trick as YCSB's ScrambledZipfian).
uint64_t Scatter(uint64_t rank, uint64_t n) {
  uint64_t h = rank * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h % n;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  if (theta_ <= 0.0) {
    theta_ = 0.0;
    zetan_ = alpha_ = eta_ = zeta2theta_ = 0.0;
    return;
  }
  zetan_ = Zeta(n_, theta_);
  zeta2theta_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
  if (theta_ == 1.0) {
    // alpha_ is infinite: NextRank inverts the CDF by search instead.
    cdf_.reserve(n_);
    double cum = 0.0;
    for (uint64_t i = 1; i <= n_; ++i) {
      cum += 1.0 / (static_cast<double>(i) * zetan_);
      cdf_.push_back(cum);
    }
  }
}

uint64_t ZipfianGenerator::NextRank(Rng& rng) {
  if (theta_ == 0.0) return rng.UniformU64(n_);
  double u = rng.UniformDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  if (!cdf_.empty()) {
    // The first rank whose running sum reaches u; the sums never
    // decrease, so this is the rank a linear scan would stop at.
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return n_ - 1;
    return static_cast<uint64_t>(it - cdf_.begin());
  }
  uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (rank >= n_) rank = n_ - 1;
  return rank;
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  uint64_t rank = NextRank(rng);
  if (theta_ == 0.0) return rank;  // already uniform, no need to scatter
  return Scatter(rank, n_);
}

}  // namespace fabricsim
