#ifndef FABRICSIM_COMMON_RNG_H_
#define FABRICSIM_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace fabricsim {

/// PCG32 pseudo-random generator (O'Neill 2014). Small, fast and fully
/// deterministic across platforms, which the simulation relies on for
/// reproducible experiments.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same (seed, stream)
  /// produce identical sequences.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  /// Returns the next 32 random bits.
  uint32_t NextU32();

  /// Returns the next 64 random bits.
  uint64_t NextU64();

  /// Returns a uniform integer in [0, bound) without modulo bias.
  /// `bound` must be > 0.
  uint64_t UniformU64(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns a uniform double in [lo, hi).
  double UniformRange(double lo, double hi);

  /// Returns an exponentially distributed sample with the given mean.
  double Exponential(double mean);

  /// Returns a normally distributed sample (Box–Muller).
  double Normal(double mean, double stddev);

  /// Returns true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Derives a child generator with an independent stream; used to give
  /// each simulation actor its own deterministic randomness.
  Rng Fork(uint64_t stream_id);

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// Zipfian distribution over {0, ..., n-1} with exponent `theta`,
/// following the Gray et al. construction used by YCSB. theta == 0
/// degenerates to the uniform distribution. Ranks are scattered over
/// the key space via a multiplicative hash so that "popular" keys are
/// not clustered at one end, matching the paper's workload generator.
/// theta == 1 has no closed-form inverse; the generator then keeps the
/// CDF as a table of n doubles and binary-searches it.
class ZipfianGenerator {
 public:
  /// Builds a generator over `n` items (n >= 1) with skew `theta >= 0`.
  ZipfianGenerator(uint64_t n, double theta);

  /// Samples an item index in [0, n).
  uint64_t Next(Rng& rng);

  /// Samples a *rank* in [0, n): 0 is the most popular rank. Unlike
  /// Next(), ranks are not scattered.
  uint64_t NextRank(Rng& rng);

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double zeta2theta_;
  /// theta == 1 only: cdf_[i] is the running sum of the first i + 1
  /// probabilities, added in rank order.
  std::vector<double> cdf_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_RNG_H_
