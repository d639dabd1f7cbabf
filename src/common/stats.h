#ifndef FABRICSIM_COMMON_STATS_H_
#define FABRICSIM_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>

namespace fabricsim {

/// Online mean/min/max/stddev accumulator (Welford's algorithm).
class SummaryStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  /// Merges another accumulator into this one.
  void Merge(const SummaryStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mergeable DDSketch-style quantile sketch: geometric buckets sized so
/// every reported quantile of the values above kMinTracked is within
/// kRelativeError of an actually-observed value, at O(log(max/min))
/// memory regardless of how many samples stream through. Every
/// latency quantile the simulator reports comes from one of these:
/// the commit-time ledger fold (StreamingLedgerStats) and the Tracer's
/// phase sketches, in retained and streaming runs alike.
///
/// Determinism contract: the sketch state is a pure function of the
/// multiset of added values (insertion order never matters), buckets
/// are kept in a sorted map, and queries walk them in index order — so
/// two runs that feed the same values report bit-identical quantiles.
class QuantileSketch {
 public:
  /// Documented relative-error bound for quantile values above
  /// kMinTracked, as long as no low-bucket collapse occurred (see
  /// kMaxBuckets). gamma = (1+a)/(1-a) gives |est - true| <= a * true.
  static constexpr double kRelativeError = 0.01;
  /// Values at or below this threshold land in the exact zero bucket
  /// (we track latencies in milliseconds; sub-nanosecond latencies are
  /// all "zero" for reporting purposes).
  static constexpr double kMinTracked = 1e-6;
  /// Bucket-count ceiling. ~2900 buckets span [1e-6, 1e19] at 1%
  /// error, so the cap never triggers for latencies; if a pathological
  /// stream exceeds it, the lowest buckets collapse into the zero
  /// bucket (bounded memory wins over low-tail accuracy).
  static constexpr size_t kMaxBuckets = 4096;

  void Add(double value);
  /// Merges another sketch into this one (bucket-wise counts).
  void Merge(const QuantileSketch& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Exact mean over all added values (sum/count, not bucketed).
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Approximate p-quantile (q in [0,1]), clamped to the observed
  /// [min, max]. For q*count landing in a geometric bucket the result
  /// is within kRelativeError of the true quantile value.
  double Percentile(double q) const;
  /// Bytes held by the sketch (bucket map nodes + the object itself).
  size_t ApproxMemoryBytes() const;
  /// Live bucket count (zero bucket excluded); memory is O(buckets).
  size_t bucket_count() const { return buckets_.size(); }

 private:
  int32_t IndexFor(double value) const;
  void CollapseLowest();

  /// Sorted so queries and merges iterate deterministically.
  std::map<int32_t, uint64_t> buckets_;
  uint64_t zero_count_ = 0;  ///< values <= kMinTracked (incl. clamped <0)
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_STATS_H_
