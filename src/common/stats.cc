#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace fabricsim {

void SummaryStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double SummaryStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

void SummaryStats::Merge(const SummaryStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  size_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.count_) /
                            static_cast<double>(n);
  m2_ = m2_ + other.m2_ +
        delta * delta * static_cast<double>(count_) *
            static_cast<double>(other.count_) / static_cast<double>(n);
  mean_ = mean;
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {
// gamma and 1/ln(gamma) for the sketch's geometric buckets. Bucket i
// covers (kMinTracked * gamma^(i-1), kMinTracked * gamma^i]; the
// mid-estimate 2*gamma^i/(gamma+1) is within kRelativeError of every
// value in the bucket.
constexpr double kGamma = (1.0 + QuantileSketch::kRelativeError) /
                          (1.0 - QuantileSketch::kRelativeError);
const double kInvLogGamma = 1.0 / std::log(kGamma);

double SketchBucketEstimate(int32_t index) {
  return QuantileSketch::kMinTracked *
         std::pow(kGamma, static_cast<double>(index)) * 2.0 / (kGamma + 1.0);
}
}  // namespace

int32_t QuantileSketch::IndexFor(double value) const {
  // ceil(log_gamma(v / kMinTracked)); value > kMinTracked here.
  double idx = std::ceil(std::log(value / kMinTracked) * kInvLogGamma);
  return static_cast<int32_t>(idx);
}

void QuantileSketch::Add(double value) {
  if (value < 0 || !std::isfinite(value)) value = 0;
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = count_ == 0 ? value : std::max(max_, value);
  ++count_;
  sum_ += value;
  if (value <= kMinTracked) {
    ++zero_count_;
    return;
  }
  ++buckets_[IndexFor(value)];
  if (buckets_.size() > kMaxBuckets) CollapseLowest();
}

void QuantileSketch::CollapseLowest() {
  // Fold the lowest bucket into the zero bucket: bounded memory at the
  // cost of low-tail accuracy, which only a pathological value range
  // (> ~25 decades) can trigger.
  auto lowest = buckets_.begin();
  zero_count_ += lowest->second;
  buckets_.erase(lowest);
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (const auto& [index, n] : other.buckets_) {
    buckets_[index] += n;
    if (buckets_.size() > kMaxBuckets) CollapseLowest();
  }
}

double QuantileSketch::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank walk: the smallest bucket whose cumulative count reaches
  // ceil(q * count) holds the q-quantile sample; report its
  // mid-estimate clamped to the observed range.
  uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t cum = zero_count_;
  if (target <= cum) return min_;
  for (const auto& [index, n] : buckets_) {
    cum += n;
    if (cum >= target) {
      return std::clamp(SketchBucketEstimate(index), min_, max_);
    }
  }
  return max_;
}

size_t QuantileSketch::ApproxMemoryBytes() const {
  // Red-black tree node: key+value plus three pointers and color.
  constexpr size_t kNodeBytes =
      sizeof(int32_t) + sizeof(uint64_t) + 4 * sizeof(void*);
  return sizeof(*this) + buckets_.size() * kNodeBytes;
}

}  // namespace fabricsim
