// Streaming-statistics substrate tests: QuantileSketch accuracy
// against exact quantiles on adversarial and latency-shaped
// distributions, merge/order independence, memory bounds,
// Rng::Exponential's degenerate-mean guard, and the ReservoirSampler
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/reservoir.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"

namespace fabricsim {
namespace {

// Exact q-quantile of a value multiset under the sketch's rank
// convention: the sample at rank ceil(q * n) (1-based, min rank 1).
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  size_t target = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (target == 0) target = 1;
  return values[target - 1];
}

// Asserts that the sketch reports every checked quantile within its
// documented relative-error bound of the exact quantile.
void ExpectAccurate(const QuantileSketch& sketch,
                    const std::vector<double>& values,
                    const std::string& label) {
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    double exact = ExactQuantile(values, q);
    double estimate = sketch.Percentile(q);
    SCOPED_TRACE(StrFormat("%s q=%.3f exact=%.9g est=%.9g", label.c_str(), q,
                           exact, estimate));
    if (exact <= QuantileSketch::kMinTracked) {
      // Sub-threshold values collapse into the exact zero bucket; the
      // clamp still keeps the answer inside the observed range.
      EXPECT_GE(estimate, sketch.min());
      EXPECT_LE(estimate, sketch.max());
      continue;
    }
    EXPECT_NEAR(estimate, exact, QuantileSketch::kRelativeError * exact);
  }
}

TEST(SketchTest, AccurateOnLogUniformSpan) {
  // 12 decades in one stream — the case fixed-range histograms lose.
  Rng rng(7);
  std::vector<double> values;
  QuantileSketch sketch;
  for (int i = 0; i < 20000; ++i) {
    double v = std::pow(10.0, rng.UniformRange(-3.0, 9.0));
    values.push_back(v);
    sketch.Add(v);
  }
  ExpectAccurate(sketch, values, "log-uniform");
}

TEST(SketchTest, AccurateOnHeavyTail) {
  // Pareto(alpha=0.5): infinite variance, a tail that dense buckets
  // truncate into one overflow bin.
  Rng rng(11);
  std::vector<double> values;
  QuantileSketch sketch;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.UniformDouble();
    if (u >= 1.0) u = 0.5;
    double v = std::pow(1.0 - u, -2.0);  // alpha = 0.5
    values.push_back(v);
    sketch.Add(v);
  }
  ExpectAccurate(sketch, values, "pareto");
}

TEST(SketchTest, AccurateOnBimodalWithZeros) {
  // Two far-apart modes plus exact zeros and negatives (clamped into
  // the zero bucket) — quantiles must never interpolate between modes.
  Rng rng(13);
  std::vector<double> values;
  QuantileSketch sketch;
  for (int i = 0; i < 15000; ++i) {
    double v;
    double u = rng.UniformDouble();
    if (u < 0.1) {
      v = 0.0;
    } else if (u < 0.6) {
      v = 0.01 * (1.0 + 0.001 * rng.UniformDouble());
    } else {
      v = 1e7 * (1.0 + 0.001 * rng.UniformDouble());
    }
    values.push_back(v);
    sketch.Add(v);
  }
  sketch.Add(-3.0);  // clamped: counts as zero, drags min to 0 only
  values.push_back(0.0);
  ExpectAccurate(sketch, values, "bimodal");
  // Nothing between the modes is ever reported.
  double p70 = sketch.Percentile(0.7);
  EXPECT_TRUE(p70 < 0.02 || p70 > 9e6) << p70;
}

TEST(SketchTest, AccurateOnLatencyShapedData) {
  // Exponential millisecond latencies, the shape every FailureReport
  // p50/p99 is read from: each quantile within 1 % of the exact one,
  // and the mean exact (sum/count in insertion order, not bucketed).
  Rng rng(17);
  std::vector<double> values;
  QuantileSketch sketch;
  double sum = 0;
  for (int i = 0; i < 30000; ++i) {
    double v = rng.Exponential(250.0);  // latency-ish ms
    values.push_back(v);
    sketch.Add(v);
    sum += v;
  }
  for (double q : {0.5, 0.9, 0.99}) {
    double exact = ExactQuantile(values, q);
    EXPECT_NEAR(sketch.Percentile(q), exact, 0.01 * exact);
  }
  EXPECT_EQ(sketch.mean(), sum / static_cast<double>(values.size()));
}

TEST(SketchTest, MergeEquivalentToSingleStream) {
  // Shard a stream three ways, merge, and compare against the
  // single-sketch result: bit-identical everything. The streaming
  // tracer relies on this to fold per-phase shards.
  Rng rng(19);
  QuantileSketch whole;
  QuantileSketch shards[3];
  for (int i = 0; i < 9999; ++i) {
    double v = std::pow(10.0, rng.UniformRange(-2.0, 6.0));
    whole.Add(v);
    shards[i % 3].Add(v);
  }
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) merged.Merge(shard);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.bucket_count(), whole.bucket_count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(q), whole.Percentile(q)) << q;
  }
}

TEST(SketchTest, InsertionOrderNeverMatters) {
  // Determinism contract: state is a pure function of the multiset.
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.Exponential(42.0));
  }
  QuantileSketch forward;
  for (double v : values) forward.Add(v);
  QuantileSketch backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.Add(*it);
  }
  for (double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(forward.Percentile(q), backward.Percentile(q));
  }
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_EQ(forward.bucket_count(), backward.bucket_count());
}

TEST(SketchTest, MemoryStaysBoundedUnderMillionsOfSamples) {
  // O(log(max/min)) buckets regardless of stream length: a million
  // samples across 12 decades must stay under the bucket ceiling and
  // a few tens of kilobytes.
  Rng rng(29);
  QuantileSketch sketch;
  for (int i = 0; i < 1000000; ++i) {
    sketch.Add(std::pow(10.0, rng.UniformRange(-3.0, 9.0)));
  }
  EXPECT_EQ(sketch.count(), 1000000u);
  EXPECT_LE(sketch.bucket_count(), QuantileSketch::kMaxBuckets);
  EXPECT_LT(sketch.ApproxMemoryBytes(), 200u * 1024u);
}

TEST(SketchTest, EmptyAndSingletonSketches) {
  QuantileSketch empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);

  QuantileSketch one;
  one.Add(123.456);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(one.Percentile(q), 123.456) << q;
  }
  EXPECT_EQ(one.min(), 123.456);
  EXPECT_EQ(one.max(), 123.456);
}

// --------------------------------------------- Rng::Exponential guard

TEST(SketchTest, ExponentialGuardsDegenerateMeans) {
  Rng rng(37);
  uint64_t before = Rng(37).NextU64();
  EXPECT_EQ(rng.Exponential(0.0), 0.0);
  EXPECT_EQ(rng.Exponential(-5.0), 0.0);
  EXPECT_EQ(rng.Exponential(std::nan("")), 0.0);
  // Degenerate means consume no randomness: the next draw matches a
  // fresh generator's first draw.
  EXPECT_EQ(rng.NextU64(), before);
  // Healthy means stay positive and finite.
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Exponential(2.5);
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

// -------------------------------------------------- reservoir sampler

TEST(SketchTest, ReservoirKeepsBoundedUniformSample) {
  ReservoirSampler<int> reservoir(64, /*seed=*/99);
  for (int i = 0; i < 100000; ++i) reservoir.Offer(i);
  EXPECT_EQ(reservoir.items().size(), 64u);
  EXPECT_EQ(reservoir.seen(), 100000u);
  // Roughly uniform over the stream: the retained mean sits near the
  // stream midpoint (binomial bound, generous band).
  double mean = 0.0;
  for (int v : reservoir.items()) mean += v;
  mean /= 64.0;
  EXPECT_GT(mean, 25000.0);
  EXPECT_LT(mean, 75000.0);

  // Deterministic for a fixed seed and stream.
  ReservoirSampler<int> again(64, /*seed=*/99);
  for (int i = 0; i < 100000; ++i) again.Offer(i);
  EXPECT_EQ(reservoir.items(), again.items());

  // Zero capacity stays empty without crashing.
  ReservoirSampler<int> none(0, /*seed=*/1);
  for (int i = 0; i < 100; ++i) none.Offer(i);
  EXPECT_TRUE(none.items().empty());
}

}  // namespace
}  // namespace fabricsim
