#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace fabricsim {
namespace {

// ----------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// -------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123, 5);
  Rng b(123, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(10), 10u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformU64Unbiased) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) counts[rng.UniformU64(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 5, kSamples / 50);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / kSamples, 10.0, 0.3);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  SummaryStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(21);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

// --------------------------------------------------------- Zipfian

TEST(ZipfianTest, ThetaZeroIsUniform) {
  Rng rng(23);
  ZipfianGenerator zipf(100, 0.0);
  std::vector<int> counts(100, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Next(rng)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 100, kSamples / 200);
  }
}

TEST(ZipfianTest, RanksAreMonotonicallyPopular) {
  Rng rng(29);
  ZipfianGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) counts[zipf.NextRank(rng)]++;
  // Rank 0 must dominate and the head must hold most of the mass.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[100]);
  int head = 0;
  for (int i = 0; i < 50; ++i) head += counts[i];
  EXPECT_GT(head, 200000 / 3);
}

TEST(ZipfianTest, SkewOneSupported) {
  // theta == 1 hits the alpha-infinite special case.
  Rng rng(31);
  ZipfianGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    uint64_t rank = zipf.NextRank(rng);
    ASSERT_LT(rank, 100u);
    counts[rank]++;
  }
  EXPECT_GT(counts[0], counts[50]);
}

TEST(ZipfianTest, SkewOneTableMatchesLinearScan) {
  // The linear inverse-CDF scan the theta = 1 table replaced, kept as
  // the reference: the table must return its rank for every draw.
  for (uint64_t n : {uint64_t{100}, uint64_t{12500}}) {
    double zetan = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), 1.0);
    }
    auto scan_rank = [n, zetan](Rng& rng) -> uint64_t {
      double u = rng.UniformDouble();
      double uz = u * zetan;
      if (uz < 1.0) return 0;
      if (uz < 1.0 + std::pow(0.5, 1.0)) return 1;
      double cum = 0.0;
      for (uint64_t i = 1; i <= n; ++i) {
        cum += 1.0 / (static_cast<double>(i) * zetan);
        if (u <= cum) return i - 1;
      }
      return n - 1;
    };
    Rng table_rng(43), scan_rng(43);
    ZipfianGenerator zipf(n, 1.0);
    for (int i = 0; i < 200000; ++i) {
      ASSERT_EQ(zipf.NextRank(table_rng), scan_rank(scan_rng))
          << "n=" << n << " draw " << i;
    }
  }
}

TEST(ZipfianTest, HigherSkewConcentratesMore) {
  Rng rng1(37), rng2(37);
  ZipfianGenerator mild(1000, 0.5), heavy(1000, 2.0);
  int mild_rank0 = 0, heavy_rank0 = 0;
  for (int i = 0; i < 50000; ++i) {
    if (mild.NextRank(rng1) == 0) ++mild_rank0;
    if (heavy.NextRank(rng2) == 0) ++heavy_rank0;
  }
  EXPECT_GT(heavy_rank0, mild_rank0);
}

TEST(ZipfianTest, SkewConcentrates) {
  // Through the scattered Next(), as the workloads draw: with skew 2
  // the hottest key takes a large share.
  ZipfianGenerator skewed(1000, 2.0);
  Rng rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[skewed.Next(rng)]++;
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 20000 / 10);
}

TEST(ZipfianTest, ScatterStaysInRange) {
  Rng rng(41);
  ZipfianGenerator zipf(37, 1.2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 37u);
  }
}

// ------------------------------------------------------------ Stats

TEST(SummaryStatsTest, BasicMoments) {
  SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(SummaryStatsTest, MergeMatchesCombined) {
  SummaryStats a, b, all;
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformRange(0, 100);
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

// ---------------------------------------------------------- Strings

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f %s", 3, 2.5, "z"), "x=3 y=2.5 z");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrSplit) {
  std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hi \n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, PadKeyLexicographicOrder) {
  EXPECT_EQ(PadKey(7, 4), "0007");
  EXPECT_EQ(PadKey(12345, 4), "12345");
  // Padded keys sort numerically under lexicographic comparison.
  EXPECT_LT(PadKey(9, 4), PadKey(10, 4));
  EXPECT_LT(PadKey(99, 4), PadKey(100, 4));
}

TEST(StringsTest, FnvDeterministicAndSensitive) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(MixString(MixString(1ull, "a"), "b"),
            MixString(MixString(1ull, "b"), "a"));
  EXPECT_NE(MixWord(1ull, uint64_t{2}), MixWord(1ull, uint64_t{3}));
}

// --------------------------------------------------------- SimTime

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(FromSeconds(1.5), 1500000);
  EXPECT_EQ(FromMillis(2.5), 2500);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
}

}  // namespace
}  // namespace fabricsim
