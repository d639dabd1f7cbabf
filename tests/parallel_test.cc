#include "src/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/core/runner.h"
#include "src/core/sweeps.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// Saves and restores the global job count so tests can flip it freely.
class JobsGuard {
 public:
  JobsGuard() : saved_(ParallelJobs()) {}
  ~JobsGuard() { SetParallelJobs(saved_); }

 private:
  int saved_;
};

// ------------------------------------------------------ ParallelFor

TEST(ParallelForTest, EmptyJobListIsANoOp) {
  int calls = 0;
  ParallelFor(0, 4, [&calls](size_t) { ++calls; });
  ParallelFor(0, 1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, CoversEveryIndexOnceWithMoreJobsThanThreads) {
  constexpr size_t kN = 257;  // deliberately not a multiple of 4
  // jobs = 0 is clamped to the serial path.
  for (int jobs : {0, 4}) {
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(kN, jobs, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(ParallelForTest, PropagatesExceptionFromJob) {
  auto throwing = [](size_t i) {
    if (i == 7) throw std::runtime_error("job 7 failed");
  };
  EXPECT_THROW(ParallelFor(32, 4, throwing), std::runtime_error);
  EXPECT_THROW(ParallelFor(32, 1, throwing), std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestIndexException) {
  // All jobs throw; the serial path fails at index 0 first, and the
  // parallel path must surface the same (lowest-index) error.
  for (int jobs : {1, 4}) {
    try {
      ParallelFor(16, jobs, [](size_t i) {
        throw std::runtime_error("job " + std::to_string(i));
      });
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 0") << "jobs=" << jobs;
    }
  }
}

// -------------------------------------------- Determinism regression
//
// The headline guarantee of the parallel runner: FABRICSIM_JOBS=N
// produces bitwise-identical per-repetition reports to the serial
// path, which in turn matches per-seed RunOnce calls.

ExperimentConfig SmallC1() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 5 * kSecond;
  config.arrival_rate_tps = 40;
  config.repetitions = 3;
  return config;
}

ExperimentConfig SmallC2() {
  ExperimentConfig config = ExperimentConfig::DefaultsC2();
  config.duration = 4 * kSecond;
  config.arrival_rate_tps = 30;
  config.repetitions = 2;
  return config;
}

// Every field, per-channel slices included: each repetition is a
// deterministic function of (config, seed). On a mismatch the two
// fingerprints show which fields differ.
void ExpectReportsIdentical(const FailureReport& a, const FailureReport& b) {
  EXPECT_TRUE(a == b) << FingerprintWithChannels(a) << "vs\n"
                      << FingerprintWithChannels(b);
}

void CheckParallelMatchesSerial(const ExperimentConfig& config) {
  JobsGuard guard;

  // Ground truth: one RunOnce per seed, fully serial.
  std::vector<FailureReport> expected;
  for (int i = 0; i < config.repetitions; ++i) {
    Result<FailureReport> report =
        RunOnce(config, config.base_seed + static_cast<uint64_t>(i));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    expected.push_back(std::move(report).value());
  }

  for (int jobs : {1, 4}) {
    SetParallelJobs(jobs);
    Result<ExperimentResult> result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().repetitions.size(), expected.size())
        << "jobs=" << jobs;
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " repetition=" +
                   std::to_string(i));
      ExpectReportsIdentical(expected[i], result.value().repetitions[i]);
    }
  }
}

TEST(ParallelDeterminismTest, C1RepetitionsMatchSerialRunOnce) {
  CheckParallelMatchesSerial(SmallC1());
}

TEST(ParallelDeterminismTest, C2RepetitionsMatchSerialRunOnce) {
  CheckParallelMatchesSerial(SmallC2());
}

// scm's queryStock runs CouchDB rich queries, which fill each replica's
// field index from a const read path; under TSan this shows that no
// replica is shared between runner threads.
TEST(ParallelDeterminismTest, RichQueryRepetitionsMatchSerialRunOnce) {
  ExperimentConfig config = SmallC1();
  config.workload.chaincode = "scm";
  CheckParallelMatchesSerial(config);
}

TEST(ParallelDeterminismTest, SweepIsIdenticalAcrossJobCounts) {
  JobsGuard guard;
  ExperimentConfig config = SmallC1();
  config.repetitions = 2;
  const std::vector<uint32_t> sizes = {10, 50, 100};

  SetParallelJobs(1);
  Result<std::vector<SweepPoint>> serial =
      RunSweep(config, BlockSizeSweepSpec(sizes));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SetParallelJobs(4);
  Result<std::vector<SweepPoint>> parallel =
      RunSweep(config, BlockSizeSweepSpec(sizes));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial.value().size(), parallel.value().size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE("block size " + std::to_string(sizes[i]));
    EXPECT_DOUBLE_EQ(serial.value()[i].value, parallel.value()[i].value);
    ExpectReportsIdentical(serial.value()[i].report,
                           parallel.value()[i].report);
  }
}

TEST(ParallelDeterminismTest, ErrorsMatchSerialFirstFailure) {
  JobsGuard guard;
  ExperimentConfig config = SmallC1();
  config.workload.chaincode = "bogus";
  SetParallelJobs(4);
  Result<ExperimentResult> result = RunExperiment(config);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace fabricsim
