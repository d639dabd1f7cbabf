#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/chaincode/stub.h"
#include "src/core/experiment.h"
#include "src/peer/committer.h"
#include "src/statedb/memory_state_db.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

// ---------------------------------------------------- Workload mixes

TEST(WorkloadMixTest, Names) {
  EXPECT_STREQ(WorkloadMixToString(WorkloadMix::kUniform), "Uniform");
  EXPECT_STREQ(WorkloadMixToString(WorkloadMix::kRangeHeavy), "RangeHeavy");
}

std::map<std::string, int> SampleFunctions(WorkloadGenerator& gen, int n) {
  Rng rng(7);
  std::map<std::string, int> counts;
  for (int i = 0; i < n; ++i) counts[gen.Next(rng).function]++;
  return counts;
}

TEST(PaperWorkloadsTest, GenChainUniformMix) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kUniform;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  auto counts = SampleFunctions(*gen.value(), 10000);
  EXPECT_EQ(counts.size(), 5u);
  for (auto& [fn, c] : counts) {
    EXPECT_NEAR(c, 2000, 300) << fn;
  }
}

TEST(PaperWorkloadsTest, GenChainUpdateHeavyMix) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kUpdateHeavy;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  auto counts = SampleFunctions(*gen.value(), 10000);
  // 80% updates, 5% each of the other four types (paper §4.4).
  EXPECT_NEAR(counts["updateKeys"], 8000, 400);
  EXPECT_NEAR(counts["readKeys"], 500, 200);
  EXPECT_NEAR(counts["rangeReadKeys"], 500, 200);
}

TEST(PaperWorkloadsTest, GenChainInsertsAreUnique) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kInsertHeavy;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  Rng rng(9);
  std::set<std::string> insert_keys;
  for (int i = 0; i < 5000; ++i) {
    Invocation inv = gen.value()->Next(rng);
    if (inv.function != "insertKeys") continue;
    EXPECT_TRUE(insert_keys.insert(inv.args[0]).second)
        << "duplicate insert key " << inv.args[0];
  }
  EXPECT_GT(insert_keys.size(), 3000u);
}

TEST(PaperWorkloadsTest, GenChainDeletesAreUnique) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kDeleteHeavy;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  Rng rng(10);
  std::set<std::string> delete_keys;
  for (int i = 0; i < 5000; ++i) {
    Invocation inv = gen.value()->Next(rng);
    if (inv.function != "deleteKeys") continue;
    EXPECT_TRUE(delete_keys.insert(inv.args[0]).second);
  }
}

TEST(PaperWorkloadsTest, GenChainStaticKeySpaceHasNoMutations) {
  // genchain_mutations = false drops insertKeys (which mints a fresh
  // key per call, growing every replica's state without bound on long
  // runs) and deleteKeys from the mix, leaving only functions that
  // touch the bootstrapped key range. bench_scale_ceiling relies on
  // this to keep the world state byte-stable for a simulated hour.
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kUniform;
  config.genchain_mutations = false;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  auto counts = SampleFunctions(*gen.value(), 6000);
  EXPECT_EQ(counts.size(), 3u);
  EXPECT_GT(counts["readKeys"], 0);
  EXPECT_GT(counts["updateKeys"], 0);
  EXPECT_GT(counts["rangeReadKeys"], 0);
  EXPECT_EQ(counts.count("insertKeys"), 0u);
  EXPECT_EQ(counts.count("deleteKeys"), 0u);
}

TEST(PaperWorkloadsTest, GenChainRangeSizes) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kRangeHeavy;
  config.range_sizes = {2, 4, 8};
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  Rng rng(11);
  std::set<long long> lengths;
  for (int i = 0; i < 2000; ++i) {
    Invocation inv = gen.value()->Next(rng);
    if (inv.function != "rangeReadKeys") continue;
    long long start = std::stoll(inv.args[0].substr(2));
    long long end = std::stoll(inv.args[1].substr(2));
    lengths.insert(end - start);
  }
  EXPECT_EQ(lengths, (std::set<long long>{2, 4, 8}));
}

TEST(PaperWorkloadsTest, GenChainRefusesRangesLongerThanTheKeySpace) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.genchain_initial_keys = 4;
  config.range_sizes = {8};  // would start below key 0 and wrap around
  Result<std::unique_ptr<WorkloadGenerator>> gen = MakeWorkload(config, true);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument);
  config.range_sizes = {2, -1};
  EXPECT_EQ(MakeWorkload(config, true).status().code(),
            StatusCode::kInvalidArgument);
  config.range_sizes = {4};  // the whole key space is a valid range
  EXPECT_TRUE(MakeWorkload(config, true).ok());
}

TEST(PaperWorkloadsTest, ExcludeRangeReadsForFabricSharp) {
  WorkloadConfig config;
  config.chaincode = "genchain";
  config.mix = WorkloadMix::kUniform;
  config.include_range_reads = false;
  auto gen = MakeWorkload(config, true);
  ASSERT_TRUE(gen.ok());
  auto counts = SampleFunctions(*gen.value(), 4000);
  EXPECT_EQ(counts.count("rangeReadKeys"), 0u);
}

TEST(PaperWorkloadsTest, UnknownChaincodeRejected) {
  WorkloadConfig config;
  config.chaincode = "bogus";
  EXPECT_FALSE(MakeWorkload(config, true).ok());
}

TEST(PaperWorkloadsTest, LevelDbExcludesRichFunctions) {
  for (const char* cc : {"scm", "drm"}) {
    WorkloadConfig config;
    config.chaincode = cc;
    auto gen = MakeWorkload(config, /*rich=*/false);
    ASSERT_TRUE(gen.ok());
    auto counts = SampleFunctions(*gen.value(), 3000);
    EXPECT_EQ(counts.count("queryStock"), 0u) << cc;
    EXPECT_EQ(counts.count("calcRevenue"), 0u) << cc;
  }
}

// Every generated invocation must execute cleanly against a
// bootstrapped world state (argument conventions match the chaincode).
class WorkloadValidityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadValidityTest, GeneratedInvocationsExecute) {
  WorkloadConfig config;
  config.chaincode = GetParam();
  config.zipf_skew = 1.0;
  auto chaincode = MakeChaincodeFor(config);
  ASSERT_TRUE(chaincode.ok());
  auto gen = MakeWorkload(config, /*rich=*/true);
  ASSERT_TRUE(gen.ok());

  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, chaincode.value()->BootstrapState()).ok());
  Rng rng(13);
  int failures = 0;
  for (int i = 0; i < 300; ++i) {
    Invocation inv = gen.value()->Next(rng);
    ChaincodeStub stub(db, true);
    Status st = chaincode.value()->Invoke(stub, inv);
    if (!st.ok()) ++failures;
  }
  // The open-loop generator may occasionally reference stale state
  // (e.g. SCM after unloads), but the vast majority must execute.
  EXPECT_LE(failures, 3) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllChaincodes, WorkloadValidityTest,
                         ::testing::Values("ehr", "dv", "scm", "drm",
                                           "genchain"));

}  // namespace
}  // namespace fabricsim
