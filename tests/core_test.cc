#include <gtest/gtest.h>

#include "src/core/block_size_advisor.h"
#include "src/core/experiment.h"
#include "src/core/recommendations.h"
#include "src/core/runner.h"
#include "src/core/sweeps.h"

namespace fabricsim {
namespace {

ExperimentConfig FastConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 5 * kSecond;
  config.arrival_rate_tps = 40;
  config.repetitions = 2;
  return config;
}

TEST(ExperimentConfigTest, DefaultsMatchTable3) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  EXPECT_EQ(config.fabric.variant, FabricVariant::kFabric14);
  EXPECT_EQ(config.fabric.db_type, DatabaseType::kCouchDb);
  EXPECT_EQ(config.workload.chaincode, "ehr");
  EXPECT_EQ(config.fabric.block_size, 100u);
  EXPECT_DOUBLE_EQ(config.arrival_rate_tps, 100.0);
  EXPECT_EQ(config.fabric.cluster.num_orgs, 2);
  EXPECT_EQ(config.fabric.cluster.peers_per_org, 2);
  EXPECT_DOUBLE_EQ(config.workload.zipf_skew, 1.0);
  EXPECT_EQ(config.workload.mix, WorkloadMix::kUniform);

  ExperimentConfig c2 = ExperimentConfig::DefaultsC2();
  EXPECT_EQ(c2.fabric.cluster.num_orgs, 8);
  EXPECT_EQ(c2.fabric.cluster.peers_per_org, 4);
  EXPECT_EQ(c2.fabric.cluster.num_clients, 25);
}

TEST(ExperimentConfigTest, DescribeMentionsKeyKnobs) {
  std::string desc = ExperimentConfig::Defaults().Describe();
  EXPECT_NE(desc.find("ehr"), std::string::npos);
  EXPECT_NE(desc.find("CouchDB"), std::string::npos);
  EXPECT_NE(desc.find("bs=100"), std::string::npos);
}

TEST(MakeChaincodeForTest, AllNames) {
  for (const char* name : {"ehr", "dv", "scm", "drm", "genchain"}) {
    WorkloadConfig wc;
    wc.chaincode = name;
    EXPECT_TRUE(MakeChaincodeFor(wc).ok()) << name;
  }
  WorkloadConfig bad;
  bad.chaincode = "nope";
  EXPECT_FALSE(MakeChaincodeFor(bad).ok());
}

TEST(RunnerTest, RunsAndAverages) {
  ExperimentConfig config = FastConfig();
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().repetitions.size(), 2u);
  EXPECT_GT(result.value().mean.ledger_txs, 0u);
  // Percentages are internally consistent.
  const FailureReport& mean = result.value().mean;
  EXPECT_NEAR(mean.total_failure_pct,
              mean.endorsement_pct + mean.mvcc_pct + mean.phantom_pct +
                  mean.reorder_abort_pct,
              0.2);
}

TEST(RunnerTest, RunOnceIsDeterministic) {
  ExperimentConfig config = FastConfig();
  auto a = RunOnce(config, 99);
  auto b = RunOnce(config, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().ledger_txs, b.value().ledger_txs);
  EXPECT_DOUBLE_EQ(a.value().total_failure_pct, b.value().total_failure_pct);
}

TEST(RunnerTest, RejectsBadChaincode) {
  ExperimentConfig config = FastConfig();
  config.workload.chaincode = "bogus";
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(FailureReportTest, AverageOfIdenticalIsIdentity) {
  FailureReport r;
  r.ledger_txs = 100;
  r.total_failure_pct = 25.0;
  r.avg_latency_s = 1.5;
  FailureReport mean = FailureReport::Average({r, r, r});
  EXPECT_EQ(mean.ledger_txs, 100u);
  EXPECT_DOUBLE_EQ(mean.total_failure_pct, 25.0);
  EXPECT_DOUBLE_EQ(mean.avg_latency_s, 1.5);
}

TEST(FailureReportTest, ToStringMentionsFailures) {
  FailureReport r;
  r.ledger_txs = 10;
  r.total_failure_pct = 50.0;
  std::string s = r.ToString();
  EXPECT_NE(s.find("failures"), std::string::npos);
  EXPECT_NE(s.find("50.00%"), std::string::npos);
}

TEST(SweepsTest, BlockSizeSweepFindsExtremes) {
  ExperimentConfig config = FastConfig();
  config.repetitions = 1;
  auto points = RunSweep(config, BlockSizeSweepSpec({10, 100}));
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points.value().size(), 2u);
  BlockSizeSearch search = FindBestBlockSize(points.value());
  EXPECT_LE(search.min_failure_pct, search.max_failure_pct);
  EXPECT_NE(search.best_block_size, 0u);
}

TEST(SweepsTest, RateSweepOrdersPoints) {
  ExperimentConfig config = FastConfig();
  config.repetitions = 1;
  auto points = RunSweep(config, ArrivalRateSweepSpec({20, 60}));
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points.value().size(), 2u);
  EXPECT_DOUBLE_EQ(points.value()[0].value, 20);
  EXPECT_GT(points.value()[1].report.ledger_txs,
            points.value()[0].report.ledger_txs);
}

// ------------------------------------------------- BlockSizeAdvisor

TEST(BlockSizeAdvisorTest, DefaultSlopeWithoutObservations) {
  BlockSizeAdvisor advisor(0.5);
  EXPECT_DOUBLE_EQ(advisor.slope(), 0.5);
  EXPECT_EQ(advisor.Recommend(100), 50u);
}

TEST(BlockSizeAdvisorTest, FitsLinearRelation) {
  BlockSizeAdvisor advisor;
  // Paper Fig. 4: best block size grows ~linearly with the rate.
  advisor.AddObservation(10, 10);
  advisor.AddObservation(50, 50);
  advisor.AddObservation(100, 100);
  advisor.AddObservation(200, 200);
  EXPECT_NEAR(advisor.slope(), 1.0, 1e-9);
  EXPECT_EQ(advisor.Recommend(150), 150u);
}

TEST(BlockSizeAdvisorTest, ClampsToBounds) {
  BlockSizeAdvisor advisor(1.0);
  EXPECT_EQ(advisor.Recommend(1), advisor.min_size);
  EXPECT_EQ(advisor.Recommend(100000), advisor.max_size);
}

TEST(BlockSizeAdvisorTest, WindowBasedRecommendation) {
  BlockSizeAdvisor advisor(0.5);
  // 1200 transactions in 10 s = 120 tps -> 60.
  EXPECT_EQ(advisor.RecommendFromWindow(1200, 10.0), 60u);
  EXPECT_EQ(advisor.RecommendFromWindow(100, 0.0), advisor.min_size);
}

TEST(BlockSizeAdvisorTest, IgnoresInvalidObservations) {
  BlockSizeAdvisor advisor(0.7);
  advisor.AddObservation(0, 100);
  advisor.AddObservation(-5, 100);
  EXPECT_EQ(advisor.observation_count(), 0u);
  EXPECT_DOUBLE_EQ(advisor.slope(), 0.7);
}

// ------------------------------------------------- Recommendations

TEST(RecommendationsTest, EndorsementRuleFires) {
  ExperimentConfig config = ExperimentConfig::DefaultsC2();
  FailureReport report;
  report.ledger_txs = 100;
  report.valid_txs = 60;
  report.endorsement_pct = 20.0;
  report.total_failure_pct = 40.0;
  auto recs = DeriveRecommendations(config, report);
  bool found = false;
  for (const auto& rec : recs) found |= rec.rule == "network-design";
  EXPECT_TRUE(found);
}

TEST(RecommendationsTest, VariantRuleSuggestsReordering) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  FailureReport report;
  report.ledger_txs = 100;
  report.valid_txs = 50;
  report.mvcc_pct = 40.0;
  report.total_failure_pct = 45.0;
  auto recs = DeriveRecommendations(config, report);
  bool found = false;
  for (const auto& rec : recs) {
    if (rec.rule == "variant") {
      found = true;
      EXPECT_NE(rec.advice.find("Fabric++"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecommendationsTest, WarnsAgainstUselessReordering) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.fabric.variant = FabricVariant::kFabricPlusPlus;
  FailureReport report;
  report.ledger_txs = 100;
  report.valid_txs = 99;
  report.mvcc_pct = 0.5;
  auto recs = DeriveRecommendations(config, report);
  bool found = false;
  for (const auto& rec : recs) {
    if (rec.rule == "variant") {
      found = true;
      EXPECT_NE(rec.advice.find("overhead"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RecommendationsTest, PhantomRuleFires) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.workload.chaincode = "dv";
  FailureReport report;
  report.ledger_txs = 100;
  report.phantom_pct = 30.0;
  report.total_failure_pct = 30.0;
  auto recs = DeriveRecommendations(config, report);
  bool found = false;
  for (const auto& rec : recs) found |= rec.rule == "chaincode-design";
  EXPECT_TRUE(found);
}

TEST(RecommendationsTest, FormatNumbersEntries) {
  std::vector<Recommendation> recs = {{"a", "first"}, {"b", "second"}};
  std::string text = FormatRecommendations(recs);
  EXPECT_NE(text.find("1. [a] first"), std::string::npos);
  EXPECT_NE(text.find("2. [b] second"), std::string::npos);
  EXPECT_NE(FormatRecommendations({}).find("No recommendations"),
            std::string::npos);
}

}  // namespace
}  // namespace fabricsim
