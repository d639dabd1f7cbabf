// End-to-end simulations of the full E-O-V pipeline: small, fast runs
// that check the system-level invariants the study depends on.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/experiment.h"
#include "src/core/failure_report.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/ledger/ledger_parser.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 50;
  config.repetitions = 1;
  return config;
}

// Runs one repetition and returns (report, ledger digest) for
// determinism checks.
struct RunOutput {
  FailureReport report;
  uint64_t ledger_digest = 0;
};

RunOutput RunNetwork(const ExperimentConfig& config, uint64_t seed) {
  auto chaincode = MakeChaincodeFor(config.workload).value();
  WorkloadConfig wc = config.workload;
  if (config.fabric.variant == FabricVariant::kFabricSharp) {
    wc.include_range_reads = false;
  }
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(wc, config.fabric.db_type ==
                                     DatabaseType::kCouchDb)
                    .value()));
  Environment env(seed);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  EXPECT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();

  RunOutput out;
  out.report = BuildFailureReport(*network.ledger_stats(), network.stats(),
                                  config.duration);
  uint64_t digest = 14695981039346656037ULL;
  for (const TxRecord& rec : LedgerParser::Parse(network.ledger())) {
    digest = digest * 1099511628211ULL + rec.id;
    digest = digest * 1099511628211ULL + static_cast<uint64_t>(rec.code);
    digest = digest * 1099511628211ULL + rec.block_number;
  }
  out.ledger_digest = digest;
  return out;
}

TEST(IntegrationTest, PipelineDeliversTransactions) {
  RunOutput out = RunNetwork(SmallConfig(), 1);
  // 50 tps for 10 s: several hundred transactions must reach the chain.
  EXPECT_GT(out.report.ledger_txs, 300u);
  EXPECT_GT(out.report.valid_txs, 0u);
  EXPECT_GT(out.report.avg_latency_s, 0.0);
}

TEST(IntegrationTest, DeterministicForSameSeed) {
  ExperimentConfig config = SmallConfig();
  config.duration = 5 * kSecond;
  RunOutput a = RunNetwork(config, 7);
  RunOutput b = RunNetwork(config, 7);
  EXPECT_EQ(a.ledger_digest, b.ledger_digest);
  EXPECT_EQ(a.report.ledger_txs, b.report.ledger_txs);
  EXPECT_DOUBLE_EQ(a.report.avg_latency_s, b.report.avg_latency_s);
}

TEST(IntegrationTest, DifferentSeedsDiffer) {
  ExperimentConfig config = SmallConfig();
  config.duration = 5 * kSecond;
  RunOutput a = RunNetwork(config, 7);
  RunOutput b = RunNetwork(config, 8);
  EXPECT_NE(a.ledger_digest, b.ledger_digest);
}

TEST(IntegrationTest, ContentionProducesMvccConflicts) {
  // EHR's 100-key space at 50 tps with skew must conflict (the paper
  // reports >40% for EHR at the defaults).
  RunOutput out = RunNetwork(SmallConfig(), 3);
  EXPECT_GT(out.report.mvcc_intra + out.report.mvcc_inter, 0u);
}

TEST(IntegrationTest, LargeKeySpaceAvoidsConflicts) {
  ExperimentConfig config = SmallConfig();
  config.workload.chaincode = "genchain";
  config.workload.mix = WorkloadMix::kReadHeavy;
  config.workload.zipf_skew = 0.0;
  config.workload.genchain_initial_keys = 100000;
  RunOutput out = RunNetwork(config, 3);
  EXPECT_LT(out.report.total_failure_pct, 5.0);
}

TEST(IntegrationTest, LevelDbFasterThanCouchDb) {
  ExperimentConfig config = SmallConfig();
  config.fabric.db_type = DatabaseType::kCouchDb;
  RunOutput couch = RunNetwork(config, 5);
  config.fabric.db_type = DatabaseType::kLevelDb;
  RunOutput level = RunNetwork(config, 5);
  EXPECT_LT(level.report.avg_latency_s, couch.report.avg_latency_s);
}

TEST(IntegrationTest, ReadOnlySkipOptionReducesLedgerTraffic) {
  ExperimentConfig config = SmallConfig();
  RunOutput submit_all = RunNetwork(config, 9);
  config.fabric.submit_read_only = false;
  RunOutput skip = RunNetwork(config, 9);
  EXPECT_LT(skip.report.ledger_txs, submit_all.report.ledger_txs);
  // The skipped transactions never fail, so they are read-only ones.
  EXPECT_GT(skip.report.submitted_txs, 0u);
}

TEST(IntegrationTest, StreamchainStreamsSingleTxBlocks) {
  ExperimentConfig config = SmallConfig();
  config.fabric.variant = FabricVariant::kStreamchain;
  config.arrival_rate_tps = 20;
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, true).value()));
  Environment env(11);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  ASSERT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  for (const Block& block : network.ledger().blocks()) {
    EXPECT_EQ(block.txs.size(), 1u);
    EXPECT_EQ(block.cut_reason, BlockCutReason::kStreaming);
  }
  EXPECT_GT(network.ledger().height(), 50u);
}

TEST(IntegrationTest, FabricSharpHasNoMvccFailuresOnChain) {
  ExperimentConfig config = SmallConfig();
  config.fabric.variant = FabricVariant::kFabricSharp;
  config.workload.chaincode = "genchain";
  config.workload.mix = WorkloadMix::kUpdateHeavy;
  config.workload.genchain_initial_keys = 200;  // force contention
  RunOutput out = RunNetwork(config, 13);
  EXPECT_EQ(out.report.mvcc_intra + out.report.mvcc_inter, 0u);
  EXPECT_EQ(out.report.phantom, 0u);
  // The conflicts became early aborts instead.
  EXPECT_GT(out.report.early_aborts, 0u);
}

TEST(IntegrationTest, FabricPlusPlusReducesIntraBlockConflicts) {
  ExperimentConfig config = SmallConfig();
  config.fabric.block_size = 50;
  config.workload.chaincode = "genchain";
  config.workload.mix = WorkloadMix::kUpdateHeavy;
  config.workload.zipf_skew = 1.0;
  config.workload.genchain_initial_keys = 300;
  RunOutput stock = RunNetwork(config, 17);
  config.fabric.variant = FabricVariant::kFabricPlusPlus;
  RunOutput fpp = RunNetwork(config, 17);
  // Reordering converts intra-block conflicts into commits (or cycle
  // aborts); the raw intra-block MVCC count must drop.
  EXPECT_LT(fpp.report.mvcc_intra, std::max<uint64_t>(stock.report.mvcc_intra, 1));
}

TEST(IntegrationTest, InjectedDelayIncreasesEndorsementFailures) {
  ExperimentConfig config = SmallConfig();
  config.duration = 15 * kSecond;
  RunOutput clean = RunNetwork(config, 19);
  DelayWindow window;
  window.org = 1;
  window.extra = 100 * kMillisecond;
  window.jitter = 10 * kMillisecond;
  config.fabric.faults.Delay(window);
  RunOutput delayed = RunNetwork(config, 19);
  EXPECT_GE(delayed.report.endorsement_failures,
            clean.report.endorsement_failures);
  EXPECT_GT(delayed.report.avg_latency_s, clean.report.avg_latency_s);
}

TEST(IntegrationTest, LedgerBlocksAreContiguousAndComplete) {
  RunOutput out = RunNetwork(SmallConfig(), 21);
  (void)out;
  ExperimentConfig config = SmallConfig();
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, true).value()));
  Environment env(21);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  ASSERT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  uint64_t expected = 1;
  for (const Block& block : network.ledger().blocks()) {
    EXPECT_EQ(block.number, expected++);
    EXPECT_EQ(block.results.size(), block.txs.size());
    for (const TxValidationResult& r : block.results) {
      EXPECT_NE(r.code, TxValidationCode::kNotValidated);
    }
    for (const Transaction& tx : block.txs) {
      EXPECT_GE(tx.committed_time, tx.client_submit_time);
    }
  }
  // All peers converge to the same height after drain.
  for (const auto& peer : network.peers()) {
    EXPECT_EQ(peer->committed_height(), network.ledger().height());
  }
}

TEST(IntegrationTest, InitValidatesConfig) {
  ExperimentConfig config = SmallConfig();
  config.fabric.policy_text = "1-of[Org7]";  // org 7 does not exist in C1
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, true).value()));
  Environment env(1);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  EXPECT_FALSE(network.Init().ok());
}

}  // namespace
}  // namespace fabricsim
