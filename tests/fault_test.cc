// Fault-injection subsystem tests: empty-plan bitwise identity against
// pre-PR golden fingerprints, DelayWindow equivalence with the legacy
// delayed_org knob, determinism across FABRICSIM_JOBS under an active
// fault mix, crash/restart catch-up correctness, orderer pause/resume,
// plan validation, and the retry-amplification experiment.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/core/invariants.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/statedb/memory_state_db.h"
#include "src/workload/paper_workloads.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// Golden fingerprints recorded against the tree BEFORE the fault
// subsystem existed (default C1 config, 20 s at 100 tps, seed 42).
// An empty FaultPlan must keep reproducing these byte-for-byte: the
// fault layer is required to be a strict no-op when unused — no extra
// RNG draws, no extra events, no perturbed fork streams.
constexpr char kGoldenDefault[] =
    "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
    "lat=0.79166268968969022/0.75911118027396884/2.02848615705734 "
    "tput=95/44.450000000000003\n";

// Same config with the paper's Fig. 16 chaos: 100 ± 10 ms injected on
// org 1, recorded through the legacy delayed_org knob pre-PR. Both the
// legacy knob and the DelayWindow rewiring must reproduce it exactly.
constexpr char kGoldenDelayedOrg[] =
    "ledger=1998 valid=794 endorse=134 mvcc_intra=556 mvcc_inter=514 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=60.26026026026026/6.706706706706707/53.553553553553556/0/0\n"
    "lat=0.98395471171171112/0.95217126197147772/2.2089206563091031 "
    "tput=95/39.700000000000003\n";

ExperimentConfig GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 20 * kSecond;
  config.arrival_rate_tps = 100;
  return config;
}

TEST(FaultGoldenTest, EmptyPlanReproducesPrePrFingerprint) {
  Result<FailureReport> r = RunOnce(GoldenConfig(), 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenDefault);
}

TEST(FaultGoldenTest, LegacyDelayedOrgKnobStillReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.delayed_org = 1;
  config.fabric.injected_delay = 100 * kMillisecond;
  config.fabric.injected_delay_jitter = 10 * kMillisecond;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenDelayedOrg);
}

// The Fig. 16 rewiring: a whole-run DelayWindow over org 1 must be
// draw-for-draw identical to the legacy delayed_org construction path.
TEST(FaultGoldenTest, DelayWindowMatchesLegacyDelayedOrg) {
  ExperimentConfig config = GoldenConfig();
  DelayWindow window;
  window.org = 1;
  window.extra = 100 * kMillisecond;
  window.jitter = 10 * kMillisecond;
  config.fabric.faults.Delay(window);
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenDelayedOrg);
}

// A chaos mix exercising every fault type plus client retries and
// MVCC resubmission. Used for the jobs-determinism check.
ExperimentConfig ChaosConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 8 * kSecond;
  config.arrival_rate_tps = 60;
  config.repetitions = 3;
  config.fabric.retry.endorse_timeout = 400 * kMillisecond;
  config.fabric.retry.max_endorse_retries = 2;
  config.fabric.retry.resubmit_on_mvcc = true;
  DelayWindow window;
  window.org = 1;
  window.extra = 50 * kMillisecond;
  window.jitter = 5 * kMillisecond;
  window.from = 2 * kSecond;
  window.to = 5 * kSecond;
  LinkFaultRule lossy;  // orderer <-> first client, 5% loss mid-run
  lossy.a = 0;
  lossy.b = 5;
  lossy.drop_prob = 0.05;
  lossy.from = 2 * kSecond;
  lossy.to = 6 * kSecond;
  config.fabric.faults.Delay(window)
      .Crash(/*peer=*/1, 3 * kSecond, /*restart_at=*/5 * kSecond)
      .PauseOrderer(4 * kSecond, 4500 * kMillisecond)
      .DropLink(lossy);
  return config;
}

TEST(FaultDeterminismTest, IdenticalAcrossJobCountsUnderActiveFaults) {
  ExperimentConfig config = ChaosConfig();
  SetParallelJobs(1);
  Result<ExperimentResult> serial = RunExperiment(config);
  SetParallelJobs(4);
  Result<ExperimentResult> parallel = RunExperiment(config);
  ParallelJobsFromEnv();  // restore the ambient setting for later tests
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial.value().repetitions.size(),
            parallel.value().repetitions.size());
  for (size_t i = 0; i < serial.value().repetitions.size(); ++i) {
    EXPECT_EQ(Fingerprint(serial.value().repetitions[i]),
              Fingerprint(parallel.value().repetitions[i]))
        << "repetition " << i;
  }
  EXPECT_EQ(Fingerprint(serial.value().mean),
            Fingerprint(parallel.value().mean));
}

// Builds a live network so actor state (peers, orderer, injector) can
// be inspected after the run.
struct LiveRun {
  std::unique_ptr<Environment> env;
  std::unique_ptr<FabricNetwork> network;
};

LiveRun RunLive(const ExperimentConfig& config, uint64_t seed) {
  LiveRun run;
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload, /*rich=*/true).value()));
  run.env = std::make_unique<Environment>(seed);
  run.network = std::make_unique<FabricNetwork>(config.fabric, run.env.get(),
                                                chaincode, workload);
  EXPECT_TRUE(run.network->Init().ok());
  run.network->StartLoad(config.arrival_rate_tps, config.duration);
  run.env->RunAll();
  return run;
}

// The world state after a serial replay of `ledger`'s blocks
// 1..height over the workload's bootstrap state: what a peer at that
// committed height must read.
std::vector<StateEntry> ReplayedState(const ExperimentConfig& config,
                                      const BlockStore& ledger,
                                      uint64_t height) {
  MemoryStateDb replay;
  EXPECT_TRUE(ApplyBootstrap(replay, MakeChaincodeFor(config.workload)
                                         .value()
                                         ->BootstrapState())
                  .ok());
  for (const Block& block : ledger.blocks()) {
    if (block.number > height) break;
    for (size_t i = 0; i < block.txs.size(); ++i) {
      if (block.results[i].code != TxValidationCode::kValid) continue;
      std::vector<std::pair<WriteItem, Version>> updates;
      for (const WriteItem& write : block.txs[i].rwset.writes) {
        updates.emplace_back(write,
                             Version{block.number, static_cast<uint32_t>(i)});
      }
      EXPECT_TRUE(CommitStateUpdates(replay, updates).ok());
    }
  }
  return replay.Scan();
}

void ExpectPeerState(const Peer& peer, const std::vector<StateEntry>& want) {
  std::vector<StateEntry> got = peer.state().Scan();
  ASSERT_EQ(got.size(), want.size()) << "peer " << peer.id();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "peer " << peer.id();
    EXPECT_EQ(got[i].vv.value, want[i].vv.value) << got[i].key;
    EXPECT_EQ(got[i].vv.version, want[i].vv.version) << got[i].key;
  }
}

TEST(FaultCrashTest, RestartedPeerCatchesUpToHealthyReplicas) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 50;
  // Retries let transactions routed to the dead peer complete via the
  // org's next round-robin peer instead of hanging forever.
  config.fabric.retry.endorse_timeout = 500 * kMillisecond;
  config.fabric.faults.Crash(/*peer=*/1, 3 * kSecond,
                             /*restart_at=*/6 * kSecond);
  LiveRun run = RunLive(config, 23);
  FabricNetwork& net = *run.network;

  ASSERT_NE(net.fault_injector(), nullptr);
  const std::vector<FaultEventRecord>& events = net.fault_injector()->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultEventRecord::Kind::kPeerCrash);
  EXPECT_EQ(events[0].at, 3 * kSecond);
  EXPECT_EQ(events[1].kind, FaultEventRecord::Kind::kPeerRestart);
  EXPECT_EQ(events[1].at, 6 * kSecond);

  const Peer& crashed = *net.peers()[1];
  EXPECT_TRUE(crashed.alive());
  EXPECT_GT(crashed.blocks_replayed(), 0u);
  EXPECT_GT(crashed.proposals_dropped() + crashed.blocks_dropped(), 0u);
  EXPECT_GT(net.stats().endorse_retries, 0u);

  // Every peer — including the crashed-then-restarted one — ends at
  // the canonical height, reading what a serial replay of the
  // canonical ledger holds.
  ASSERT_GT(net.ledger().height(), 0u);
  const std::vector<StateEntry> replayed =
      ReplayedState(config, net.ledger(), net.ledger().height());
  for (const auto& peer : net.peers()) {
    EXPECT_EQ(peer->committed_height(), net.ledger().height())
        << "peer " << peer->id();
    ExpectPeerState(*peer, replayed);
  }
}

TEST(FaultCrashTest, PeerDeadForRestOfRunStaysBehind) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 6 * kSecond;
  config.arrival_rate_tps = 50;
  config.fabric.retry.endorse_timeout = 500 * kMillisecond;
  config.fabric.faults.Crash(/*peer=*/3, 2 * kSecond);  // never restarts
  LiveRun run = RunLive(config, 29);
  const Peer& dead = *run.network->peers()[3];
  EXPECT_FALSE(dead.alive());
  EXPECT_GT(dead.blocks_dropped(), 0u);
  const uint64_t height = dead.committed_height();
  EXPECT_LT(height, run.network->ledger().height());

  // The dead peer still reads the world state as of its own height:
  // a serial replay of the canonical ledger up to that height.
  ExpectPeerState(dead, ReplayedState(config, run.network->ledger(), height));
  // It pins the before-images of every block above its height.
  const ChannelState& shared = dead.state().source();
  EXPECT_EQ(shared.undo_records(), shared.height() - height);
}

TEST(FaultCrashTest, AckedCheckCoversEveryIdWhenTheReferencePeerDies) {
  // Replicated ordering acks every ordered transaction. Peer 0, whose
  // commits feed the recorded ledger, dies for the rest of the run, so
  // that ledger stops early — yet every acked id is checked against
  // the channel's commit record, which the surviving peers extend.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 6 * kSecond;
  config.arrival_rate_tps = 50;
  config.fabric.ordering.replicated = true;
  config.fabric.retry.endorse_timeout = 500 * kMillisecond;
  config.fabric.faults.Crash(/*peer=*/0, 2 * kSecond);  // never restarts
  LiveRun run = RunLive(config, 29);
  const FabricNetwork& net = *run.network;
  EXPECT_FALSE(net.peers()[0]->alive());
  const ChannelState& channel = net.channel_state(0);
  EXPECT_LT(net.ledger().height(), channel.height());

  std::set<TxId> on_ledger;
  for (const Block& block : net.ledger().blocks()) {
    for (const Transaction& tx : block.txs) on_ledger.insert(tx.id);
  }
  ASSERT_GT(net.acked_txs().size(), 0u);
  size_t past_ledger = 0;
  for (TxId id : net.acked_txs()) {
    EXPECT_TRUE(channel.committed(id)) << "acked tx " << id;
    if (on_ledger.count(id) == 0) ++past_ledger;
  }
  EXPECT_GT(past_ledger, 0u);
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FaultOrdererTest, PauseBuffersAndResumeDrainsInOrder) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 8 * kSecond;
  config.arrival_rate_tps = 50;
  config.fabric.faults.PauseOrderer(2 * kSecond, 4 * kSecond);
  LiveRun run = RunLive(config, 31);
  FabricNetwork& net = *run.network;

  EXPECT_FALSE(net.orderer().paused());
  EXPECT_GT(net.orderer().txs_deferred_while_paused(), 0u);
  ASSERT_EQ(net.fault_injector()->events().size(), 2u);
  EXPECT_EQ(net.fault_injector()->events()[0].kind,
            FaultEventRecord::Kind::kOrdererPause);
  EXPECT_EQ(net.fault_injector()->events()[1].kind,
            FaultEventRecord::Kind::kOrdererResume);

  // Nothing is lost: the buffered envelopes are ordered after resume
  // and the chain stays dense.
  uint64_t expected = 1;
  for (const Block& block : net.ledger().blocks()) {
    EXPECT_EQ(block.number, expected++);
  }
  for (const auto& peer : net.peers()) {
    EXPECT_EQ(peer->committed_height(), net.ledger().height());
  }
}

TEST(FaultPartitionTest, HardPartitionDropsMessagesDeterministically) {
  // Partition the orderer from org 1's peers mid-run: block deliveries
  // into that org are dropped during the window. There is no
  // retransmit in the model, so org 1's delivery pipeline stalls at
  // the first lost block — its peers keep endorsing on stale state,
  // which is exactly the silent-degradation mode the paper describes.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 6 * kSecond;
  config.arrival_rate_tps = 100;
  config.fabric.faults.Partition(/*side_a=*/{0}, /*side_b=*/{3, 4},
                                 2 * kSecond, 3 * kSecond);
  LiveRun a = RunLive(config, 37);
  LiveRun b = RunLive(config, 37);
  EXPECT_GT(a.network->net().messages_dropped(), 0u);
  EXPECT_EQ(a.network->net().messages_dropped(),
            b.network->net().messages_dropped());
  EXPECT_EQ(Fingerprint(BuildFailureReport(a.network->ledger(),
                                           a.network->stats(),
                                           config.duration)),
            Fingerprint(BuildFailureReport(b.network->ledger(),
                                           b.network->stats(),
                                           config.duration)));
}

TEST(FaultPlanTest, InstallRejectsInvalidPlans) {
  ExperimentConfig base = ExperimentConfig::Defaults();
  base.duration = 1 * kSecond;
  auto expect_init = [&](const FaultPlan& plan, bool ok) {
    ExperimentConfig config = base;
    config.fabric.faults = plan;
    auto chaincode = MakeChaincodeFor(config.workload).value();
    auto workload = std::shared_ptr<WorkloadGenerator>(
        std::move(MakeWorkload(config.workload, true).value()));
    Environment env(1);
    FabricNetwork network(config.fabric, &env, chaincode, workload);
    EXPECT_EQ(network.Init().ok(), ok);
  };

  expect_init(FaultPlan{}.Crash(/*peer=*/99, 1 * kSecond), false);
  expect_init(FaultPlan{}.Crash(/*peer=*/1, 2 * kSecond, 1 * kSecond), false);
  expect_init(FaultPlan{}.PauseOrderer(2 * kSecond, 1 * kSecond), false);

  DelayWindow both;  // org and node are mutually exclusive
  both.org = 0;
  both.node = 1;
  both.extra = kMillisecond;
  expect_init(FaultPlan{}.Delay(both), false);

  DelayWindow inverted;
  inverted.org = 0;
  inverted.extra = kMillisecond;
  inverted.from = 2 * kSecond;
  inverted.to = 1 * kSecond;
  expect_init(FaultPlan{}.Delay(inverted), false);

  LinkFaultRule bad_prob;
  bad_prob.a = 0;
  bad_prob.b = 1;
  bad_prob.drop_prob = 1.5;
  expect_init(FaultPlan{}.DropLink(bad_prob), false);

  DelayWindow good;
  good.org = 1;
  good.extra = kMillisecond;
  expect_init(FaultPlan{}.Delay(good), true);
}

TEST(FaultPlanTest, NeedsFaultRngOnlyForProbabilisticRules) {
  EXPECT_FALSE(FaultPlan{}.NeedsFaultRng());
  FaultPlan hard;
  hard.Partition({0}, {1}, 0, kSecond);  // p = 1: no randomness
  EXPECT_FALSE(hard.NeedsFaultRng());
  LinkFaultRule lossy;
  lossy.a = 0;
  lossy.b = 1;
  lossy.drop_prob = 0.5;
  FaultPlan soft;
  soft.DropLink(lossy);
  EXPECT_TRUE(soft.NeedsFaultRng());
}

// The paper-motivated loop: resubmitting MVCC-failed transactions
// feeds contended writes back into the pipeline, raising the MVCC
// conflict share instead of masking it.
TEST(RetryAmplificationTest, ResubmissionRaisesMvccConflictShare) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 100;
  Result<FailureReport> baseline = RunOnce(config, 42);
  ASSERT_TRUE(baseline.ok());

  config.fabric.retry.resubmit_on_mvcc = true;
  config.fabric.retry.max_resubmits = 2;
  Result<FailureReport> amplified = RunOnce(config, 42);
  ASSERT_TRUE(amplified.ok());

  EXPECT_EQ(baseline.value().resubmissions, 0u);
  EXPECT_GT(amplified.value().resubmissions, 0u);
  // Resubmissions add load: more transactions reach the ledger, and
  // the extra attempts hit the same hot keys.
  EXPECT_GT(amplified.value().ledger_txs, baseline.value().ledger_txs);
  EXPECT_GT(amplified.value().mvcc_intra + amplified.value().mvcc_inter,
            baseline.value().mvcc_intra + baseline.value().mvcc_inter);
}

}  // namespace
}  // namespace fabricsim
