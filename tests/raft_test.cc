// Replicated-ordering tests: healthy bootstrap without elections,
// leader crash -> election -> takeover with no lost/duplicated/
// renumbered blocks, restarted-replica catch-up, follower crashes,
// single-replica groups, client failover accounting, bitwise
// determinism across FABRICSIM_JOBS and repeated seeds, the
// fault-plan validation added for orderer crashes, and goldens for the
// variant and pause paths of the replicated ordering node.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/core/invariants.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

// Mirrors the fingerprint in fault_test.cc, extended with the ordering
// availability counters this PR adds.
std::string Fingerprint(const FailureReport& r) {
  std::string out;
  out += StrFormat(
      "ledger=%llu valid=%llu endorse=%llu mvcc_intra=%llu "
      "mvcc_inter=%llu phantom=%llu submitted=%llu app=%llu\n",
      static_cast<unsigned long long>(r.ledger_txs),
      static_cast<unsigned long long>(r.valid_txs),
      static_cast<unsigned long long>(r.endorsement_failures),
      static_cast<unsigned long long>(r.mvcc_intra),
      static_cast<unsigned long long>(r.mvcc_inter),
      static_cast<unsigned long long>(r.phantom),
      static_cast<unsigned long long>(r.submitted_txs),
      static_cast<unsigned long long>(r.app_errors));
  out += StrFormat(
      "ordering=%llu/%llu/%llu/%llu gap=%.17g\n",
      static_cast<unsigned long long>(r.orderer_elections),
      static_cast<unsigned long long>(r.orderer_leader_changes),
      static_cast<unsigned long long>(r.orderer_rebroadcasts),
      static_cast<unsigned long long>(r.orderer_broadcast_drops),
      r.max_interblock_gap_s);
  out += StrFormat("lat=%.17g/%.17g/%.17g tput=%.17g/%.17g\n", r.avg_latency_s,
                   r.p50_latency_s, r.p99_latency_s, r.committed_throughput_tps,
                   r.valid_throughput_tps);
  return out;
}

ExperimentConfig ReplicatedConfig(double tps = 50, SimTime duration_s = 10) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = duration_s * kSecond;
  config.arrival_rate_tps = tps;
  config.fabric.ordering.replicated = true;
  return config;
}

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

void ExpectDenseLedger(const BlockStore& ledger) {
  uint64_t expected = 1;
  for (const Block& block : ledger.blocks()) {
    EXPECT_EQ(block.number, expected++);
  }
}

TEST(RaftHealthyTest, BootstrapLeaderOrdersWithoutElections) {
  LiveRun run = RunLive(ReplicatedConfig(), 42);
  FabricNetwork& net = *run.network;
  ASSERT_NE(net.raft(), nullptr);
  EXPECT_EQ(net.raft()->size(), 3);
  // Replica 0 bootstraps as the term-1 leader; with healthy heartbeats
  // nobody ever times out, so a fault-free run pays no election.
  EXPECT_EQ(net.raft()->elections_started(), 0u);
  EXPECT_EQ(net.raft()->leader_changes(), 0u);
  EXPECT_EQ(net.raft()->leader_index(), 0);
  EXPECT_GT(net.raft()->delivered_blocks(), 0u);
  EXPECT_GT(net.ledger().height(), 0u);
  ExpectDenseLedger(net.ledger());
  // Quorum-committed before delivery: acks reached the clients and
  // every acked transaction is on the ledger.
  EXPECT_GT(net.acked_txs().size(), 0u);
  EXPECT_EQ(net.stats().orderer_rebroadcasts, 0u);
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RaftHealthyTest, ReplicasConvergeOnTheSameLog) {
  LiveRun run = RunLive(ReplicatedConfig(), 7);
  const RaftGroup& raft = *run.network->raft();
  const OrdererReplica* leader = raft.replica(0);
  ASSERT_EQ(leader->role(), OrdererReplica::Role::kLeader);
  for (int i = 1; i < raft.size(); ++i) {
    const OrdererReplica* follower = raft.replica(i);
    EXPECT_EQ(follower->role(), OrdererReplica::Role::kFollower);
    // Replication drains with the run: every assembled entry reached
    // every follower, term-for-term.
    ASSERT_EQ(follower->log_size(), leader->log_size()) << "replica " << i;
    for (uint64_t n = 1; n <= leader->log_size(); ++n) {
      EXPECT_EQ(follower->EntryAt(n).term, leader->EntryAt(n).term);
      EXPECT_EQ(follower->EntryAt(n).block == nullptr,
                leader->EntryAt(n).block == nullptr);
    }
    EXPECT_LE(follower->commit_index(), leader->commit_index());
  }
}

TEST(RaftFailoverTest, LeaderCrashElectsNewLeaderAndStaysDense) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/14);
  config.fabric.faults.CrashLeader(4 * kSecond);
  LiveRun run = RunLive(config, 42);
  FabricNetwork& net = *run.network;
  const RaftGroup& raft = *net.raft();

  // The crash fired, an election ran, and a different replica took
  // over and kept cutting blocks.
  ASSERT_NE(net.fault_injector(), nullptr);
  ASSERT_EQ(net.fault_injector()->events().size(), 1u);
  EXPECT_EQ(net.fault_injector()->events()[0].kind,
            FaultEventRecord::Kind::kOrdererCrash);
  EXPECT_EQ(net.fault_injector()->events()[0].subject, 0);
  EXPECT_FALSE(raft.replica(0)->alive());
  EXPECT_GE(raft.elections_started(), 1u);
  EXPECT_GE(raft.leader_changes(), 1u);
  ASSERT_GE(raft.leader_index(), 1);
  EXPECT_EQ(raft.replica(raft.leader_index())->role(),
            OrdererReplica::Role::kLeader);

  // Blocks cut before the crash and after the takeover form one dense,
  // hash-consistent chain on every peer; no acked transaction was lost
  // or committed twice.
  EXPECT_GT(net.ledger().height(), 0u);
  ExpectDenseLedger(net.ledger());
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // Clients noticed the silence and walked to the new leader.
  EXPECT_GT(net.stats().orderer_rebroadcasts, 0u);
  EXPECT_GT(net.stats().orderer_elections, 0u);
  EXPECT_GT(net.stats().orderer_leader_changes, 0u);

  // The unavailability window shows up as the widest inter-block gap.
  FailureReport fr = BuildFailureReport(*net.ledger_stats(), net.stats(),
                                        config.duration);
  EXPECT_GT(fr.max_interblock_gap_s, 0.0);
}

TEST(RaftFailoverTest, CrashedLeaderRestartsAsFollowerAndCatchesUp) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/14);
  config.fabric.faults.CrashLeader(4 * kSecond, /*restart_at=*/7 * kSecond);
  LiveRun run = RunLive(config, 42);
  FabricNetwork& net = *run.network;
  const RaftGroup& raft = *net.raft();

  ASSERT_EQ(net.fault_injector()->events().size(), 2u);
  EXPECT_EQ(net.fault_injector()->events()[1].kind,
            FaultEventRecord::Kind::kOrdererRestart);
  const OrdererReplica* old_leader = raft.replica(0);
  EXPECT_TRUE(old_leader->alive());
  EXPECT_EQ(old_leader->role(), OrdererReplica::Role::kFollower);

  // The restarted replica rejoined the new leader's log: its stable
  // log survived the crash and the leader's probing appended the rest.
  ASSERT_GE(raft.leader_index(), 1);
  const OrdererReplica* leader = raft.replica(raft.leader_index());
  EXPECT_EQ(old_leader->log_size(), leader->log_size());
  EXPECT_EQ(old_leader->current_term(), leader->current_term());

  ExpectDenseLedger(net.ledger());
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RaftFailoverTest, FollowerCrashIsInvisibleToTheService) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/10);
  config.fabric.faults.CrashOrderer(/*replica=*/2, 3 * kSecond);
  LiveRun run = RunLive(config, 42);
  FabricNetwork& net = *run.network;
  const RaftGroup& raft = *net.raft();

  // Quorum is 2 of 3: losing one follower changes nothing for clients.
  EXPECT_FALSE(raft.replica(2)->alive());
  EXPECT_EQ(raft.elections_started(), 0u);
  EXPECT_EQ(raft.leader_changes(), 0u);
  EXPECT_EQ(raft.leader_index(), 0);
  EXPECT_EQ(net.stats().orderer_broadcast_drops, 0u);
  EXPECT_GT(net.ledger().height(), 0u);
  ExpectDenseLedger(net.ledger());
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(RaftFailoverTest, SingleReplicaGroupOrdersAlone) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/6);
  config.fabric.cluster.num_orderers = 1;
  LiveRun run = RunLive(config, 11);
  FabricNetwork& net = *run.network;
  ASSERT_NE(net.raft(), nullptr);
  EXPECT_EQ(net.raft()->size(), 1);
  EXPECT_GT(net.ledger().height(), 0u);
  ExpectDenseLedger(net.ledger());
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// RunOnce runs the invariant checker unconditionally; a leader-crash
// run that passed it is the end-to-end acceptance gate.
TEST(RaftDeterminismTest, LeaderCrashRunIsReproducible) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/12);
  config.fabric.faults.CrashLeader(4 * kSecond, /*restart_at=*/8 * kSecond);
  Result<FailureReport> a = RunOnce(config, 42);
  Result<FailureReport> b = RunOnce(config, 42);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(Fingerprint(a.value()), Fingerprint(b.value()));
  EXPECT_GT(a.value().orderer_leader_changes, 0u);
}

TEST(RaftDeterminismTest, LeaderCrashIdenticalAcrossJobCounts) {
  ExperimentConfig config = ReplicatedConfig(/*tps=*/40, /*duration_s=*/8);
  config.repetitions = 3;
  config.fabric.faults.CrashLeader(3 * kSecond, /*restart_at=*/6 * kSecond);
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

// Lower election timeouts shrink the unavailability window — the
// relationship bench_ordering_failover sweeps; asserted here on two
// points so a regression fails fast in CI.
TEST(RaftFailoverTest, LowerElectionTimeoutShrinksTheGap) {
  ExperimentConfig slow = ReplicatedConfig(/*tps=*/50, /*duration_s=*/14);
  slow.fabric.faults.CrashLeader(4 * kSecond);
  // Tight client-side detection so the election term dominates the
  // unavailability window instead of the ack timeout.
  slow.fabric.block_timeout = 250 * kMillisecond;
  slow.fabric.ordering.client_ack_timeout = 1 * kSecond;
  slow.fabric.ordering.election_timeout_min = 2 * kSecond;
  slow.fabric.ordering.election_timeout_max = 4 * kSecond;
  ExperimentConfig fast = slow;
  fast.fabric.ordering.election_timeout_min = 250 * kMillisecond;
  fast.fabric.ordering.election_timeout_max = 500 * kMillisecond;
  Result<FailureReport> slow_r = RunOnce(slow, 42);
  Result<FailureReport> fast_r = RunOnce(fast, 42);
  ASSERT_TRUE(slow_r.ok()) << slow_r.status().ToString();
  ASSERT_TRUE(fast_r.ok()) << fast_r.status().ToString();
  EXPECT_LT(fast_r.value().max_interblock_gap_s,
            slow_r.value().max_interblock_gap_s);
}

TEST(RaftPlanValidationTest, ErrorsNameTheOffendingRule) {
  auto init_status = [](const ExperimentConfig& config) {
    auto chaincode = MakeChaincodeFor(config.workload).value();
    auto workload = std::shared_ptr<WorkloadGenerator>(
        std::move(MakeWorkload(config.workload, true).value()));
    Environment env(1);
    FabricNetwork network(config.fabric, &env, chaincode, workload);
    return network.Init();
  };

  // Orderer crash in compat mode: named rejection.
  ExperimentConfig compat = ExperimentConfig::Defaults();
  compat.fabric.faults.CrashLeader(1 * kSecond);
  Status st = init_status(compat);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("orderer_crash[0]"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("replicated"), std::string::npos);

  // Unknown replica: the index and window identify the rule.
  ExperimentConfig bad_replica = ReplicatedConfig();
  bad_replica.fabric.faults.CrashOrderer(/*replica=*/7, 1 * kSecond);
  st = init_status(bad_replica);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("orderer_crash[0]"), std::string::npos);
  EXPECT_NE(st.ToString().find("unknown replica"), std::string::npos);

  // Crash window overlapping a pause window on the same replica is
  // ambiguous and rejected, naming both rules.
  ExperimentConfig overlap = ReplicatedConfig();
  overlap.fabric.faults.PauseOrderer(2 * kSecond, 5 * kSecond, /*replica=*/1)
      .CrashOrderer(/*replica=*/1, 3 * kSecond, /*restart_at=*/4 * kSecond);
  st = init_status(overlap);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("orderer_crash[0]"), std::string::npos);
  EXPECT_NE(st.ToString().find("orderer_pause[0]"), std::string::npos);
  EXPECT_NE(st.ToString().find("overlaps"), std::string::npos);

  // Same windows on different replicas do not conflict.
  ExperimentConfig disjoint = ReplicatedConfig();
  disjoint.fabric.faults.PauseOrderer(2 * kSecond, 5 * kSecond, /*replica=*/1)
      .CrashOrderer(/*replica=*/2, 3 * kSecond, /*restart_at=*/4 * kSecond);
  EXPECT_TRUE(init_status(disjoint).ok());

  // Leader-targeted crash (-1) conservatively conflicts with any pause.
  ExperimentConfig leader_overlap = ReplicatedConfig();
  leader_overlap.fabric.faults
      .PauseOrderer(2 * kSecond, 5 * kSecond, /*replica=*/2)
      .CrashLeader(3 * kSecond);
  EXPECT_FALSE(init_status(leader_overlap).ok());

  // Replica-targeted pause needs replicated ordering.
  ExperimentConfig compat_pause = ExperimentConfig::Defaults();
  compat_pause.fabric.faults.PauseOrderer(1 * kSecond, 2 * kSecond,
                                          /*replica=*/1);
  st = init_status(compat_pause);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("orderer_pause[0]"), std::string::npos);
}

TEST(RaftPauseTest, ReplicaTargetedPauseBuffersWithoutElection) {
  // Pausing the leader keeps its heartbeats flowing (the process is
  // alive), so no election runs — it is the legacy hiccup, not a crash.
  ExperimentConfig config = ReplicatedConfig(/*tps=*/50, /*duration_s=*/10);
  config.fabric.faults.PauseOrderer(3 * kSecond, 5 * kSecond);
  LiveRun run = RunLive(config, 31);
  FabricNetwork& net = *run.network;
  EXPECT_EQ(net.raft()->elections_started(), 0u);
  EXPECT_EQ(net.raft()->leader_index(), 0);
  EXPECT_GT(net.raft()->replica(0)->txs_deferred_while_paused(), 0u);
  ExpectDenseLedger(net.ledger());
  ChainIntegrityReport report = CheckChainIntegrity(net);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ----------------------------------------------------------- goldens
//
// Replicated runs of the variant and pause paths every replica shares
// with the compat orderer: Fabric++ aborts at the cut, FabricSharp at
// admission and at the cut, Streamchain cuts one transaction per
// block, and a leader-targeted pause buffers ingress and re-arms the
// batch timeout. Default C1 config, 20 s at 100 tps, seed 42.

ExperimentConfig GoldenConfig() {
  return ReplicatedConfig(/*tps=*/100, /*duration_s=*/20);
}

std::string GoldenFingerprint(const FailureReport& r) {
  return Fingerprint(r) +
         StrFormat("aborts=%llu/%llu\n",
                   static_cast<unsigned long long>(r.reorder_aborts),
                   static_cast<unsigned long long>(r.early_aborts));
}

constexpr char kGoldenFabricPlusPlus[] =
    "ledger=1354 valid=1218 endorse=6 mvcc_intra=0 mvcc_inter=130 "
    "phantom=0 submitted=1992 app=0\n"
    "ordering=0/0/0/0 gap=2.006748\n"
    "lat=0.71872768906942375/0.67527306301220713/2.0287067818024185 "
    "tput=65.099999999999994/60.899999999999999\n"
    "aborts=638/0\n";
constexpr char kGoldenFabricSharp[] =
    "ledger=1159 valid=1093 endorse=66 mvcc_intra=0 mvcc_inter=0 "
    "phantom=0 submitted=1992 app=0\n"
    "ordering=0/0/0/0 gap=2.0098769999999999\n"
    "lat=0.7867359499568588/0.74629463879487412/1.7992943072637748 "
    "tput=55.25/54.649999999999999\n"
    "aborts=0/833\n";
constexpr char kGoldenStreamchain[] =
    "ledger=1992 valid=1798 endorse=6 mvcc_intra=0 mvcc_inter=188 "
    "phantom=0 submitted=1992 app=0\n"
    "ordering=0/0/0/0 gap=0.085069000000000006\n"
    "lat=0.041611433734939723/0.03790265419265041/0.093228283147708549 "
    "tput=99.049999999999997/89.900000000000006\n"
    "aborts=0/0\n";
constexpr char kGoldenLeaderPause[] =
    "ledger=1992 valid=852 endorse=14 mvcc_intra=729 mvcc_inter=397 "
    "phantom=0 submitted=1992 app=0\n"
    "ordering=0/0/0/0 gap=2.9625300000000001\n"
    "lat=0.96771664457831363/0.84144822157990351/2.9665842422608586 "
    "tput=95/42.600000000000001\n"
    "aborts=0/0\n";

std::string RunGolden(const ExperimentConfig& config) {
  Result<FailureReport> r = RunOnce(config, 42);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? GoldenFingerprint(r.value()) : std::string();
}

TEST(RaftGoldenTest, FabricPlusPlusReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.variant = FabricVariant::kFabricPlusPlus;
  EXPECT_EQ(RunGolden(config), kGoldenFabricPlusPlus);
}

TEST(RaftGoldenTest, FabricSharpReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.variant = FabricVariant::kFabricSharp;
  EXPECT_EQ(RunGolden(config), kGoldenFabricSharp);
}

TEST(RaftGoldenTest, StreamchainReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.variant = FabricVariant::kStreamchain;
  EXPECT_EQ(RunGolden(config), kGoldenStreamchain);
}

TEST(RaftGoldenTest, LeaderPauseReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.faults.PauseOrderer(3 * kSecond, 5 * kSecond);
  EXPECT_EQ(RunGolden(config), kGoldenLeaderPause);
}

}  // namespace
}  // namespace fabricsim
