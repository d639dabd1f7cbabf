// Multi-channel subsystem tests: single-channel bitwise identity
// against pre-channel golden fingerprints (compat and replicated
// ordering, report and trace export, FABRICSIM_JOBS=1 vs 4),
// ChannelWorkPool semantics (WorkQueue degeneration, per-channel
// serialization, worker budget, FIFO interference), per-channel
// chaincode namespaces, channel affinity (pinning, skew, the no-draw
// contract), fault composition across channels, per-channel failure
// breakdowns, and the versioned artifact schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaincode/genchain.h"
#include "src/chaincode/registry.h"
#include "src/channels/channel_affinity.h"
#include "src/channels/channel_work_pool.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/core/invariants.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/obs/json_writer.h"
#include "src/sim/work_queue.h"
#include "src/workload/paper_workloads.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// Golden fingerprint recorded against the tree BEFORE the channel
// subsystem existed (default C1 config, 20 s at 100 tps, seed 42, the
// same run fault_test.cc pins). An explicit num_channels = 1 network
// must keep reproducing it byte-for-byte: one channel means no extra
// RNG forks, no extra draws, no event reordering.
constexpr char kGoldenCompat[] =
    "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
    "lat=0.79166268968969022/0.75911118027396884/2.02848615705734 "
    "tput=95/44.450000000000003\n";

// Same run under replicated (Raft) ordering, recorded pre-channel.
constexpr char kGoldenReplicated[] =
    "ledger=1992 valid=899 endorse=20 mvcc_intra=796 mvcc_inter=277 "
    "phantom=0 submitted=1992 app=0\n"
    "pct=54.869477911646584/1.0040160642570282/53.865461847389561/0/0\n"
    "lat=0.78060464658634665/0.74022120304450434/2.0647142323398877 "
    "tput=95/44.950000000000003\n";

// Pre-channel trace exports of the same two runs (tracing on,
// repetitions = 1), pinned as (byte count, FNV-1a hash) — strong
// enough to catch any drift in row content, ordering or formatting.
constexpr size_t kGoldenCompatTraceBytes = 1052535;
constexpr uint64_t kGoldenCompatTraceHash = 8293478105143936468ull;
constexpr size_t kGoldenReplicatedTraceBytes = 1046460;
constexpr uint64_t kGoldenReplicatedTraceHash = 2292966280054001386ull;

ExperimentConfig GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 20 * kSecond;
  config.arrival_rate_tps = 100;
  return config;
}

// ---------------------------------------------------- golden identity

TEST(ChannelGoldenTest, ExplicitSingleChannelReproducesCompatFingerprint) {
  // Channel knobs that are meaningless with one channel (skew, client
  // pinning) must also be strict no-ops.
  ExperimentConfig config = ExperimentConfig::Builder(GoldenConfig())
                                .Channels(1)
                                .ChannelSkew(1.2)
                                .ChannelsPerClient(1)
                                .Build();
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenCompat);
  EXPECT_TRUE(r.value().per_channel.empty());
}

TEST(ChannelGoldenTest, SingleChannelReplicatedReproducesFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.ordering.replicated = true;
  config.fabric.num_channels = 1;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenReplicated);
}

TEST(ChannelGoldenTest, TraceExportsMatchPreChannelBytes) {
  for (bool replicated : {false, true}) {
    ExperimentConfig config = GoldenConfig();
    config.fabric.tracing = true;
    config.fabric.ordering.replicated = replicated;
    config.repetitions = 1;
    for (int jobs : {1, 4}) {
      SetParallelJobs(jobs);
      Result<ExperimentResult> result = RunExperiment(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().traces.size(), 1u);
      const std::string& trace = result.value().traces[0];
      SCOPED_TRACE(StrFormat("replicated=%d jobs=%d", replicated ? 1 : 0,
                             jobs));
      EXPECT_EQ(trace.size(), replicated ? kGoldenReplicatedTraceBytes
                                         : kGoldenCompatTraceBytes);
      EXPECT_EQ(Fnv1a(trace), replicated ? kGoldenReplicatedTraceHash
                                         : kGoldenCompatTraceHash);
      // Single-channel exports keep the version-1 stamp.
      EXPECT_EQ(VersionedJsonWriter::ParseSchemaVersion(trace),
                kObsSchemaVersion);
    }
    ParallelJobsFromEnv();  // restore the ambient setting
  }
}

// ---------------------------------------------------- ChannelWorkPool

// With one channel the pool must degenerate to WorkQueue exactly:
// same completion order, same timestamps, same counters — this is the
// mechanism behind the byte-identity goldens above.
TEST(ChannelWorkPoolTest, SingleChannelMatchesWorkQueue) {
  Environment env_q(1);
  Environment env_p(1);
  WorkQueue queue("validate");
  ChannelWorkPool pool("validate", /*workers=*/3);  // spare workers idle
  std::vector<std::pair<SimTime, int>> done_q;
  std::vector<std::pair<SimTime, int>> done_p;
  for (int i = 0; i < 6; ++i) {
    SimTime at = i * 3 * kMillisecond;
    SimTime service = (7 + 2 * i) * kMillisecond;
    env_q.Schedule(
        at,
        [&, i, service] {
          queue.Submit(
              env_q, [service] { return service; },
              [&, i] { done_q.push_back({env_q.now(), i}); });
        },
        ScheduleOpts{.absolute = true});
    env_p.Schedule(
        at,
        [&, i, service] {
          pool.Submit(
              env_p, kDefaultChannel, [service] { return service; },
              [&, i] { done_p.push_back({env_p.now(), i}); });
        },
        ScheduleOpts{.absolute = true});
  }
  env_q.RunAll();
  env_p.RunAll();
  EXPECT_EQ(done_q, done_p);
  EXPECT_EQ(queue.total_service(), pool.total_service());
  EXPECT_EQ(queue.tasks_completed(), pool.tasks_completed());
  EXPECT_EQ(pool.channel_tasks_completed(0), queue.tasks_completed());
}

// One channel's blocks commit strictly in order even when workers are
// free: the second task of a channel waits for the first.
TEST(ChannelWorkPoolTest, TasksOfOneChannelSerialize) {
  Environment env(1);
  ChannelWorkPool pool("validate", /*workers=*/4);
  std::vector<std::pair<SimTime, int>> starts;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(
        env, /*channel=*/0,
        [&, i] {
          starts.push_back({env.now(), i});
          return 10 * kMillisecond;
        },
        {});
  }
  env.RunAll();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], (std::pair<SimTime, int>{0, 0}));
  EXPECT_EQ(starts[1], (std::pair<SimTime, int>{10 * kMillisecond, 1}));
  EXPECT_EQ(starts[2], (std::pair<SimTime, int>{20 * kMillisecond, 2}));
}

// Different channels validate concurrently, but never more than the
// worker budget at once.
TEST(ChannelWorkPoolTest, WorkerBudgetCapsCrossChannelParallelism) {
  Environment env(1);
  ChannelWorkPool pool("validate", /*workers=*/2);
  std::vector<std::pair<SimTime, int>> starts;
  size_t peak_in_service = 0;
  for (int c = 0; c < 3; ++c) {
    pool.Submit(
        env, c,
        [&, c] {
          starts.push_back({env.now(), c});
          peak_in_service = std::max(peak_in_service, pool.in_service());
          return 10 * kMillisecond;
        },
        {});
  }
  env.RunAll();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], (std::pair<SimTime, int>{0, 0}));
  EXPECT_EQ(starts[1], (std::pair<SimTime, int>{0, 1}));
  // Channel 2 had to wait for a worker despite being idle itself.
  EXPECT_EQ(starts[2], (std::pair<SimTime, int>{10 * kMillisecond, 2}));
  EXPECT_LE(peak_in_service, 2u);
}

// A busy channel's queued backlog does not block a later-submitted
// idle channel (eligibility skips the FIFO head), but the shared
// workers still make the hot channel's backlog delay everyone once
// the budget is exhausted — the cross-channel interference the bench
// measures.
TEST(ChannelWorkPoolTest, IdleChannelOvertakesBusyChannelsBacklog) {
  Environment env(1);
  ChannelWorkPool pool("validate", /*workers=*/2);
  std::vector<std::pair<SimTime, std::string>> starts;
  auto task = [&](ChannelId channel, const std::string& label) {
    pool.Submit(
        env, channel,
        [&, label] {
          starts.push_back({env.now(), label});
          return 10 * kMillisecond;
        },
        {});
  };
  task(0, "hot0");
  task(0, "hot1");  // queued: channel 0 busy
  task(0, "hot2");  // queued behind hot1
  task(1, "cold0");  // submitted last, starts immediately on worker 2
  env.RunAll();
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0],
            (std::pair<SimTime, std::string>{0, "hot0"}));
  EXPECT_EQ(starts[1],
            (std::pair<SimTime, std::string>{0, "cold0"}));
  EXPECT_EQ(starts[2],
            (std::pair<SimTime, std::string>{10 * kMillisecond, "hot1"}));
  EXPECT_EQ(starts[3],
            (std::pair<SimTime, std::string>{20 * kMillisecond, "hot2"}));
  EXPECT_EQ(pool.channel_tasks_completed(0), 3u);
  EXPECT_EQ(pool.channel_tasks_completed(1), 1u);
  EXPECT_GT(pool.channel_service(0), pool.channel_service(1));
}

// ----------------------------------------------- chaincode namespaces

TEST(ChannelRegistryTest, ChannelInstallationOverridesDefault) {
  ChaincodeRegistry registry;
  auto base = std::make_shared<GenChaincode>(GenChaincodeSpec::PaperDefault());
  auto override_cc =
      std::make_shared<GenChaincode>(GenChaincodeSpec::PaperDefault());
  ASSERT_TRUE(registry.Register(base).ok());
  ASSERT_TRUE(registry.Register(/*channel=*/2, override_cc).ok());
  // Channel 2 sees its own installation; channel 1 falls back to the
  // default channel's.
  EXPECT_EQ(registry.Get(2, base->name()), override_cc.get());
  EXPECT_EQ(registry.Get(1, base->name()), base.get());
  EXPECT_EQ(registry.Get(base->name()), base.get());
  EXPECT_EQ(registry.Get(1, "missing"), nullptr);
}

TEST(ChannelRegistryTest, DuplicatePerChannelInstallationRejected) {
  ChaincodeRegistry registry;
  auto a = std::make_shared<GenChaincode>(GenChaincodeSpec::PaperDefault());
  auto b = std::make_shared<GenChaincode>(GenChaincodeSpec::PaperDefault());
  ASSERT_TRUE(registry.Register(/*channel=*/1, a).ok());
  EXPECT_FALSE(registry.Register(/*channel=*/1, b).ok());
  // The same name on another channel is a distinct namespace.
  EXPECT_TRUE(registry.Register(/*channel=*/3, b).ok());
}

TEST(ChannelRegistryTest, InstalledNamesMergeChannelAndDefault) {
  ChaincodeRegistry registry = ChaincodeRegistry::CreateDefault();
  size_t default_count = registry.InstalledNames().size();
  ASSERT_GT(default_count, 0u);
  // A channel with no installations inherits everything.
  EXPECT_EQ(registry.InstalledNames(5).size(), default_count);
  // A channel-specific override of an existing name adds nothing new.
  auto cc = std::make_shared<GenChaincode>(GenChaincodeSpec::PaperDefault());
  ASSERT_TRUE(registry.Register(/*channel=*/5, cc).ok());
  EXPECT_EQ(registry.InstalledNames(5).size(), default_count);
}

// --------------------------------------------------- channel affinity

TEST(ChannelAffinityTest, SingleVisibleChannelNeverTouchesTheRng) {
  Rng drawn(123);
  Rng untouched(123);
  // Default affinity (single-channel deployment).
  ChannelAffinity none;
  EXPECT_EQ(none.Pick(drawn), kDefaultChannel);
  // Pinned to exactly one channel of a sharded network.
  ChannelAffinityConfig config;
  config.channels_per_client = 1;
  config.skew = 1.2;  // irrelevant with one visible channel
  ChannelAffinity pinned(config, /*num_channels=*/4, /*client_index=*/2);
  EXPECT_EQ(pinned.Pick(drawn), 2);
  EXPECT_EQ(pinned.Pick(drawn), 2);
  // The RNG stream is exactly where it started.
  EXPECT_EQ(drawn.NextU64(), untouched.NextU64());
}

TEST(ChannelAffinityTest, PinnedSubsetsTileTheChannelSpace) {
  ChannelAffinityConfig config;
  config.channels_per_client = 2;
  ChannelAffinity c0(config, /*num_channels=*/4, /*client_index=*/0);
  ChannelAffinity c1(config, /*num_channels=*/4, /*client_index=*/1);
  ChannelAffinity c2(config, /*num_channels=*/4, /*client_index=*/2);
  EXPECT_EQ(c0.visible(), (std::vector<ChannelId>{0, 1}));
  EXPECT_EQ(c1.visible(), (std::vector<ChannelId>{2, 3}));
  EXPECT_EQ(c2.visible(), (std::vector<ChannelId>{0, 1}));  // wraps
}

TEST(ChannelAffinityTest, SkewConcentratesPicksOnTheLowestChannel) {
  ChannelAffinityConfig config;
  config.skew = 1.2;
  ChannelAffinity affinity(config, /*num_channels=*/4, /*client_index=*/0);
  Rng rng(7);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ChannelId channel = affinity.Pick(rng);
    ASSERT_GE(channel, 0);
    ASSERT_LT(channel, 4);
    counts[static_cast<size_t>(channel)]++;
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], counts[3] * 3);
  // Uniform spread hits every channel roughly evenly.
  ChannelAffinityConfig uniform;
  ChannelAffinity even(uniform, /*num_channels=*/4, /*client_index=*/0);
  std::vector<int> even_counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    even_counts[static_cast<size_t>(even.Pick(rng))]++;
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(even_counts[static_cast<size_t>(c)], 700) << "channel " << c;
  }
}

// --------------------------------------------------- sharded networks

ExperimentConfig ShardedConfig(int channels, double skew) {
  return ExperimentConfig::Builder()
      .Channels(channels)
      .ChannelSkew(skew)
      .Duration(10 * kSecond)
      .RateTps(100)
      .Repetitions(1)
      .Build();
}

TEST(MultiChannelTest, ShardsCarryLoadAndReportBreaksDownPerChannel) {
  Result<FailureReport> r = RunOnce(ShardedConfig(4, /*skew=*/0), 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FailureReport& report = r.value();
  ASSERT_EQ(report.per_channel.size(), 4u);
  uint64_t sum_ledger = 0;
  uint64_t sum_valid = 0;
  for (const ChannelFailureBreakdown& c : report.per_channel) {
    EXPECT_GT(c.ledger_txs, 0u) << "channel " << c.channel;
    sum_ledger += c.ledger_txs;
    sum_valid += c.valid_txs;
  }
  EXPECT_EQ(sum_ledger, report.ledger_txs);
  EXPECT_EQ(sum_valid, report.valid_txs);
  // The human-readable summary names each shard.
  std::string text = report.ToString();
  EXPECT_NE(text.find("channel 0:"), std::string::npos);
  EXPECT_NE(text.find("channel 3:"), std::string::npos);
}

TEST(MultiChannelTest, SkewedPopularityConcentratesLoadOnChannelZero) {
  Result<FailureReport> r = RunOnce(ShardedConfig(4, /*skew=*/1.2), 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().per_channel.size(), 4u);
  EXPECT_GT(r.value().per_channel[0].ledger_txs,
            2 * r.value().per_channel[3].ledger_txs);
}

TEST(MultiChannelTest, ShardingCutsIntraChannelConflicts) {
  // Same aggregate load, one hot key space vs four independent ones:
  // sharding must reduce the MVCC failure share (the paper's
  // contention mechanism, §4.5, applied per channel).
  Result<FailureReport> one = RunOnce(ShardedConfig(1, 0), 42);
  Result<FailureReport> four = RunOnce(ShardedConfig(4, 0), 42);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_LT(four.value().mvcc_pct, one.value().mvcc_pct);
}

TEST(MultiChannelTest, DeterministicAcrossJobCounts) {
  ExperimentConfig config = ShardedConfig(3, /*skew=*/0.9);
  config.repetitions = 3;
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
    EXPECT_EQ(FingerprintWithChannels(serial.value().repetitions[i]),
              FingerprintWithChannels(parallel.value().repetitions[i]))
        << "repetition " << i;
  }
}

TEST(MultiChannelTest, ReplicatedOrderingRunsEveryChannelItsOwnRaftLog) {
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0);
  config.fabric.ordering.replicated = true;
  // RunOnce runs the per-channel chain-integrity audit internally and
  // fails on any violation — ok() means every shard's chain is sound
  // and no acked transaction was lost.
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().per_channel.size(), 2u);
  EXPECT_GT(r.value().per_channel[0].ledger_txs, 0u);
  EXPECT_GT(r.value().per_channel[1].ledger_txs, 0u);
}

TEST(MultiChannelTest, DescribeMentionsChannelsOnlyWhenSharded) {
  EXPECT_EQ(ExperimentConfig::Defaults().Describe().find("channels="),
            std::string::npos);
  std::string sharded = ShardedConfig(4, 1.2).Describe();
  EXPECT_NE(sharded.find("channels=4"), std::string::npos);
  EXPECT_NE(sharded.find("cskew=1.2"), std::string::npos);
}

// ----------------------------------------------- faults x channels

// Builds a sharded network directly so per-peer, per-channel state can
// be inspected after the run.
struct DirectRun {
  std::unique_ptr<Environment> env;
  std::unique_ptr<FabricNetwork> network;
};

DirectRun RunSharded(const ExperimentConfig& config, uint64_t seed) {
  DirectRun run;
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      std::move(MakeWorkload(config.workload,
                             config.fabric.db_type == DatabaseType::kCouchDb)
                    .value()));
  run.env = std::make_unique<Environment>(seed);
  run.network = std::make_unique<FabricNetwork>(config.fabric, run.env.get(),
                                                chaincode, workload);
  EXPECT_TRUE(run.network->Init().ok());
  run.network->set_channel_affinity(config.workload.channel_affinity);
  run.network->StartLoad(config.arrival_rate_tps, config.duration);
  run.env->RunAll();
  return run;
}

TEST(ChannelFaultTest, PeerCrashAndCatchUpSpanEveryChannel) {
  ExperimentConfig config = ShardedConfig(3, /*skew=*/0);
  // Crash a non-reference peer mid-run; on restart it must replay the
  // blocks it missed on ALL channels, not just the default one.
  config.fabric.faults.Crash(/*peer=*/1, 3 * kSecond, /*restart_at=*/6 *
                                                          kSecond);
  DirectRun run = RunSharded(config, 42);
  const FabricNetwork& network = *run.network;
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(network.ledger(c).height(), 0u) << "channel " << c;
    EXPECT_EQ(network.peers()[1]->committed_height(c),
              network.ledger(c).height())
        << "channel " << c;
  }
}

TEST(ChannelFaultTest, StreamingLedgerRunWithCrashRestartPassesTheAudit) {
  // The restarted peer catches up from the channels' commit records,
  // which a streaming run keeps too, so the run is audited (RunOnce
  // fails on any violation) and reports exactly what the same run with
  // the retained ledger reports.
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0);
  config.fabric.faults.Crash(/*peer=*/1, 3 * kSecond, /*restart_at=*/6 *
                                                          kSecond);
  Result<FailureReport> retained = RunOnce(config, 42);
  config.fabric.streaming_ledger = true;
  Result<FailureReport> streaming = RunOnce(config, 42);
  ASSERT_TRUE(retained.ok()) << retained.status().ToString();
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  const FailureReport& r = retained.value();
  const FailureReport& s = streaming.value();
  EXPECT_GT(s.ledger_txs, 0u);
  EXPECT_EQ(s.ledger_txs, r.ledger_txs);
  EXPECT_EQ(s.valid_txs, r.valid_txs);
  EXPECT_EQ(s.endorsement_failures, r.endorsement_failures);
  EXPECT_EQ(s.mvcc_intra, r.mvcc_intra);
  EXPECT_EQ(s.mvcc_inter, r.mvcc_inter);
  EXPECT_EQ(s.phantom, r.phantom);
  EXPECT_EQ(s.submitted_txs, r.submitted_txs);
  EXPECT_EQ(s.app_errors, r.app_errors);
  EXPECT_DOUBLE_EQ(s.total_failure_pct, r.total_failure_pct);
  EXPECT_DOUBLE_EQ(s.committed_throughput_tps, r.committed_throughput_tps);
  ASSERT_EQ(s.per_channel.size(), 2u);
  ASSERT_EQ(r.per_channel.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    const ChannelFailureBreakdown& rc = r.per_channel[c];
    const ChannelFailureBreakdown& sc = s.per_channel[c];
    EXPECT_EQ(sc.channel, rc.channel);
    EXPECT_EQ(sc.ledger_txs, rc.ledger_txs) << "channel " << c;
    EXPECT_EQ(sc.valid_txs, rc.valid_txs) << "channel " << c;
    EXPECT_EQ(sc.endorsement_failures, rc.endorsement_failures);
    EXPECT_EQ(sc.mvcc_intra, rc.mvcc_intra) << "channel " << c;
    EXPECT_EQ(sc.mvcc_inter, rc.mvcc_inter) << "channel " << c;
    EXPECT_EQ(sc.phantom, rc.phantom) << "channel " << c;
    EXPECT_DOUBLE_EQ(sc.total_failure_pct, rc.total_failure_pct);
    EXPECT_DOUBLE_EQ(sc.mvcc_pct, rc.mvcc_pct);
    EXPECT_DOUBLE_EQ(sc.committed_throughput_tps, rc.committed_throughput_tps);
  }

  // The crash really forced a catch-up, on both channels, from records.
  DirectRun run = RunSharded(config, 42);
  const FabricNetwork& network = *run.network;
  ASSERT_NE(network.ledger_stats(), nullptr);
  const Peer& restarted = *network.peers()[1];
  EXPECT_GT(restarted.blocks_replayed(), 0u);
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(network.ledger(c).height(), 0u);  // nothing retained
    EXPECT_GT(network.channel_state(c).height(), 0u) << "channel " << c;
    EXPECT_EQ(restarted.committed_height(c), network.channel_state(c).height())
        << "channel " << c;
  }
  EXPECT_TRUE(CheckChainIntegrity(network).ok());
}

TEST(ChannelStateNetworkTest, PeersOfAChannelShareOneStateAndKeepNoUndo) {
  DirectRun run = RunSharded(ShardedConfig(2, /*skew=*/0), 42);
  const FabricNetwork& network = *run.network;
  for (int c = 0; c < 2; ++c) {
    const ChannelState& shared = network.peers()[0]->state(c).source();
    EXPECT_NE(&shared, &network.peers()[0]->state(1 - c).source());
    EXPECT_GT(shared.height(), 0u) << "channel " << c;
    EXPECT_EQ(shared.height(), network.ledger(c).height()) << "channel " << c;
    // Every peer reached the head, so no before-image is left.
    EXPECT_EQ(shared.undo_records(), 0u) << "channel " << c;
    for (const auto& peer : network.peers()) {
      EXPECT_EQ(&peer->state(c).source(), &shared) << "peer " << peer->id();
      EXPECT_EQ(&peer->endorse_view(c).source(), &shared);
      EXPECT_EQ(peer->state(c).height(), shared.height());
    }
  }
}

TEST(ChannelFaultTest, OrdererPauseStallsEveryChannelsService) {
  // The ordering service is one shared process: pausing it freezes
  // block cutting on every channel, and both channels resume after.
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0);
  config.fabric.faults.PauseOrderer(3 * kSecond, 6 * kSecond);
  DirectRun run = RunSharded(config, 42);
  const FabricNetwork& network = *run.network;
  for (int c = 0; c < 2; ++c) {
    bool cut_after_resume = false;
    for (const Block& block : network.ledger(c).blocks()) {
      EXPECT_FALSE(block.cut_time > 3 * kSecond + 100 * kMillisecond &&
                   block.cut_time < 6 * kSecond)
          << "channel " << c << " cut a block mid-pause at "
          << block.cut_time;
      if (block.cut_time >= 6 * kSecond) cut_after_resume = true;
    }
    EXPECT_TRUE(cut_after_resume) << "channel " << c;
  }
}

// ----------------------------------------------- versioned artifacts

TEST(VersionedArtifactTest, PlainWriterKeepsVersionOneShape) {
  VersionedJsonWriter writer("fabricsim.bench",
                             VersionedJsonWriter::Format::kDocument);
  writer.AddRow("{\"x\": 1}");
  std::string doc = writer.Render();
  EXPECT_EQ(VersionedJsonWriter::ParseSchemaVersion(doc), 1);
  EXPECT_EQ(doc.find("\"channels\""), std::string::npos);
}

TEST(VersionedArtifactTest, HardwareConcurrencyHeaderFieldIsOptIn) {
  VersionedJsonWriter plain("fabricsim.bench",
                            VersionedJsonWriter::Format::kDocument);
  plain.AddRow("{\"x\": 1}");
  // Unset writers keep the pre-annotation byte layout exactly.
  EXPECT_EQ(plain.Render().find("hardware_concurrency"), std::string::npos);

  VersionedJsonWriter annotated("fabricsim.bench",
                                VersionedJsonWriter::Format::kDocument);
  annotated.set_hardware_concurrency(48);
  annotated.AddRow("{\"x\": 1}");
  std::string doc = annotated.Render();
  EXPECT_NE(doc.find("\"hardware_concurrency\": 48"), std::string::npos);
  // The annotation lives in the header, not the rows, and leaves the
  // schema version alone.
  EXPECT_LT(doc.find("\"hardware_concurrency\""), doc.find("\"rows\""));
  EXPECT_EQ(VersionedJsonWriter::ParseSchemaVersion(doc), 1);
}

TEST(VersionedArtifactTest, ChannelRowsBumpDocumentToVersionTwo) {
  VersionedJsonWriter writer("fabricsim.bench",
                             VersionedJsonWriter::Format::kDocument);
  writer.AddRow("{\"x\": 1}");
  writer.AddChannelRow(1, "{\"tps\": 40}");
  writer.AddChannelRow(0, "{\"tps\": 60}");
  std::string doc = writer.Render();
  EXPECT_EQ(VersionedJsonWriter::ParseSchemaVersion(doc), 2);
  // Channel groups render in channel order regardless of insertion
  // order, and the v1 part of the document is still present.
  size_t c0 = doc.find("\"channel\": 0");
  size_t c1 = doc.find("\"channel\": 1");
  ASSERT_NE(c0, std::string::npos);
  ASSERT_NE(c1, std::string::npos);
  EXPECT_LT(c0, c1);
  EXPECT_NE(doc.find("\"rows\""), std::string::npos);
  EXPECT_EQ(writer.channel_row_count(), 2u);
}

TEST(VersionedArtifactTest, MultiChannelTraceStampsVersionTwo) {
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0.9);
  config.fabric.tracing = true;
  Result<ExperimentResult> result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().traces.size(), 1u);
  const std::string& trace = result.value().traces[0];
  EXPECT_EQ(VersionedJsonWriter::ParseSchemaVersion(trace),
            kObsSchemaVersionChannels);
  // Per-channel rollups ride along in the export.
  EXPECT_NE(trace.find("\"type\": \"channel_summary\""), std::string::npos);
  EXPECT_NE(trace.find("\"channel\": 1"), std::string::npos);
}

}  // namespace
}  // namespace fabricsim
