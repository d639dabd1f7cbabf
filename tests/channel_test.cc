// Multi-channel subsystem tests: single-channel bitwise identity
// against pre-channel golden fingerprints (compat and replicated
// ordering, report and trace export, FABRICSIM_JOBS=1 vs 4),
// multi-channel goldens under ordering faults, channel affinity
// (pinning, skew, the no-draw contract), fault composition across
// channels, per-channel failure breakdowns, the commit-time report
// fold against the retained ledgers, and the versioned artifact
// schema. The lane rules of the shared WorkQueue are in sim_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/channels/channel_affinity.h"
#include "src/common/parallel.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/core/invariants.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/ledger/ledger_parser.h"
#include "src/obs/json_writer.h"
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
    "lat=0.79166268968969022/0.76137129816446747/2.0287067818024185 "
    "tput=95/44.450000000000003\n";

// Same run under replicated (Raft) ordering, recorded pre-channel.
constexpr char kGoldenReplicated[] =
    "ledger=1992 valid=899 endorse=20 mvcc_intra=796 mvcc_inter=277 "
    "phantom=0 submitted=1992 app=0\n"
    "pct=54.869477911646584/1.0040160642570282/53.865461847389561/0/0\n"
    "lat=0.78060464658634665/0.73151652713556969/2.0696907571923666 "
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

// Multi-channel goldens: the per-channel routing of submissions, the
// per-channel leader hints and the ordering faults that hit every
// channel's service at once, pinned row by row.
constexpr char kGoldenShardedCompatPause[] =
    "ledger=983 valid=453 endorse=8 mvcc_intra=431 mvcc_inter=91 "
    "phantom=0 submitted=983 app=0\n"
    "pct=53.916581892166839/0.81383519837232965/53.102746693794501/0/0\n"
    "lat=1.6047953326551372/1.5642240237587932/4.6993609830996128 "
    "tput=85.700000000000003/45.299999999999997\n"
    "ch0=494/211/4/214/65/0 57.287449392712553/56.477732793522264/40\n"
    "ch1=298/144/2/139/13/0 51.677852348993291/51.006711409395976/"
    "28.300000000000001\n"
    "ch2=191/98/2/78/13/0 48.691099476439788/47.643979057591622/"
    "17.399999999999999\n";
constexpr char kGoldenShardedReplicatedCrash[] =
    "ledger=1007 valid=354 endorse=4 mvcc_intra=339 mvcc_inter=310 "
    "phantom=0 submitted=1007 app=0\n"
    "pct=64.846077457795431/0.39721946375372391/64.448857994041703/0/0\n"
    "lat=3.3969963753723915/4.4256826524875468/6.0947954715864725 "
    "tput=69.700000000000003/35.399999999999999\n"
    "ch0=497/171/1/163/162/0 65.593561368209251/65.392354124748493/"
    "29.699999999999999\n"
    "ch1=510/183/3/176/148/0 64.117647058823536/63.529411764705884/40\n";

TEST(ChannelGoldenTest, ShardedCompatOrdererPauseReproducesFingerprint) {
  // Three channels on one compat orderer node: every channel's Orderer
  // pauses and resumes together.
  ExperimentConfig config = ShardedConfig(3, /*skew=*/0.9);
  config.fabric.faults.PauseOrderer(3 * kSecond, 5 * kSecond);
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FingerprintWithChannels(r.value()), kGoldenShardedCompatPause);
}

TEST(ChannelGoldenTest, ShardedReplicatedLeaderCrashReproducesFingerprint) {
  // Two channels, each with its own Raft group over the shared replica
  // nodes; the leader-targeted crash resolves on channel 0's group and
  // takes that replica down in both. Clients fail over per channel.
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0);
  config.fabric.ordering.replicated = true;
  config.fabric.faults.CrashOrderer(-1, 3 * kSecond, 6 * kSecond);
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FingerprintWithChannels(r.value()), kGoldenShardedReplicatedCrash);
  EXPECT_EQ(r.value().orderer_elections, 2u);
  EXPECT_EQ(r.value().orderer_rebroadcasts, 609u);
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
  ASSERT_EQ(s.per_channel.size(), 2u);
  EXPECT_EQ(FingerprintWithChannels(s), FingerprintWithChannels(r));

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

// ------------------------------------------- the commit-time report

TEST(ReportFoldTest, QuantilesWithinTheSketchBoundOfTheLedger) {
  // The report's p50/p99 come from the commit-time fold's sketch. On
  // retained runs they must sit within QuantileSketch::kRelativeError
  // of the exact rank-ceil(q*n) order statistic over the latencies the
  // parser reads from every channel's ledger.
  for (int channels : {1, 2}) {
    ExperimentConfig config = ShardedConfig(channels, /*skew=*/0);
    DirectRun run = RunSharded(config, 42);
    const FabricNetwork& network = *run.network;
    std::vector<double> latencies_ms;
    for (int c = 0; c < channels; ++c) {
      for (const TxRecord& rec : LedgerParser::Parse(network.ledger(c))) {
        latencies_ms.push_back(ToMillis(rec.TotalLatency()));
      }
    }
    ASSERT_GT(latencies_ms.size(), 100u);
    std::sort(latencies_ms.begin(), latencies_ms.end());
    FailureReport report = BuildFailureReport(
        *network.ledger_stats(), network.stats(), config.duration);
    for (auto [q, reported_s] : {std::pair{0.5, report.p50_latency_s},
                                 std::pair{0.99, report.p99_latency_s}}) {
      size_t rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(latencies_ms.size())));
      double exact_s = latencies_ms[rank - 1] / 1000.0;
      EXPECT_NEAR(reported_s, exact_s,
                  QuantileSketch::kRelativeError * exact_s)
          << channels << " channel(s), q=" << q;
    }
  }
}

TEST(ReportFoldTest, LedgerAdapterMatchesTheInRunFold) {
  // One channel: folding the retained ledger after the run is the same
  // fold in the same order, so the reports agree bit for bit.
  {
    ExperimentConfig config = ShardedConfig(1, /*skew=*/0);
    DirectRun run = RunSharded(config, 42);
    const FabricNetwork& network = *run.network;
    EXPECT_EQ(Fingerprint(BuildFailureReport({&network.ledger()},
                                             network.stats(),
                                             config.duration)),
              Fingerprint(BuildFailureReport(*network.ledger_stats(),
                                             network.stats(),
                                             config.duration)));
  }
  // Two channels: the adapter folds channel by channel, the run in
  // commit order. Counts, slices and quantiles agree exactly; only the
  // latency sum is added in another order.
  ExperimentConfig config = ShardedConfig(2, /*skew=*/0);
  DirectRun run = RunSharded(config, 42);
  const FabricNetwork& network = *run.network;
  FailureReport in_run = BuildFailureReport(
      *network.ledger_stats(), network.stats(), config.duration);
  FailureReport adapted =
      BuildFailureReport({&network.ledger(0), &network.ledger(1)},
                         network.stats(), config.duration);
  ASSERT_EQ(adapted.per_channel.size(), 2u);
  EXPECT_NEAR(adapted.avg_latency_s, in_run.avg_latency_s,
              1e-12 * in_run.avg_latency_s);
  adapted.avg_latency_s = in_run.avg_latency_s;
  EXPECT_EQ(FingerprintWithChannels(adapted), FingerprintWithChannels(in_run));
  EXPECT_EQ(adapted.max_interblock_gap_s, in_run.max_interblock_gap_s);

  // A ledger passed alone lands in slot 0 whatever its channel id.
  FailureReport one = BuildFailureReport({&network.ledger(1)},
                                         network.stats(), config.duration);
  const ChannelFailureBreakdown& ch1 = in_run.per_channel[1];
  EXPECT_GT(one.ledger_txs, 0u);
  EXPECT_TRUE(one.per_channel.empty());
  EXPECT_EQ(one.ledger_txs, ch1.ledger_txs);
  EXPECT_EQ(one.valid_txs, ch1.valid_txs);
  EXPECT_EQ(one.endorsement_failures, ch1.endorsement_failures);
  EXPECT_EQ(one.mvcc_intra, ch1.mvcc_intra);
  EXPECT_EQ(one.mvcc_inter, ch1.mvcc_inter);
  EXPECT_EQ(one.phantom, ch1.phantom);
  EXPECT_EQ(one.total_failure_pct, ch1.total_failure_pct);
  EXPECT_EQ(one.committed_throughput_tps, ch1.committed_throughput_tps);
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

// The network builds the bootstrap once and every channel's head reads
// that one object, so a network holds one copy however many channels
// it has.
TEST(FabricNetworkTest, ChannelsShareOneFrozenBootstrap) {
  ExperimentConfig config = ShardedConfig(4, /*skew=*/0);
  std::shared_ptr<Chaincode> chaincode =
      MakeChaincodeFor(config.workload).value();
  std::shared_ptr<WorkloadGenerator> workload =
      MakeWorkload(config.workload, /*rich_queries_supported=*/false).value();
  Environment env(42);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  ASSERT_TRUE(network.Init().ok());
  ASSERT_EQ(network.num_channels(), 4);
  const FrozenState* base = network.channel_state(0).base();
  ASSERT_NE(base, nullptr);
  // The chaincode's bootstrap writes distinct keys.
  EXPECT_EQ(base->entries().size(), chaincode->BootstrapState().size());
  for (int c = 1; c < 4; ++c) {
    EXPECT_EQ(network.channel_state(c).base(), base) << "channel " << c;
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
