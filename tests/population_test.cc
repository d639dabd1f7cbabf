// Client-population subsystem tests: bitwise degeneracy of the
// population path onto the legacy per-client goldens (compat,
// replicated, multi-channel, FABRICSIM_JOBS 1 vs 4, trace exports),
// aggregated arrival-process statistics (measured rate, MMPP
// modulation, the interarrival rounding regression), aggregated-run
// determinism, streaming observability / streaming ledger consistency
// against the dense path, and config validation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/workload/paper_workloads.h"
#include "src/workload/population/client_population.h"
#include "src/workload/population/population.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// The same pre-channel golden fingerprints channel_test.cc pins (C1
// defaults, 20 s at 100 tps, seed 42). A degenerate single-class
// population spread over the same 5 clients must keep reproducing
// them byte for byte: same per-user rate doubles, same RNG forks in
// the same order, same event sequence.
constexpr char kGoldenCompat[] =
    "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
    "lat=0.79166268968969022/0.75911118027396884/2.02848615705734 "
    "tput=95/44.450000000000003\n";

constexpr char kGoldenReplicated[] =
    "ledger=1992 valid=899 endorse=20 mvcc_intra=796 mvcc_inter=277 "
    "phantom=0 submitted=1992 app=0\n"
    "pct=54.869477911646584/1.0040160642570282/53.865461847389561/0/0\n"
    "lat=0.78060464658634665/0.74022120304450434/2.0647142323398877 "
    "tput=95/44.950000000000003\n";

ExperimentConfig GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 20 * kSecond;
  config.arrival_rate_tps = 100;
  return config;
}

// GoldenConfig expressed as an explicit single-class population over
// the same 5 clients (all below the aggregation threshold, so every
// user expands into a per-client actor).
ExperimentConfig GoldenPopulationConfig() {
  ExperimentConfig config = GoldenConfig();
  config.population = PopulationConfig::SingleClass(
      static_cast<uint64_t>(config.fabric.cluster.num_clients),
      config.arrival_rate_tps);
  return config;
}

// ------------------------------------------------- bitwise degeneracy

TEST(PopulationTest, DegenerateSingleClassReproducesCompatFingerprint) {
  Result<FailureReport> r = RunOnce(GoldenPopulationConfig(), 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FingerprintWithChannels(r.value()), kGoldenCompat);
  EXPECT_TRUE(r.value().per_channel.empty());
}

TEST(PopulationTest, DegenerateSingleClassReproducesReplicatedFingerprint) {
  ExperimentConfig config = GoldenPopulationConfig();
  config.fabric.ordering.replicated = true;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(FingerprintWithChannels(r.value()), kGoldenReplicated);
}

TEST(PopulationTest, DegeneracyHoldsAcrossChannelsAndJobs) {
  // Four sharded channels, legacy pool vs degenerate population, under
  // FABRICSIM_JOBS=1 and 4: all four fingerprints (per-channel
  // breakdowns included) must be identical.
  std::vector<std::string> fingerprints;
  for (bool population : {false, true}) {
    for (int jobs : {1, 4}) {
      SetParallelJobs(jobs);
      ExperimentConfig config =
          population ? GoldenPopulationConfig() : GoldenConfig();
      config.fabric.num_channels = 4;
      config.workload.channel_affinity.skew = 0.8;
      config.repetitions = 1;
      Result<ExperimentResult> result = RunExperiment(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      fingerprints.push_back(
          FingerprintWithChannels(result.value().repetitions[0]));
      SCOPED_TRACE(StrFormat("population=%d jobs=%d", population ? 1 : 0,
                             jobs));
      EXPECT_EQ(fingerprints.back(), fingerprints.front());
    }
  }
  ParallelJobsFromEnv();  // restore the ambient setting
  EXPECT_EQ(fingerprints.size(), 4u);
}

TEST(PopulationTest, DegenerateTraceExportMatchesLegacyByteForByte) {
  // Drive two networks directly (same seed, same config echo) — one
  // through the legacy StartLoad, one through an explicit degenerate
  // population — and compare the full trace exports as raw bytes.
  ExperimentConfig config = GoldenConfig();
  config.fabric.tracing = true;
  Result<std::shared_ptr<Chaincode>> chaincode =
      MakeChaincodeFor(config.workload);
  ASSERT_TRUE(chaincode.ok());

  auto run = [&](bool population) {
    Result<std::unique_ptr<WorkloadGenerator>> workload =
        MakeWorkload(config.workload, /*rich_queries=*/true);
    EXPECT_TRUE(workload.ok());
    Environment env(42);
    FabricNetwork network(config.fabric, &env, chaincode.value(),
                          std::shared_ptr<WorkloadGenerator>(
                              std::move(workload).value()));
    EXPECT_TRUE(network.Init().ok());
    if (population) {
      Status st = network.StartLoad(
          PopulationConfig::SingleClass(
              static_cast<uint64_t>(config.fabric.cluster.num_clients),
              config.arrival_rate_tps),
          config.duration);
      EXPECT_TRUE(st.ok()) << st.ToString();
    } else {
      network.StartLoad(config.arrival_rate_tps, config.duration);
    }
    env.RunAll();
    return network.tracer()->ExportJsonl("degeneracy-check");
  };

  std::string legacy = run(false);
  std::string degenerate = run(true);
  ASSERT_FALSE(legacy.empty());
  EXPECT_EQ(legacy, degenerate);
}

// ------------------------------------------------- arrival statistics

TEST(PopulationTest, ArrivalGapsReproduceTheNominalRate) {
  // Regression for the interarrival truncation bug: at 200k tps the
  // mean gap is 5 ticks, where float->int truncation inflated the
  // measured rate by ~10% (gaps lost half a tick each). Rounding plus
  // the >=1-tick clamp keeps the measured rate within a few percent.
  ArrivalProcess arrivals(200000.0, MmppConfig{}, Rng(3));
  const int n = 100000;
  double total_us = 0.0;
  for (int i = 0; i < n; ++i) {
    SimTime gap = arrivals.NextGap(0);
    ASSERT_GE(gap, 1);
    total_us += static_cast<double>(gap);
  }
  double measured_tps = 1e6 * n / total_us;
  double ratio = measured_tps / 200000.0;
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.03);
}

TEST(PopulationTest, MmppModulationPreservesTheLongRunMean) {
  // Two-state on/off process, equal sojourns, burst multiplier 2:
  // the long-run mean equals the nominal rate.
  MmppConfig mmpp = MmppConfig::OnOff(2.0, 1 * kSecond, 1 * kSecond);
  EXPECT_DOUBLE_EQ(mmpp.MeanMultiplier(), 1.0);
  ArrivalProcess arrivals(1000.0, mmpp, Rng(5));
  EXPECT_DOUBLE_EQ(arrivals.mean_rate_tps(), 1000.0);
  const int n = 200000;
  double total_us = 0.0;
  for (int i = 0; i < n; ++i) {
    total_us += static_cast<double>(arrivals.NextGap(0));
  }
  double measured_tps = 1e6 * n / total_us;
  EXPECT_GT(measured_tps, 900.0);
  EXPECT_LT(measured_tps, 1100.0);

  // A silent state really is silent: on/off with multiplier 0 halves
  // the long-run rate.
  MmppConfig onoff = MmppConfig::OnOff(2.0, 1 * kSecond, 3 * kSecond);
  EXPECT_DOUBLE_EQ(onoff.MeanMultiplier(), 0.5);
}

// ---------------------------------------------------- aggregated path

TEST(PopulationTest, AggregatedClassSubmitsAtTheAggregateRate) {
  // 100k users at 0.005 tps each == 500 tps through ONE arrival actor.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.population = PopulationConfig::SingleClass(100000, 500.0);
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ~5000 Poisson arrivals (sd ~71); a generous band still catches a
  // broken superposition (per-user instead of aggregate rate would be
  // off by orders of magnitude).
  EXPECT_GT(r.value().submitted_txs, 4600u);
  EXPECT_LT(r.value().submitted_txs, 5400u);

  // Aggregation is deterministic: same seed, same fingerprint.
  Result<FailureReport> again = RunOnce(config, 42);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(FingerprintWithChannels(r.value()),
            FingerprintWithChannels(again.value()));
}

TEST(PopulationTest, MixedClassesRunSideBySide) {
  // One aggregated heavy class plus one expanded per-client class with
  // its own mix; both contribute arrivals.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  BehaviourClass heavy;
  heavy.name = "heavy";
  heavy.num_users = 10000;
  heavy.per_user_tps = 0.02;  // 200 tps aggregated
  BehaviourClass analysts;
  analysts.name = "analysts";
  analysts.num_users = 3;  // expands: below the threshold
  analysts.per_user_tps = 10.0;
  analysts.mix = WorkloadMix::kReadHeavy;
  config.population.classes = {heavy, analysts};
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ~2300 total arrivals across both classes.
  EXPECT_GT(r.value().submitted_txs, 2000u);
  EXPECT_LT(r.value().submitted_txs, 2600u);
}

// ------------------------------------- streaming paths vs dense paths

TEST(PopulationTest, StreamingPathsMatchTheDenseReport) {
  // Same run through (a) dense ledger + dense tracer and (b) streaming
  // ledger + streaming tracer: every exact count must be identical;
  // sketch-backed latency quantiles must sit within the documented
  // error of the dense estimates.
  ExperimentConfig dense_config = GoldenConfig();
  dense_config.fabric.tracing = true;
  Result<FailureReport> dense = RunOnce(dense_config, 42);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();

  ExperimentConfig streaming_config = GoldenConfig();
  streaming_config.fabric.streaming_obs = true;
  streaming_config.fabric.streaming_ledger = true;
  Result<FailureReport> streaming = RunOnce(streaming_config, 42);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  const FailureReport& d = dense.value();
  const FailureReport& s = streaming.value();
  EXPECT_EQ(s.ledger_txs, d.ledger_txs);
  EXPECT_EQ(s.valid_txs, d.valid_txs);
  EXPECT_EQ(s.endorsement_failures, d.endorsement_failures);
  EXPECT_EQ(s.mvcc_intra, d.mvcc_intra);
  EXPECT_EQ(s.mvcc_inter, d.mvcc_inter);
  EXPECT_EQ(s.phantom, d.phantom);
  EXPECT_EQ(s.submitted_txs, d.submitted_txs);
  EXPECT_EQ(s.app_errors, d.app_errors);
  EXPECT_DOUBLE_EQ(s.total_failure_pct, d.total_failure_pct);
  EXPECT_DOUBLE_EQ(s.committed_throughput_tps, d.committed_throughput_tps);
  EXPECT_DOUBLE_EQ(s.valid_throughput_tps, d.valid_throughput_tps);
  // The mean is exact in both paths (sum/count over the same values).
  EXPECT_NEAR(s.avg_latency_s, d.avg_latency_s, 1e-9);
  // Quantiles: sketch guarantees 1%; the dense histogram itself is
  // approximate, so compare with a combined band.
  EXPECT_NEAR(s.p50_latency_s, d.p50_latency_s, 0.1 * d.p50_latency_s);
  EXPECT_NEAR(s.p99_latency_s, d.p99_latency_s, 0.1 * d.p99_latency_s);
}

TEST(PopulationTest, StreamingTracerStoresOnlyExemplars) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.streaming_obs = true;
  Result<std::shared_ptr<Chaincode>> chaincode =
      MakeChaincodeFor(config.workload);
  ASSERT_TRUE(chaincode.ok());
  Result<std::unique_ptr<WorkloadGenerator>> workload =
      MakeWorkload(config.workload, /*rich_queries=*/true);
  ASSERT_TRUE(workload.ok());
  Environment env(42);
  FabricNetwork network(config.fabric, &env, chaincode.value(),
                        std::shared_ptr<WorkloadGenerator>(
                            std::move(workload).value()));
  ASSERT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();

  const Tracer* tracer = network.tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_TRUE(tracer->streaming());
  // ~2000 transactions observed, none of them retained as dense spans
  // once terminal; only the bounded exemplar reservoir survives.
  EXPECT_GT(tracer->size(), 1500u);
  EXPECT_EQ(tracer->stored_traces(), 0u);
  EXPECT_LE(tracer->exemplars().size(), 32u);
  EXPECT_GT(tracer->exemplars().size(), 0u);
  // Aggregates are still queryable and complete.
  const PhaseSketches& phases = tracer->phases();
  EXPECT_GT(phases.total.count(), 0u);
  EXPECT_GT(tracer->failure_counts().size(), 0u);
  EXPECT_FALSE(tracer->TopConflictingKeys(5).empty());
  // Memory footprint is a handful of sketches + <=32 exemplars, far
  // below one dense span per transaction.
  EXPECT_LT(tracer->ApproxMemoryBytes(), 512u * 1024u);
}

// ----------------------------------------------------------- validation

TEST(PopulationTest, ValidateRejectsDegenerateConfigs) {
  EXPECT_FALSE(PopulationConfig{}.Validate().ok());

  PopulationConfig zero_users = PopulationConfig::SingleClass(5, 100.0);
  zero_users.classes[0].num_users = 0;
  EXPECT_FALSE(zero_users.Validate().ok());

  PopulationConfig zero_rate = PopulationConfig::SingleClass(5, 100.0);
  zero_rate.classes[0].per_user_tps = 0.0;
  EXPECT_FALSE(zero_rate.Validate().ok());

  PopulationConfig bad_mmpp = PopulationConfig::SingleClass(5, 100.0);
  bad_mmpp.classes[0].mmpp.states = {MmppState{-1.0, 1 * kSecond},
                                     MmppState{1.0, 1 * kSecond}};
  EXPECT_FALSE(bad_mmpp.Validate().ok());

  PopulationConfig silent = PopulationConfig::SingleClass(5, 100.0);
  silent.classes[0].mmpp.states = {MmppState{0.0, 1 * kSecond},
                                   MmppState{0.0, 1 * kSecond}};
  EXPECT_FALSE(silent.Validate().ok());

  EXPECT_TRUE(PopulationConfig::SingleClass(5, 100.0).Validate().ok());

  // The network surfaces validation errors through StartLoad's status.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 1 * kSecond;
  config.population = PopulationConfig::SingleClass(5, 100.0);
  config.population.classes[0].per_user_tps = -1.0;
  Result<FailureReport> r = RunOnce(config, 42);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace fabricsim
