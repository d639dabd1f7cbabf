// Overload-protection subsystem tests (src/admission): unit coverage
// of the circuit breaker, retry budget, CoDel control law and backoff
// cap; default-off bitwise identity against the pre-PR golden; deadline
// propagation through all three pipeline phases; endorser queue
// policies; orderer backpressure; determinism across job counts with
// protection active, on one channel and on four; and composition with
// fault plans and surge-window populations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/admission/admission.h"
#include "src/common/parallel.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/ledger/ledger_parser.h"
#include "src/workload/paper_workloads.h"
#include "src/workload/population/population.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// Admission counters appended for determinism comparisons of protected
// runs (two runs must agree on every shed/expired/breaker count and
// every channel's breakdown, not just on the ledger).
std::string AdmissionFingerprint(const FailureReport& r) {
  return FingerprintWithChannels(r) +
         StrFormat("adm=%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu\n",
                   static_cast<unsigned long long>(r.admission_shed),
                   static_cast<unsigned long long>(r.deadline_expired_endorse),
                   static_cast<unsigned long long>(r.deadline_expired_order),
                   static_cast<unsigned long long>(r.deadline_expired_commit),
                   static_cast<unsigned long long>(r.orderer_throttled),
                   static_cast<unsigned long long>(r.breaker_rejected),
                   static_cast<unsigned long long>(r.breaker_opens),
                   static_cast<unsigned long long>(r.retry_budget_denials));
}

// Pre-PR golden of the default C1 config (20 s at 100 tps, seed 42) —
// the same constant fault_test.cc pins. A default-constructed
// AdmissionConfig must keep reproducing it byte-for-byte.
constexpr char kGoldenDefault[] =
    "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
    "phantom=0 submitted=1998 app=0\n"
    "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
    "lat=0.79166268968969022/0.76137129816446747/2.0287067818024185 "
    "tput=95/44.450000000000003\n";

ExperimentConfig GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 20 * kSecond;
  config.arrival_rate_tps = 100;
  return config;
}

// Saturating base: ~5x the pipeline's capacity, short enough to keep
// the suite fast.
ExperimentConfig OverloadConfig(double rate_tps = 1000.0) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 6 * kSecond;
  config.arrival_rate_tps = rate_tps;
  config.repetitions = 1;
  return config;
}

// ---------------------------------------------------------------------
// Unit: circuit breaker.

TEST(CircuitBreakerTest, OpensAtThresholdRejectsThenRecovers) {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.window = 4;
  config.open_threshold = 0.5;
  config.open_duration = 1 * kSecond;
  config.half_open_probes = 2;
  AdmissionStats stats;
  CircuitBreaker breaker(config, &stats);

  // 2 failures in a window of 4 meets the 0.5 threshold.
  breaker.RecordSuccess(0);
  breaker.RecordFailure(0);
  breaker.RecordSuccess(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.breaker_opens, 1u);

  // Open: rejects until open_duration elapses.
  EXPECT_FALSE(breaker.AllowSubmit(10 * kMillisecond));
  EXPECT_FALSE(breaker.AllowSubmit(999 * kMillisecond));

  // Half-open: exactly half_open_probes submissions pass.
  EXPECT_TRUE(breaker.AllowSubmit(1 * kSecond));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowSubmit(1 * kSecond));
  EXPECT_FALSE(breaker.AllowSubmit(1 * kSecond));  // probe budget spent

  // All probes succeed -> closed again.
  breaker.RecordSuccess(1 * kSecond);
  breaker.RecordSuccess(1 * kSecond);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowSubmit(1 * kSecond));
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.window = 2;
  config.open_threshold = 0.5;
  config.open_duration = 1 * kSecond;
  config.half_open_probes = 3;
  AdmissionStats stats;
  CircuitBreaker breaker(config, &stats);

  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.AllowSubmit(1 * kSecond));  // half-open probe
  breaker.RecordFailure(1 * kSecond);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.breaker_opens, 2u);
  // The re-open restarts the open_duration clock.
  EXPECT_FALSE(breaker.AllowSubmit(1900 * kMillisecond));
  EXPECT_TRUE(breaker.AllowSubmit(2 * kSecond));
}

// ---------------------------------------------------------------------
// Unit: retry budget.

TEST(RetryBudgetTest, EarnsPerSubmissionSpendsPerRetry) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.ratio = 0.5;
  config.capacity = 2.0;
  RetryBudget budget(config);

  // Starts full: capacity retries available.
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());  // empty

  // Two first-attempt submissions earn one retry at ratio 0.5.
  budget.OnSubmit();
  EXPECT_FALSE(budget.TrySpend());
  budget.OnSubmit();
  EXPECT_TRUE(budget.TrySpend());

  // Earning saturates at capacity.
  for (int i = 0; i < 100; ++i) budget.OnSubmit();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
}

// ---------------------------------------------------------------------
// Unit: CoDel control law.

TEST(CoDelTest, NoDropsBelowTarget) {
  CoDelState codel;
  const SimTime target = 5 * kMillisecond;
  const SimTime interval = 100 * kMillisecond;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(codel.ShouldDrop(/*sojourn=*/1 * kMillisecond,
                                  /*now=*/i * kMillisecond, target, interval));
  }
  EXPECT_EQ(codel.drops(), 0u);
}

TEST(CoDelTest, SustainedStandingQueueShedsAtIncreasingRate) {
  CoDelState codel;
  const SimTime target = 5 * kMillisecond;
  const SimTime interval = 100 * kMillisecond;
  uint64_t drops = 0;
  // 10 s of dequeues every 10 ms, each having waited 50 ms: a standing
  // queue well above target for many intervals.
  for (int i = 0; i < 1000; ++i) {
    if (codel.ShouldDrop(/*sojourn=*/50 * kMillisecond,
                         /*now=*/i * 10 * kMillisecond, target, interval)) {
      ++drops;
    }
  }
  EXPECT_GT(drops, 5u);  // control law accelerates past one drop/interval
  EXPECT_EQ(codel.drops(), drops);

  // Once sojourns fall below target the dropping state disarms.
  uint64_t post_drops = 0;
  for (int i = 1000; i < 1200; ++i) {
    if (codel.ShouldDrop(/*sojourn=*/1 * kMillisecond,
                         /*now=*/i * 10 * kMillisecond, target, interval)) {
      ++post_drops;
    }
  }
  EXPECT_EQ(post_drops, 0u);
}

// ---------------------------------------------------------------------
// Unit: capped exponential backoff (regression — the uncapped loop
// scheduled multi-hour virtual sleeps at high retry counts).

TEST(BackoffCapTest, ExponentialBackoffIsCappedAtMaxBackoff) {
  ClientRetryPolicy retry;
  retry.endorse_timeout = 1 * kSecond;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff = 30 * kSecond;
  EXPECT_EQ(retry.BackoffForAttempt(0), 1 * kSecond);
  EXPECT_EQ(retry.BackoffForAttempt(1), 2 * kSecond);
  EXPECT_EQ(retry.BackoffForAttempt(4), 16 * kSecond);
  EXPECT_EQ(retry.BackoffForAttempt(5), 30 * kSecond);   // 32 s capped
  EXPECT_EQ(retry.BackoffForAttempt(20), 30 * kSecond);  // 12 days uncapped
  // Attempt counts that would overflow double exponentiation stay at
  // the cap instead of wrapping.
  EXPECT_EQ(retry.BackoffForAttempt(4000), 30 * kSecond);
}

TEST(BackoffCapTest, StockConfigsNeverReachTheCap) {
  // The default retry budget (2 retries) tops out at 4x the timeout —
  // far under the 30 s default cap, so pre-cap runs are unchanged.
  ClientRetryPolicy retry;
  retry.endorse_timeout = 400 * kMillisecond;
  EXPECT_EQ(retry.BackoffForAttempt(retry.max_endorse_retries),
            1600 * kMillisecond);
}

// ---------------------------------------------------------------------
// Unit: surge windows.

TEST(SurgeWindowTest, ValidationRejectsMalformedAndOverlappingWindows) {
  PopulationConfig population = PopulationConfig::SingleClass(100, 100.0);
  population.classes[0].surges.push_back(
      SurgeWindow{2 * kSecond, 1 * kSecond, 5.0});  // end < start
  EXPECT_FALSE(population.Validate().ok());

  population.classes[0].surges.clear();
  population.classes[0].surges.push_back(
      SurgeWindow{1 * kSecond, 3 * kSecond, 5.0});
  population.classes[0].surges.push_back(
      SurgeWindow{2 * kSecond, 4 * kSecond, 2.0});  // overlaps the first
  EXPECT_FALSE(population.Validate().ok());

  population.classes[0].surges.clear();
  population.classes[0].surges.push_back(
      SurgeWindow{1 * kSecond, 3 * kSecond, 5.0});
  population.classes[0].surges.push_back(
      SurgeWindow{3 * kSecond, 4 * kSecond, 0.0});  // back-to-back is fine
  EXPECT_TRUE(population.Validate().ok());
}

TEST(SurgeWindowTest, SurgeMultipliesArrivalRateInsideTheWindowOnly) {
  // 100 tps base, 10x surge during [10 s, 20 s): counting arrivals per
  // region over a 30 s horizon should show the surge clearly.
  std::vector<SurgeWindow> surges{SurgeWindow{10 * kSecond, 20 * kSecond, 10.0}};
  ArrivalProcess arrivals(100.0, MmppConfig{}, surges);
  Rng rng(7);
  SimTime now = 0;
  uint64_t before = 0, during = 0, after = 0;
  while (now < 30 * kSecond) {
    now += arrivals.NextGap(now, rng);
    if (now < 10 * kSecond) {
      ++before;
    } else if (now < 20 * kSecond) {
      ++during;
    } else if (now < 30 * kSecond) {
      ++after;
    }
  }
  // ~1000 arrivals before, ~10000 during, ~1000 after. Loose 3-sigma
  // style bounds keep the test deterministic-seed-proof.
  EXPECT_GT(before, 800u);
  EXPECT_LT(before, 1200u);
  EXPECT_GT(during, 9000u);
  EXPECT_LT(during, 11000u);
  EXPECT_GT(after, 800u);
  EXPECT_LT(after, 1200u);
}

TEST(SurgeWindowTest, ZeroMultiplierSilencesTheWindow) {
  std::vector<SurgeWindow> surges{SurgeWindow{1 * kSecond, 2 * kSecond, 0.0}};
  ArrivalProcess arrivals(1000.0, MmppConfig{}, surges);
  Rng rng(11);
  SimTime now = 0;
  uint64_t inside = 0;
  while (now < 3 * kSecond) {
    now += arrivals.NextGap(now, rng);
    if (now >= 1 * kSecond && now < 2 * kSecond) ++inside;
  }
  EXPECT_EQ(inside, 0u);
}

// ---------------------------------------------------------------------
// Golden identity: a default AdmissionConfig must be a strict no-op.

TEST(AdmissionGoldenTest, DisabledConfigReproducesPrePrFingerprint) {
  ExperimentConfig config = GoldenConfig();
  config.fabric.admission = AdmissionConfig{};  // explicitly disabled
  ASSERT_FALSE(config.fabric.admission.enabled());
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()), kGoldenDefault);
  EXPECT_FALSE(r.value().has_admission);
}

TEST(AdmissionGoldenTest, DescribeOmitsDisabledAdmission) {
  ExperimentConfig config = GoldenConfig();
  std::string base = config.Describe();
  config.fabric.admission = AdmissionConfig{};
  EXPECT_EQ(config.Describe(), base);
  config.fabric.admission.tx_deadline = 2 * kSecond;
  config.fabric.admission.breaker.enabled = true;
  EXPECT_NE(config.Describe().find("admission=ttl=2.0s,breaker"),
            std::string::npos)
      << config.Describe();
}

// The enabled path with a bounded endorsement queue, at the saturating
// config and seed of the queue-policy tests below: drop-oldest evicts
// queued proposals, CoDel refuses them at dequeue. Recorded before
// endorsers at one height shared one simulation.
constexpr char kGoldenDropOldest[] =
    "ledger=327 valid=150 endorse=1 mvcc_intra=151 mvcc_inter=25 phantom=0 "
    "submitted=327 app=0\n"
    "pct=54.128440366972477/0.3058103975535168/53.822629969418955/0/0\n"
    "lat=1.2763496819571867/1.2806697746154441/2.2420752105708956 "
    "tput=32.833333333333336/25\n"
    "adm=9835/0/0/0/0/0/0/0\n";
constexpr char kGoldenCoDel[] =
    "ledger=202 valid=99 endorse=0 mvcc_intra=84 mvcc_inter=19 phantom=0 "
    "submitted=202 app=0\n"
    "pct=50.990099009900987/0/50.990099009900987/0/0\n"
    "lat=1.8383883069306926/2.1115026916811006/4.3380453722402699 "
    "tput=32.666666666666664/16.5\n"
    "adm=5944/0/0/0/0/0/0/0\n";

TEST(AdmissionGoldenTest, DropOldestAndCoDelPinned) {
  ExperimentConfig drop_oldest = OverloadConfig();
  drop_oldest.fabric.admission.endorse_policy =
      AdmissionQueuePolicy::kDropOldest;
  drop_oldest.fabric.admission.max_endorse_queue_depth = 16;
  ExperimentConfig codel = OverloadConfig();
  codel.fabric.admission.endorse_policy = AdmissionQueuePolicy::kCoDel;
  codel.fabric.admission.codel_target = 5 * kMillisecond;
  codel.fabric.admission.codel_interval = 100 * kMillisecond;
  Result<FailureReport> r = RunOnce(drop_oldest, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AdmissionFingerprint(r.value()), kGoldenDropOldest);
  r = RunOnce(codel, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(AdmissionFingerprint(r.value()), kGoldenCoDel);
}

// ---------------------------------------------------------------------
// Integration: deadline propagation.

TEST(AdmissionIntegrationTest, DeadlinesExpireUnderSaturation) {
  ExperimentConfig config = OverloadConfig();
  config.fabric.admission.tx_deadline = 2 * kSecond;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FailureReport& report = r.value();
  EXPECT_TRUE(report.has_admission);
  // Under 5x overload latency blows through a 2 s TTL somewhere in the
  // pipeline — at least one of the three phases must be expiring.
  uint64_t expired = report.deadline_expired_endorse +
                     report.deadline_expired_order +
                     report.deadline_expired_commit;
  EXPECT_GT(expired, 0u) << AdmissionFingerprint(report);
}

TEST(AdmissionIntegrationTest, CommitPhaseDeadlinesReachTheLedger) {
  // A TTL just above the healthy commit latency: endorsement succeeds,
  // but ordering/commit queueing under overload pushes cut_time past
  // the deadline — those transactions land on the chain marked
  // DEADLINE_EXPIRED_COMMIT.
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/500.0);
  config.fabric.admission.tx_deadline = 3 * kSecond;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().deadline_expired_commit, 0u)
      << AdmissionFingerprint(r.value());
}

// ---------------------------------------------------------------------
// Integration: endorser queue policies.

TEST(AdmissionIntegrationTest, RejectNewShedsAtBoundedEndorseQueue) {
  ExperimentConfig config = OverloadConfig();
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kRejectNew;
  config.fabric.admission.max_endorse_queue_depth = 16;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().admission_shed, 0u) << AdmissionFingerprint(r.value());
  // Sojourn/depth sketches observed traffic.
  EXPECT_GT(r.value().endorse_depth_max, 0.0);
}

TEST(AdmissionIntegrationTest, DropOldestShedsAtBoundedEndorseQueue) {
  ExperimentConfig config = OverloadConfig();
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kDropOldest;
  config.fabric.admission.max_endorse_queue_depth = 16;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().admission_shed, 0u) << AdmissionFingerprint(r.value());
}

TEST(AdmissionIntegrationTest, CoDelShedsOnSustainedSojourn) {
  ExperimentConfig config = OverloadConfig();
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kCoDel;
  config.fabric.admission.codel_target = 5 * kMillisecond;
  config.fabric.admission.codel_interval = 100 * kMillisecond;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // CoDel's drop rate accelerates as interval/sqrt(n); at sustained 5x
  // overload it sheds a substantial stream (hundreds over 6 s), though
  // unlike the depth-bounded policies it cannot fully drain the
  // standing queue — it is an AQM, not admission control.
  EXPECT_GT(r.value().admission_shed, 100u) << AdmissionFingerprint(r.value());
}

// ---------------------------------------------------------------------
// Integration: orderer backpressure (compat broadcast path).

TEST(AdmissionIntegrationTest, BoundedOrdererIngressThrottles) {
  ExperimentConfig config = OverloadConfig();
  // Stock ingress absorbs 25k tps (40 us/tx) and never queues at these
  // rates; the saturated endorse phase delivers ~150 tps downstream, so
  // ordering must serve slower than that (10 ms/tx = 100 tps) to be the
  // bottleneck backpressure exists for.
  config.fabric.timing.orderer_per_tx_cost = 10 * kMillisecond;
  config.fabric.admission.max_orderer_queue_depth = 4;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().orderer_throttled, 0u) << AdmissionFingerprint(r.value());
}

// ---------------------------------------------------------------------
// Integration: circuit breaker + retry budget under the full stack.

AdmissionConfig FullProtection() {
  AdmissionConfig admission;
  admission.tx_deadline = 3 * kSecond;
  admission.endorse_policy = AdmissionQueuePolicy::kRejectNew;
  admission.max_endorse_queue_depth = 256;
  admission.max_orderer_queue_depth = 256;
  admission.breaker.enabled = true;
  admission.retry_budget.enabled = true;
  return admission;
}

TEST(AdmissionIntegrationTest, BreakerOpensUnderSustainedOverload) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/2000.0);
  // Deadlines without queue bounds: the endorse queue grows until every
  // proposal expires at dequeue, and the breaker's window fills with
  // failures. Queue sheds deliberately do not count as failures (a
  // bounded queue answering within one RTT is healthy), so this is the
  // configuration where the breaker is the only line of defence.
  config.fabric.admission.tx_deadline = 2 * kSecond;
  config.fabric.admission.breaker.enabled = true;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.value().breaker_opens, 1u) << AdmissionFingerprint(r.value());
  EXPECT_GT(r.value().breaker_rejected, 0u);
}

TEST(AdmissionIntegrationTest, RetryBudgetBoundsRetriesUnderOverload) {
  ExperimentConfig config = OverloadConfig();
  config.fabric.retry.endorse_timeout = 300 * kMillisecond;
  config.fabric.retry.resubmit_on_mvcc = true;
  config.fabric.admission.retry_budget.enabled = true;
  config.fabric.admission.retry_budget.ratio = 0.05;
  config.fabric.admission.retry_budget.capacity = 2.0;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().retry_budget_denials, 0u)
      << AdmissionFingerprint(r.value());
}

// ---------------------------------------------------------------------
// Determinism with protection active.

// Runs two repetitions of `config` at FABRICSIM_JOBS 1 and 4 and
// expects every repetition to match bit-for-bit.
void ExpectIdenticalAcrossJobCounts(ExperimentConfig config) {
  config.repetitions = 2;
  SetParallelJobs(1);
  Result<ExperimentResult> serial = RunExperiment(config);
  SetParallelJobs(4);
  Result<ExperimentResult> parallel = RunExperiment(config);
  ParallelJobsFromEnv();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial.value().repetitions.size(),
            parallel.value().repetitions.size());
  for (size_t i = 0; i < serial.value().repetitions.size(); ++i) {
    EXPECT_EQ(AdmissionFingerprint(serial.value().repetitions[i]),
              AdmissionFingerprint(parallel.value().repetitions[i]))
        << "repetition " << i;
  }
}

TEST(AdmissionDeterminismTest, ProtectedRunIdenticalAcrossJobCounts) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.admission = FullProtection();
  ExpectIdenticalAcrossJobCounts(config);
}

TEST(AdmissionDeterminismTest, ProtectedMultiChannelIdenticalAcrossJobCounts) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.num_channels = 4;
  config.fabric.admission = FullProtection();
  ExpectIdenticalAcrossJobCounts(config);
}

// ---------------------------------------------------------------------
// Composition: protection + replicated ordering, fault plans, surges.

TEST(AdmissionCompositionTest, DeadlinesAndShedingComposeWithRaftOrdering) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.ordering.replicated = true;
  config.fabric.admission.tx_deadline = 3 * kSecond;
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kRejectNew;
  config.fabric.admission.max_endorse_queue_depth = 16;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  uint64_t protected_drops = r.value().admission_shed +
                             r.value().deadline_expired_endorse +
                             r.value().deadline_expired_commit;
  EXPECT_GT(protected_drops, 0u) << AdmissionFingerprint(r.value());
}

// A replicated leader drops an envelope whose deadline passed while it
// queued at ingress, as the compat orderer does, and acks it as
// rejected so the client stops rebroadcasting it: expired envelopes no
// longer take block slots and reach the peers only to expire there.
TEST(AdmissionCompositionTest, RaftOrderingDropsExpiredEnvelopesAtIngress) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.ordering.replicated = true;
  config.fabric.admission.tx_deadline = 3 * kSecond;
  config.fabric.timing.orderer_per_tx_cost = 10 * kMillisecond;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().deadline_expired_order, 0u)
      << AdmissionFingerprint(r.value());
  EXPECT_LT(r.value().deadline_expired_commit,
            r.value().deadline_expired_order)
      << AdmissionFingerprint(r.value());
}

// Replicated clients broadcast straight to the replicas, which bound
// nothing: an orderer ingress bound would be silently ignored (and the
// report would still print an admission line with zero throttles), so
// the network refuses the combination.
TEST(AdmissionCompositionTest, OrdererBoundRefusedWithRaftOrdering) {
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.ordering.replicated = true;
  config.fabric.admission.max_orderer_queue_depth = 4;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST(AdmissionCompositionTest, PeerCrashDuringSaturationShedsAtSurvivors) {
  // A peer crashes mid-saturation while its org is the only endorsing
  // choice for some proposals; admission keeps the survivors' queues
  // bounded and the run (with the chain-integrity audit built into
  // RunOnce) completes cleanly.
  ExperimentConfig config = OverloadConfig(/*rate_tps=*/600.0);
  config.fabric.retry.endorse_timeout = 400 * kMillisecond;
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kRejectNew;
  config.fabric.admission.max_endorse_queue_depth = 16;
  config.fabric.faults.Crash(/*peer=*/1, 2 * kSecond,
                             /*restart_at=*/4 * kSecond);
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().admission_shed, 0u) << AdmissionFingerprint(r.value());
  EXPECT_GT(r.value().valid_txs, 0u);
}

TEST(AdmissionCompositionTest, SurgePopulationTriggersSheddingDuringSpike) {
  // 100 users at a healthy aggregate rate, with a 10x surge window in
  // the middle of the run: protection sheds during the spike and the
  // run completes.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 6 * kSecond;
  config.repetitions = 1;
  PopulationConfig population = PopulationConfig::SingleClass(100, 150.0);
  population.classes[0].surges.push_back(
      SurgeWindow{2 * kSecond, 4 * kSecond, 10.0});
  config.population = population;
  config.fabric.admission.endorse_policy = AdmissionQueuePolicy::kRejectNew;
  config.fabric.admission.max_endorse_queue_depth = 16;
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().admission_shed, 0u) << AdmissionFingerprint(r.value());
}

// Timely goodput: valid transactions that committed within the SLA,
// per second of offered load. In a lossless FIFO pipeline overload
// never shows up as lost throughput — everything commits eventually
// during the drain — it shows up as latency, so raw
// valid_throughput_tps cannot distinguish collapse from health. This
// is the metric bench_overload_collapse sweeps.
double TimelyGoodputTps(const ExperimentConfig& config, uint64_t seed,
                        SimTime sla) {
  auto chaincode = MakeChaincodeFor(config.workload).value();
  auto workload = std::shared_ptr<WorkloadGenerator>(
      MakeWorkload(config.workload,
                   config.fabric.db_type == DatabaseType::kCouchDb)
          .value());
  Environment env(seed);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  EXPECT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  uint64_t timely = 0;
  for (const TxRecord& rec : LedgerParser::Parse(network.ledger())) {
    if (rec.code == TxValidationCode::kValid && rec.TotalLatency() <= sla) {
      ++timely;
    }
  }
  return static_cast<double>(timely) /
         (static_cast<double>(config.duration) / kSecond);
}

// Protection must actually protect: at ~13x overload the full stack
// keeps timely goodput (SLA = deadline) at or above the unprotected
// pipeline's, while keeping committed latency inside the deadline
// instead of tens of seconds.
TEST(AdmissionIntegrationTest, ProtectedGoodputAtLeastUnprotectedAtOverload) {
  const SimTime kSla = 3 * kSecond;
  ExperimentConfig unprotected = OverloadConfig(/*rate_tps=*/2000.0);
  double base = TimelyGoodputTps(unprotected, 42, kSla);

  ExperimentConfig guarded = unprotected;
  guarded.fabric.admission = FullProtection();
  double shielded = TimelyGoodputTps(guarded, 42, kSla);

  EXPECT_GE(shielded, base)
      << "timely goodput: protected " << shielded << " tps vs unprotected "
      << base << " tps";
  // The unprotected pipeline must be genuinely collapsed at this rate
  // (only the first instants of load commit inside the SLA), or the
  // comparison above is vacuous.
  Result<FailureReport> raw = RunOnce(unprotected, 42);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_GT(raw.value().avg_latency_s, 10.0);
}

}  // namespace
}  // namespace fabricsim
