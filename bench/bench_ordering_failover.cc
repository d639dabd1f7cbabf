// Ordering-service failover: a Raft-style replicated ordering group
// loses its leader mid-run and the service becomes unavailable until a
// new leader wins an election and resumes cutting from the replicated
// log. The unavailability window is dominated by the election timeout
// once client-side detection is tight, so sweeping the timeout down
// must shrink the largest inter-block gap — the availability knob real
// Fabric operators tune on etcdraft. The bench exits 1 when the gap
// grows from one timeout to the next; the gap is simulated time, so the
// gate is deterministic. Every point also re-audits the chain-integrity
// invariants (RunExperiment fails the run otherwise).
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Ordering failover - election timeout vs unavailability window",
         "leader crash halts block cutting for ~one election; lower "
         "election timeouts shrink the largest inter-block gap");

  JsonWriter json("ordering_failover");
  std::printf("%14s %12s %10s %14s %14s %12s\n", "elect(ms)", "gap(s)",
              "elections", "leader moves", "rebroadcasts", "ledger txs");

  double previous_gap = -1;
  bool monotone = true;
  for (double timeout_ms : {2000.0, 1000.0, 500.0, 250.0}) {
    ExperimentConfig config = Tuned(ExperimentConfig::Defaults());
    config.arrival_rate_tps = 50;
    config.fabric.ordering.replicated = true;
    config.fabric.ordering.election_timeout_min =
        static_cast<SimTime>(timeout_ms) * kMillisecond;
    config.fabric.ordering.election_timeout_max =
        2 * config.fabric.ordering.election_timeout_min;
    // Tight client-side detection so the election term dominates the
    // unavailability window instead of the ack timeout (mirrors the
    // determinism test in tests/raft_test.cc).
    config.fabric.block_timeout = 250 * kMillisecond;
    config.fabric.ordering.client_ack_timeout = 1 * kSecond;
    config.fabric.faults.CrashLeader(10 * kSecond);
    json.Config(config);

    double start = NowMs();
    FailureReport r = MustRun(config);
    double wall_ms = NowMs() - start;
    std::printf("%14.0f %12.3f %10llu %14llu %14llu %12llu\n", timeout_ms,
                r.max_interblock_gap_s,
                static_cast<unsigned long long>(r.orderer_elections),
                static_cast<unsigned long long>(r.orderer_leader_changes),
                static_cast<unsigned long long>(r.orderer_rebroadcasts),
                static_cast<unsigned long long>(r.ledger_txs));
    std::fflush(stdout);
    json.RowMetric("failover_gap", timeout_ms, config.base_seed, wall_ms,
                   "gap_s", r.max_interblock_gap_s);
    // Once the election is faster than client-side detection the gap
    // floors at the ack timeout; a few-ms wobble there is noise, not a
    // regression.
    if (previous_gap >= 0 && r.max_interblock_gap_s > previous_gap + 0.01) {
      monotone = false;
    }
    previous_gap = r.max_interblock_gap_s;
  }
  if (!monotone) {
    std::fprintf(stderr,
                 "FAIL: the unavailability window grew by more than 10 ms "
                 "between two successive election timeouts\n");
    return 1;
  }
  std::printf("unavailability window shrinks with the election timeout\n");
  return 0;
}
