// Intra-run execution scaling: one DES run executed serially
// (ExecutionMode::kSerial) and with per-channel commit pipelines
// (ExecutionMode::kThreaded) at increasing worker counts, across
// channel counts. Inter-run parallelism is pinned to one job so the
// subject is the threaded executor inside a single run, not the sweep
// fan-out. Every threaded report must be field-identical to the
// serial reference; that identity is the only check that fails the
// bench. Wall-clock speedup on the same valid goodput is printed and
// recorded in BENCH_intra_run_scaling.json, but never gated: on a
// 4-core host the best speedup moved between 0.88x and 1.06x from one
// run to the next, so a speedup gate would pass or fail on noise.
//
// FABRICSIM_SMOKE=1 shrinks the grid for CI smoke coverage;
// FABRICSIM_FULL=1 lengthens the runs for stabler speedup numbers.
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

namespace {

bool ReportsEqual(const FailureReport& a, const FailureReport& b) {
  return a.ledger_txs == b.ledger_txs && a.valid_txs == b.valid_txs &&
         a.endorsement_failures == b.endorsement_failures &&
         a.mvcc_intra == b.mvcc_intra && a.mvcc_inter == b.mvcc_inter &&
         a.phantom == b.phantom && a.submitted_txs == b.submitted_txs &&
         a.total_failure_pct == b.total_failure_pct &&
         a.avg_latency_s == b.avg_latency_s &&
         a.valid_throughput_tps == b.valid_throughput_tps &&
         a.committed_throughput_tps == b.committed_throughput_tps;
}

// Best-of-N wall clock for one (channels, execution) cell. The report
// of every attempt must agree (determinism), so any of them serves as
// the cell's result.
struct Cell {
  FailureReport report;
  double wall_ms = 0;
};

Cell Measure(const ExperimentConfig& config, int attempts) {
  Cell cell;
  for (int i = 0; i < attempts; ++i) {
    double start = NowMs();
    Result<FailureReport> report = RunOnce(config, config.base_seed);
    double wall = NowMs() - start;
    if (!report.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    if (i == 0) {
      cell.report = std::move(report).value();
      cell.wall_ms = wall;
    } else {
      if (!ReportsEqual(cell.report, report.value())) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: repeated run of the "
                             "same cell diverged\n");
        std::exit(1);
      }
      if (wall < cell.wall_ms) cell.wall_ms = wall;
    }
  }
  return cell;
}

}  // namespace

int main() {
  Header("Intra-run scaling - channel-parallel commit pipelines inside "
         "one DES run",
         "per-channel validation/commit work moves to worker threads "
         "behind a lookahead barrier; wall time should shrink with "
         "threads (best with many channels) while every report stays "
         "bitwise identical to serial execution");

  const bool smoke = std::getenv("FABRICSIM_SMOKE") != nullptr;
  const bool full = std::getenv("FABRICSIM_FULL") != nullptr;
  const SimTime duration =
      smoke ? 5 * kSecond : (full ? 60 * kSecond : 20 * kSecond);
  const int attempts = smoke ? 1 : (full ? 3 : 2);

  unsigned hw = HardwareConcurrency();
  std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2}
                                         : std::vector<int>{1, 2, 4};
  if (!smoke && hw > 4) thread_counts.push_back(static_cast<int>(hw));
  const std::vector<int> channel_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};

  std::printf("hardware_concurrency: %u\n", hw);
  if (SingleCoreHost()) {
    std::printf("note: single-core host — identity with serial execution "
                "is still checked, but no wall-clock speedup is expected\n");
  }

  // Pin the experiment runner to one job: intra-run threads are the
  // only parallelism under test.
  SetParallelJobs(1);

  JsonWriter json("intra_run_scaling");
  std::printf("%9s %8s %12s %10s %12s %10s\n", "channels", "threads",
              "wall(ms)", "speedup", "goodput", "identical");

  double best_speedup = 0;
  for (int channels : channel_counts) {
    // Constant per-channel load: total work grows with the channel
    // count, which is exactly the regime the pipelines parallelize.
    ExperimentConfig base = ExperimentConfig::Builder()
                                .Channels(channels)
                                .ChannelSkew(0.6)
                                .RateTps(100.0 * channels)
                                .Duration(duration)
                                .Repetitions(1)
                                .Build();
    if (channels == 1) json.Config(base);

    ExperimentConfig serial = base;
    serial.fabric.execution = ExecutionConfig::Serial();
    Cell reference = Measure(serial, attempts);
    std::printf("%9d %8s %12.1f %9s %10.1f %10s\n", channels, "serial",
                reference.wall_ms, "(ref)",
                reference.report.valid_throughput_tps, "(ref)");
    json.RowMetric("intra_c" + std::to_string(channels), 0, base.base_seed,
                   reference.wall_ms, "speedup", 1.0);

    for (int threads : thread_counts) {
      ExperimentConfig threaded = base;
      threaded.fabric.execution = ExecutionConfig::Threaded(threads);
      Cell cell = Measure(threaded, attempts);
      bool identical = ReportsEqual(reference.report, cell.report);
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at channels=%d threads=%d: "
                     "threaded run diverged from serial execution\n",
                     channels, threads);
        return 1;
      }
      double speedup =
          cell.wall_ms > 0 ? reference.wall_ms / cell.wall_ms : 0;
      if (speedup > best_speedup) best_speedup = speedup;
      std::printf("%9d %8d %12.1f %9.2fx %10.1f %10s\n", channels, threads,
                  cell.wall_ms, speedup,
                  cell.report.valid_throughput_tps, "yes");
      std::fflush(stdout);
      json.RowMetric("intra_c" + std::to_string(channels), threads,
                     base.base_seed, cell.wall_ms, "speedup", speedup);
    }
  }
  // Restore the env-driven default for anything run after us.
  ParallelJobsFromEnv();

  std::printf("best threaded speedup: %.2fx on a %u-core host (report "
              "only)\n",
              best_speedup, hw);
  return 0;
}
