// Parallel experiment-runner scaling: the same 4-point x 3-repetition
// block-size sweep executed serially (FABRICSIM_JOBS=1) and with
// increasing worker counts. Checks that every report is bitwise
// identical across job counts, prints the wall-clock speedup, and
// records the trajectory in BENCH_parallel_scaling.json.
#include <thread>

#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Parallel scaling - thread-pooled sweep over independent DES "
         "instances",
         "repetitions and sweep points are embarrassingly parallel (each "
         "builds a fresh network); wall time should shrink ~linearly with "
         "cores while results stay bitwise identical");

  // Fixed size regardless of FABRICSIM_FULL: the subject here is the
  // runner, not the figures. 4 points x 3 seeds = 12 independent jobs.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 100;
  config.repetitions = 3;
  const std::vector<uint32_t> sizes = {10, 25, 50, 100};

  unsigned hw = HardwareConcurrency();
  std::vector<int> job_counts = {1, 2, 4};
  if (hw > 4) job_counts.push_back(static_cast<int>(hw));
  if (SingleCoreHost()) {
    std::printf("note: single-core host — determinism is still checked, "
                "but no wall-clock speedup is expected\n");
  }

  JsonWriter json("parallel_scaling");
  json.Config(config);
  std::printf("%8s %12s %10s %10s\n", "jobs", "wall(ms)", "speedup",
              "identical");

  double serial_ms = 0;
  std::vector<SweepPoint> reference;
  for (int jobs : job_counts) {
    SetParallelJobs(jobs);
    double start = NowMs();
    Result<std::vector<SweepPoint>> points =
        RunSweep(config, BlockSizeSweepSpec(sizes));
    double wall = NowMs() - start;
    if (!points.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }
    bool identical = true;
    if (jobs == 1) {
      serial_ms = wall;
      reference = points.value();
    } else {
      for (size_t i = 0; i < sizes.size(); ++i) {
        identical &= reference[i].report == points.value()[i].report;
      }
    }
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION at %d jobs: parallel sweep "
                   "diverged from the serial run\n",
                   jobs);
      return 1;
    }
    double speedup = wall > 0 ? serial_ms / wall : 0;
    std::printf("%8d %12.1f %9.2fx %10s\n", jobs, wall, speedup,
                jobs == 1 ? "(ref)" : "yes");
    std::fflush(stdout);
    json.Row("parallel_scaling", jobs, config.base_seed, wall,
             reference.empty() ? 0 : reference[0].report.total_failure_pct);
  }
  // Restore the env-driven default for anything run after us.
  ParallelJobsFromEnv();
  std::printf("hardware_concurrency: %u\n", hw);
  return 0;
}
