// Adaptive block size — an implementation of the paper's first future
// research direction (§6.2): calibrate the best-block-size/arrival-
// rate relation with sweeps, then let the BlockSizeAdvisor pick the
// block size as the (time-varying) load changes, and compare failures
// against a fixed default block size.
#include <cstdio>

#include "src/core/block_size_advisor.h"
#include "src/core/runner.h"
#include "src/core/sweeps.h"

using namespace fabricsim;

int main() {
  std::printf("adaptive block size demo (paper §6.2, future work)\n");
  std::printf("==================================================\n\n");

  ExperimentConfig base = ExperimentConfig::Defaults();
  base.duration = 30 * kSecond;
  base.repetitions = 1;

  // 1. Calibration: find the best block size at a few rates.
  std::printf("calibrating the rate -> best-block-size relation...\n");
  BlockSizeAdvisor advisor;
  const std::vector<uint32_t> sizes = {10, 25, 50, 100, 200};
  const std::vector<double> rates = {25.0, 50.0, 100.0, 150.0};
  std::vector<ExperimentConfig> bases;
  for (double rate : rates) {
    ExperimentConfig config = base;
    config.arrival_rate_tps = rate;
    bases.push_back(config);
  }
  Result<std::vector<std::vector<SweepPoint>>> sweeps =
      RunSweeps(bases, BlockSizeSweepSpec(sizes));
  if (!sweeps.ok()) {
    std::fprintf(stderr, "%s\n", sweeps.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < rates.size(); ++i) {
    const BlockSizeSearch search = FindBestBlockSize(sweeps.value()[i]);
    advisor.AddObservation(rates[i], search.best_block_size);
    std::printf("  %.0f tps -> best block size %u (%.1f%% failures)\n",
                rates[i], search.best_block_size, search.min_failure_pct);
  }
  std::printf("fitted slope: %.3f blocks per tps\n\n", advisor.slope());

  // 2. A day in the life: the arrival rate swings (off-peak, peak,
  //    holiday-season rush). Compare the advisor's block size against
  //    a fixed default of 100.
  std::printf("%-16s %8s %12s | %-22s | %-22s\n", "phase", "rate",
              "advised bs", "fixed bs=100 failures", "advised bs failures");
  struct Phase {
    const char* name;
    double rate;
  };
  double fixed_total = 0;
  double adaptive_total = 0;
  for (const Phase& phase : {Phase{"off-peak", 25}, Phase{"daytime", 100},
                             Phase{"peak-season", 150}}) {
    uint32_t advised = advisor.Recommend(phase.rate);

    ExperimentConfig fixed = base;
    fixed.arrival_rate_tps = phase.rate;
    fixed.fabric.block_size = 100;
    Result<ExperimentResult> fixed_result = RunExperiment(fixed);

    ExperimentConfig adaptive = base;
    adaptive.arrival_rate_tps = phase.rate;
    adaptive.fabric.block_size = advised;
    Result<ExperimentResult> adaptive_result = RunExperiment(adaptive);

    if (!fixed_result.ok() || !adaptive_result.ok()) {
      std::fprintf(stderr, "experiment failed\n");
      return 1;
    }
    double fixed_pct = fixed_result.value().mean.total_failure_pct;
    double adaptive_pct = adaptive_result.value().mean.total_failure_pct;
    fixed_total += fixed_pct;
    adaptive_total += adaptive_pct;
    std::printf("%-16s %8.0f %12u | %20.2f%% | %20.2f%%\n", phase.name,
                phase.rate, advised, fixed_pct, adaptive_pct);
  }
  std::printf("\naverage failures: fixed %.2f%% vs adaptive %.2f%% "
              "(%.0f%% relative reduction)\n",
              fixed_total / 3, adaptive_total / 3,
              100.0 * (fixed_total - adaptive_total) / fixed_total);
  return 0;
}
