// Figure 5: minimum and maximum percentage of failed transactions
// (at the best and worst block size) per chaincode on the C2 cluster.
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Figure 5 - min/max transaction failures at best/worst block size "
         "(C2)",
         "up to ~60% fewer failures at the best block size vs the worst "
         "(e.g. DRM@50tps: 21.14%% worst vs 8.07%% best); DV fails most "
         "(large range queries)");

  const std::vector<uint32_t> sizes = {10, 25, 50, 100, 200};
  const char* const chaincodes[] = {"ehr", "dv", "scm", "drm"};
  const double rates[] = {50.0, 100.0};
  std::vector<ExperimentConfig> bases;
  for (const char* chaincode : chaincodes) {
    for (double rate : rates) {
      ExperimentConfig config = BaseC2(rate);
      config.workload.chaincode = chaincode;
      config.repetitions = 1;
      bases.push_back(config);
    }
  }
  Result<std::vector<std::vector<SweepPoint>>> sweeps =
      RunSweeps(bases, BlockSizeSweepSpec(sizes));
  if (!sweeps.ok()) {
    std::fprintf(stderr, "%s\n", sweeps.status().ToString().c_str());
    return 1;
  }

  std::printf("%-10s %8s %10s %10s %10s %10s\n", "chaincode", "rate",
              "best bs", "min fail%", "worst bs", "max fail%");
  size_t next = 0;
  for (const char* chaincode : chaincodes) {
    for (double rate : rates) {
      const BlockSizeSearch s = FindBestBlockSize(sweeps.value()[next++]);
      std::printf("%-10s %8.0f %10u %10.2f %10u %10.2f\n", chaincode, rate,
                  s.best_block_size, s.min_failure_pct, s.worst_block_size,
                  s.max_failure_pct);
    }
  }
  return 0;
}
