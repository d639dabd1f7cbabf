// Figure 4: best block size at different transaction arrival rates,
// for all four use-case chaincodes on the C1 and C2 clusters.
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Figure 4 - best block size vs transaction arrival rate",
         "best block size grows ~linearly with the arrival rate; the "
         "larger C2 cluster sustains larger blocks at high rates; DV "
         "responds least (range queries dominate its failures)");

  const std::vector<uint32_t> sizes = {10, 25, 50, 100, 200};
  const std::vector<double> rates = {10, 25, 50, 100, 150, 200};
  const char* const clusters[] = {"C1", "C2"};
  const char* const chaincodes[] = {"ehr", "dv", "scm", "drm"};

  // Every (cluster, chaincode, rate) sweep goes to the pool as one job
  // list: 240 points.
  std::vector<ExperimentConfig> bases;
  for (const char* cluster : clusters) {
    for (const char* chaincode : chaincodes) {
      for (double rate : rates) {
        ExperimentConfig config =
            std::string(cluster) == "C1" ? BaseC1(rate) : BaseC2(rate);
        config.workload.chaincode = chaincode;
        // One seed per point and a shorter load phase keep this bench
        // quick.
        config.repetitions = 1;
        if (config.duration > 20 * kSecond) config.duration = 20 * kSecond;
        bases.push_back(config);
      }
    }
  }
  Result<std::vector<std::vector<SweepPoint>>> sweeps =
      RunSweeps(bases, BlockSizeSweepSpec(sizes));
  if (!sweeps.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweeps.status().ToString().c_str());
    return 1;
  }

  size_t next = 0;
  for (const char* cluster : clusters) {
    std::printf("\n[%s] best block size (min-failure %%):\n", cluster);
    std::printf("%-10s", "chaincode");
    for (double rate : rates) std::printf(" %8.0ftps", rate);
    std::printf("\n");
    for (const char* chaincode : chaincodes) {
      std::printf("%-10s", chaincode);
      for (size_t r = 0; r < rates.size(); ++r) {
        std::printf("   %4u bs ",
                    FindBestBlockSize(sweeps.value()[next++]).best_block_size);
      }
      std::printf("\n");
    }
  }
  return 0;
}
