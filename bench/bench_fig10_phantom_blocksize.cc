// Figure 10: phantom read conflicts at different block sizes
// (SCM chaincode — its queryASN scans 400-800 units — 100 tps, C2).
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Figure 10 - phantom read conflicts vs block size (SCM, C2)",
         "a single range query depends on many writers within and across "
         "blocks, so phantom reads are not significantly affected by "
         "block size");

  ExperimentConfig base = BaseC2(100);
  base.workload.chaincode = "scm";
  // All (block size, seed) runs go to the pool as one job list.
  Result<std::vector<SweepPoint>> points =
      RunSweep(base, BlockSizeSweepSpec(DefaultBlockSizes()));
  if (!points.ok()) {
    std::fprintf(stderr, "%s\n", points.status().ToString().c_str());
    return 1;
  }
  std::printf("%10s %14s %14s\n", "block size", "phantom%", "total fail%");
  for (const SweepPoint& point : points.value()) {
    std::printf("%10u %14.2f %14.2f\n", static_cast<uint32_t>(point.value),
                point.report.phantom_pct, point.report.total_failure_pct);
  }
  return 0;
}
