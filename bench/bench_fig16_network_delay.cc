// Figure 16: Fabric 1.4 with and without a Pumba-style injected
// network delay of 100 +/- 10 ms on one organization.
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Figure 16 - injected network delay (100±10 ms on one org)",
         "the delayed organization endorses on stale state: endorsement "
         "policy failures rise sharply, MVCC conflicts and latency rise "
         "moderately");

  std::printf("%8s %-10s %12s %14s %10s %12s\n", "rate", "delay",
              "latency(s)", "endorsement%", "mvcc%", "total fail%");
  for (double rate : {25.0, 50.0, 100.0}) {
    for (bool delayed : {false, true}) {
      ExperimentConfig config = BaseC1(rate);
      if (delayed) {
        // Whole-run delay window on org 1 via the fault subsystem
        // (FaultGoldenTest pins it to the golden recorded before the
        // fault subsystem existed).
        DelayWindow window;
        window.org = 1;
        window.extra = 100 * kMillisecond;
        window.jitter = 10 * kMillisecond;
        config.fabric.faults.Delay(window);
      }
      FailureReport r = MustRun(config);
      std::printf("%8.0f %-10s %12.3f %14.2f %10.2f %12.2f\n", rate,
                  delayed ? "100±10ms" : "none", r.avg_latency_s,
                  r.endorsement_pct, r.mvcc_pct, r.total_failure_pct);
      std::fflush(stdout);
    }
  }
  return 0;
}
