// Figure 11: effect of the state database (CouchDB vs LevelDB) on
// latency and failures (EHR, uniform workload).
#include "bench/bench_util.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Figure 11 - CouchDB vs LevelDB (EHR, uniform workload)",
         "LevelDB (embedded) beats CouchDB (external REST) on latency, "
         "endorsement failures and MVCC conflicts");

  std::printf("%-10s %12s %14s %14s %14s %10s\n", "database", "latency(s)",
              "endorsement%", "inter mvcc%", "intra mvcc%", "wall(ms)");
  for (DatabaseType db : {DatabaseType::kCouchDb, DatabaseType::kLevelDb}) {
    ExperimentConfig config = BaseC2(100);
    config.fabric.db_type = db;
    double t0 = NowMs();
    FailureReport r = MustRun(config);
    double wall = NowMs() - t0;
    std::printf("%-10s %12.3f %14.2f %14.2f %14.2f %10.0f\n",
                DatabaseTypeToString(db), r.avg_latency_s, r.endorsement_pct,
                r.mvcc_inter_pct, r.mvcc_intra_pct, wall);
    std::fflush(stdout);
  }
  return 0;
}
