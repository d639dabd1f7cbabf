// Table 4: effect of database type with the genChain workloads —
// average transaction latency, failure percentage, and the configured
// per-function-call latencies.
#include "bench/bench_util.h"
#include "src/statedb/latency_profile.h"

using namespace fabricsim;
using namespace fabricsim::bench;

int main() {
  Header("Table 4 - CouchDB vs LevelDB across genChain workloads",
         "CouchDB is slower for every workload; range-heavy collapses on "
         "CouchDB (101.63s vs 4.14s in the paper) because ranges are read "
         "at endorsement AND re-read at validation");

  std::printf("%-14s %18s %18s %16s %16s\n", "workload", "CouchDB lat(s)",
              "LevelDB lat(s)", "CouchDB fail%", "LevelDB fail%");
  for (WorkloadMix mix :
       {WorkloadMix::kReadHeavy, WorkloadMix::kInsertHeavy,
        WorkloadMix::kUpdateHeavy, WorkloadMix::kRangeHeavy,
        WorkloadMix::kDeleteHeavy}) {
    double lat[2];
    double fail[2];
    int i = 0;
    for (DatabaseType db : {DatabaseType::kCouchDb, DatabaseType::kLevelDb}) {
      ExperimentConfig config = BaseC2(100);
      config.workload.chaincode = "genchain";
      config.workload.mix = mix;
      config.fabric.db_type = db;
      FailureReport r = MustRun(config);
      lat[i] = r.avg_latency_s;
      fail[i] = r.total_failure_pct;
      ++i;
    }
    std::printf("%-14s %18.2f %18.2f %16.2f %16.2f\n",
                WorkloadMixToString(mix), lat[0], lat[1], fail[0], fail[1]);
    std::fflush(stdout);
  }

  std::printf("\nfunction call latency model (ms), from the paper's "
              "measurements:\n");
  std::printf("%-14s %10s %10s\n", "call", "CouchDB", "LevelDB");
  DbLatencyProfile couch = DbLatencyProfile::CouchDb();
  DbLatencyProfile level = DbLatencyProfile::LevelDb();
  std::printf("%-14s %10.1f %10.1f\n", "GetState", ToMillis(couch.get),
              ToMillis(level.get));
  std::printf("%-14s %10.1f %10.1f\n", "PutState", ToMillis(couch.put),
              ToMillis(level.put));
  std::printf("%-14s %10.1f %10.1f\n", "GetRange (8)",
              ToMillis(couch.range_base + 8 * couch.range_per_key),
              ToMillis(level.range_base + 8 * level.range_per_key));
  std::printf("%-14s %10.1f %10.1f\n", "DeleteState", ToMillis(couch.del),
              ToMillis(level.del));
  return 0;
}
