// fabricsim_cli — run a single experiment from the command line and
// print the failure report (plus optional CSV for scripting).
//
//   fabricsim_cli [--variant=fabric14|fabricpp|streamchain|fabricsharp]
//                 [--chaincode=ehr|dv|scm|drm|genchain|tpcc|asset]
//                 [--mix=uniform|read|insert|update|delete|range]
//                 [--db=couchdb|leveldb] [--cluster=c1|c2]
//                 [--block-size=N] [--rate=TPS] [--duration-s=S]
//                 [--skew=Z] [--orgs=N] [--policy=TEXT] [--seed=N]
//                 [--reps=N] [--csv]
//
// A numeric flag must parse in full and fit its field, and --rate and
// --duration-s must be positive; otherwise the usage line is printed
// and the exit code is 2. An unknown chaincode prints an error that
// lists the known ones, and the exit code is 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "src/core/recommendations.h"
#include "src/core/runner.h"

using namespace fabricsim;

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

// Parses all of `text` into `*out`. False when characters are left
// over, when the value does not fit T, or when a floating-point value
// is not finite.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--variant=..] [--chaincode=..] [--mix=..] "
               "[--db=..] [--cluster=c1|c2] [--block-size=N] [--rate=TPS] "
               "[--duration-s=S] [--skew=Z] [--orgs=N] [--policy=TEXT] "
               "[--seed=N] [--reps=N] [--csv]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 30 * kSecond;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "variant", &value)) {
      if (value == "fabric14") {
        config.fabric.variant = FabricVariant::kFabric14;
      } else if (value == "fabricpp") {
        config.fabric.variant = FabricVariant::kFabricPlusPlus;
      } else if (value == "streamchain") {
        config.fabric.variant = FabricVariant::kStreamchain;
      } else if (value == "fabricsharp") {
        config.fabric.variant = FabricVariant::kFabricSharp;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "chaincode", &value)) {
      config.workload.chaincode = value;
    } else if (ParseFlag(argv[i], "mix", &value)) {
      if (value == "uniform") {
        config.workload.mix = WorkloadMix::kUniform;
      } else if (value == "read") {
        config.workload.mix = WorkloadMix::kReadHeavy;
      } else if (value == "insert") {
        config.workload.mix = WorkloadMix::kInsertHeavy;
      } else if (value == "update") {
        config.workload.mix = WorkloadMix::kUpdateHeavy;
      } else if (value == "delete") {
        config.workload.mix = WorkloadMix::kDeleteHeavy;
      } else if (value == "range") {
        config.workload.mix = WorkloadMix::kRangeHeavy;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "db", &value)) {
      if (value == "couchdb") {
        config.fabric.db_type = DatabaseType::kCouchDb;
      } else if (value == "leveldb") {
        config.fabric.db_type = DatabaseType::kLevelDb;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "cluster", &value)) {
      if (value == "c1") {
        config.fabric.cluster = ClusterConfig::C1();
      } else if (value == "c2") {
        config.fabric.cluster = ClusterConfig::C2();
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "block-size", &value)) {
      if (!ParseNumber(value, &config.fabric.block_size)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "rate", &value)) {
      if (!ParseNumber(value, &config.arrival_rate_tps) ||
          config.arrival_rate_tps <= 0) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "duration-s", &value)) {
      double seconds = 0;
      // The product FromSeconds converts must fit SimTime.
      if (!ParseNumber(value, &seconds) || seconds <= 0 ||
          seconds * static_cast<double>(kSecond) >= 0x1p63) {
        return Usage(argv[0]);
      }
      config.duration = FromSeconds(seconds);
    } else if (ParseFlag(argv[i], "skew", &value)) {
      if (!ParseNumber(value, &config.workload.zipf_skew)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "orgs", &value)) {
      if (!ParseNumber(value, &config.fabric.cluster.num_orgs)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "policy", &value)) {
      config.fabric.policy_text = value;
    } else if (ParseFlag(argv[i], "seed", &value)) {
      if (!ParseNumber(value, &config.base_seed)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "reps", &value)) {
      if (!ParseNumber(value, &config.repetitions)) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      return Usage(argv[0]);
    }
  }

  Result<ExperimentResult> result = RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const FailureReport& r = result.value().mean;

  if (csv) {
    std::printf(
        "variant,chaincode,db,block_size,rate_tps,skew,total_fail_pct,"
        "endorsement_pct,mvcc_intra_pct,mvcc_inter_pct,phantom_pct,"
        "reorder_abort_pct,early_abort_pct,avg_latency_s,"
        "committed_tput_tps\n");
    std::printf("%s,%s,%s,%u,%.1f,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
                "%.4f,%.2f\n",
                FabricVariantToString(config.fabric.variant),
                config.workload.chaincode.c_str(),
                DatabaseTypeToString(config.fabric.db_type),
                config.fabric.block_size, config.arrival_rate_tps,
                config.workload.zipf_skew, r.total_failure_pct,
                r.endorsement_pct, r.mvcc_intra_pct, r.mvcc_inter_pct,
                r.phantom_pct, r.reorder_abort_pct, r.early_abort_pct,
                r.avg_latency_s, r.committed_throughput_tps);
    return 0;
  }

  std::printf("config: %s\n\n%s\n", config.Describe().c_str(),
              r.ToString().c_str());
  std::printf("%s", FormatRecommendations(
                        DeriveRecommendations(config, r))
                        .c_str());
  return 0;
}
