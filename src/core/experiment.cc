#include "src/core/experiment.h"

#include "src/common/strings.h"

namespace fabricsim {

ExperimentConfig ExperimentConfig::Defaults() {
  ExperimentConfig config;
  config.fabric.variant = FabricVariant::kFabric14;
  config.fabric.cluster = ClusterConfig::C1();
  config.fabric.db_type = DatabaseType::kCouchDb;
  config.fabric.block_size = 100;
  config.workload.chaincode = "ehr";
  config.workload.mix = WorkloadMix::kUniform;
  config.workload.zipf_skew = 1.0;
  config.arrival_rate_tps = 100.0;
  return config;
}

ExperimentConfig ExperimentConfig::DefaultsC2() {
  ExperimentConfig config = Defaults();
  config.fabric.cluster = ClusterConfig::C2();
  return config;
}

std::string ExperimentConfig::Describe() const {
  std::string description = StrFormat(
      "%s | %s | %s | bs=%u | %.0f tps | %d orgs x %d peers | skew=%.1f | %s",
      FabricVariantToString(fabric.variant), workload.chaincode.c_str(),
      DatabaseTypeToString(fabric.db_type), fabric.block_size,
      arrival_rate_tps, fabric.cluster.num_orgs, fabric.cluster.peers_per_org,
      workload.zipf_skew, WorkloadMixToString(workload.mix));
  // Only multi-channel runs mention channels: single-channel report
  // headers must match the pre-channel output byte for byte.
  if (fabric.num_channels > 1) {
    description += StrFormat(" | channels=%d cskew=%.1f",
                             fabric.num_channels,
                             workload.channel_affinity.skew);
  }
  // Population / streaming knobs are echoed only when engaged, for the
  // same byte-stability reason.
  if (!population.empty()) {
    description += StrFormat(
        " | population=%zu classes, %llu users, %.0f tps",
        population.classes.size(),
        static_cast<unsigned long long>(population.TotalUsers()),
        population.TotalRateTps());
  }
  if (fabric.streaming_obs) description += " | streaming-obs";
  if (fabric.streaming_ledger) description += " | streaming-ledger";
  if (!workload.genchain_mutations) description += " | static-keys";
  // Overload protection is echoed only when some mechanism is on:
  // unprotected report headers stay byte-stable.
  if (fabric.admission.enabled()) {
    description += " | admission=";
    bool first = true;
    auto append = [&](std::string part) {
      if (!first) description += ",";
      description += part;
      first = false;
    };
    if (fabric.admission.deadlines_enabled()) {
      append(StrFormat("ttl=%.1fs", ToSeconds(fabric.admission.tx_deadline)));
    }
    if (fabric.admission.endorse_bounded()) {
      append(StrFormat(
          "%s", AdmissionQueuePolicyToString(fabric.admission.endorse_policy)));
    }
    if (fabric.admission.orderer_bounded()) {
      append(StrFormat("ob=%u", fabric.admission.max_orderer_queue_depth));
    }
    if (fabric.admission.breaker.enabled) append("breaker");
    if (fabric.admission.retry_budget.enabled) append("budget");
  }
  return description;
}

}  // namespace fabricsim
