#ifndef FABRICSIM_CORE_EXPERIMENT_H_
#define FABRICSIM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/chaincode/chaincode.h"
#include "src/common/status.h"
#include "src/fabric/network_config.h"
#include "src/policy/policy_presets.h"
#include "src/workload/population/population.h"
#include "src/workload/workload_spec.h"

namespace fabricsim {

/// One experiment = one Fabric configuration + one workload + a load
/// profile, repeated over several seeds (the paper repeats every
/// experiment at least 3 times and reports averages).
struct ExperimentConfig {
  FabricConfig fabric;
  WorkloadConfig workload;
  /// Behaviour-class client population. When empty (the default) the
  /// run uses the legacy flat client pool driven by arrival_rate_tps;
  /// when set it replaces arrival_rate_tps/cluster.num_clients as the
  /// load model (per-class rates, retry policies, channel affinities,
  /// chaincode mixes, optional MMPP modulation — aggregated above the
  /// population's threshold).
  PopulationConfig population;
  double arrival_rate_tps = 100.0;
  /// Load phase duration in simulated time. The paper drives load for
  /// 3 minutes; 60 s is statistically equivalent here and keeps the
  /// full sweep suite fast. In-flight work always drains fully.
  SimTime duration = 60 * kSecond;
  int repetitions = 3;
  uint64_t base_seed = 42;

  /// Paper Table 3 defaults: Fabric 1.4, EHR, CouchDB, block size 100,
  /// 100 tps, policy P0, C1 cluster (2 orgs x 2 peers), Zipf skew 1,
  /// uniform workload.
  static ExperimentConfig Defaults();

  /// Same defaults on the C2 cluster (8 orgs x 4 peers, 25 clients).
  static ExperimentConfig DefaultsC2();

  /// One-line description for report headers.
  std::string Describe() const;

  class Builder;
};

/// Fluent construction of experiment configurations, so a bench figure
/// reads as one declarative expression:
///
///   ExperimentConfig config = ExperimentConfig::Builder()
///                                 .Cluster(ClusterConfig::C2())
///                                 .BlockSize(100)
///                                 .RateTps(150)
///                                 .Policy(PolicyPreset::kP3Quorum)
///                                 .Build();
///
/// Starts from ExperimentConfig::Defaults(); every setter overrides
/// one knob. Policy presets are resolved against the final
/// organization count at Build() time, so Policy() and Cluster() may
/// be called in either order.
class ExperimentConfig::Builder {
 public:
  /// Starts from the paper's Table 3 defaults.
  Builder() : config_(ExperimentConfig::Defaults()) {}
  /// Starts from an existing configuration.
  explicit Builder(ExperimentConfig base) : config_(std::move(base)) {}

  Builder& Variant(FabricVariant variant) {
    config_.fabric.variant = variant;
    return *this;
  }
  Builder& Cluster(ClusterConfig cluster) {
    config_.fabric.cluster = cluster;
    return *this;
  }
  Builder& Database(DatabaseType db_type) {
    config_.fabric.db_type = db_type;
    return *this;
  }
  Builder& BlockSize(uint32_t block_size) {
    config_.fabric.block_size = block_size;
    return *this;
  }
  Builder& BlockTimeout(SimTime timeout) {
    config_.fabric.block_timeout = timeout;
    return *this;
  }
  /// Policy preset, instantiated for the final org count at Build().
  Builder& Policy(PolicyPreset preset) {
    policy_preset_ = preset;
    return *this;
  }
  /// Raw policy text (PolicyParser grammar); overrides Policy().
  Builder& PolicyText(std::string text) {
    policy_preset_.reset();
    config_.fabric.policy_text = std::move(text);
    return *this;
  }
  Builder& Chaincode(std::string name) {
    config_.workload.chaincode = std::move(name);
    return *this;
  }
  Builder& Mix(WorkloadMix mix) {
    config_.workload.mix = mix;
    return *this;
  }
  Builder& ZipfSkew(double skew) {
    config_.workload.zipf_skew = skew;
    return *this;
  }
  Builder& RateTps(double tps) {
    config_.arrival_rate_tps = tps;
    return *this;
  }
  Builder& Duration(SimTime duration) {
    config_.duration = duration;
    return *this;
  }
  Builder& Repetitions(int repetitions) {
    config_.repetitions = repetitions;
    return *this;
  }
  Builder& Seed(uint64_t seed) {
    config_.base_seed = seed;
    return *this;
  }
  Builder& Tracing(bool on = true) {
    config_.fabric.tracing = on;
    return *this;
  }
  /// Behaviour-class population (replaces the flat RateTps() client
  /// pool; see ExperimentConfig::population).
  Builder& Population(PopulationConfig population) {
    config_.population = std::move(population);
    return *this;
  }
  /// Memory-bounded streaming tracer (sketches + failure exemplars
  /// instead of dense per-transaction spans).
  Builder& StreamingObservability(bool on = true) {
    config_.fabric.streaming_obs = on;
    return *this;
  }
  /// Keep no canonical ledger: every run folds commits into
  /// aggregates, and this drops each block after its fold.
  Builder& StreamingLedger(bool on = true) {
    config_.fabric.streaming_ledger = on;
    return *this;
  }
  Builder& SubmitReadOnly(bool on) {
    config_.fabric.submit_read_only = on;
    return *this;
  }
  /// Deterministic fault schedule for every repetition of the run.
  Builder& Faults(FaultPlan plan) {
    config_.fabric.faults = std::move(plan);
    return *this;
  }
  /// Client endorsement-retry / MVCC-resubmission policy.
  Builder& Retry(ClientRetryPolicy retry) {
    config_.fabric.retry = retry;
    return *this;
  }
  /// Overload protection (deadlines, admission control, backpressure,
  /// circuit breaker, retry budget). The default — a disabled config —
  /// reproduces the unprotected pipeline bitwise.
  Builder& Admission(AdmissionConfig admission) {
    config_.fabric.admission = admission;
    return *this;
  }
  /// Replicated (Raft) ordering service configuration. Set
  /// ordering.replicated = true to leave compat mode.
  Builder& ReplicatedOrdering(OrderingConfig ordering) {
    config_.fabric.ordering = ordering;
    return *this;
  }
  /// Number of channels the network hosts (sharded ledgers). 1 (the
  /// default) is the classic single-channel network.
  Builder& Channels(int num_channels) {
    config_.fabric.num_channels = num_channels;
    return *this;
  }
  /// Zipf exponent of channel popularity (0 = uniform spread).
  Builder& ChannelSkew(double skew) {
    config_.workload.channel_affinity.skew = skew;
    return *this;
  }
  /// Pins every client to a subset of this many channels (0 = all
  /// channels visible to every client).
  Builder& ChannelsPerClient(int channels_per_client) {
    config_.workload.channel_affinity.channels_per_client =
        channels_per_client;
    return *this;
  }
  /// Pins every client to exactly this channel (scenario packs aim one
  /// behaviour class at one channel's ledger this way).
  Builder& PinnedChannel(int channel) {
    config_.workload.channel_affinity.pinned_channel = channel;
    return *this;
  }
  /// tpcc only: warehouse count, the TPC-C hotspot sweep knob (W
  /// warehouses = W x 10 district rows carrying ~88% of the mix).
  Builder& TpccWarehouses(int warehouses) {
    config_.workload.tpcc.warehouses = warehouses;
    return *this;
  }

  ExperimentConfig Build() const {
    ExperimentConfig config = config_;
    if (policy_preset_.has_value()) {
      config.fabric.policy_text =
          MakePolicy(*policy_preset_, config.fabric.cluster.num_orgs)
              .ToString();
    }
    return config;
  }

 private:
  ExperimentConfig config_;
  std::optional<PolicyPreset> policy_preset_;
};

/// Instantiates the chaincode the workload refers to, with key-space
/// parameters taken from the workload config (genChain) or the paper's
/// defaults (use-case chaincodes).
Result<std::shared_ptr<Chaincode>> MakeChaincodeFor(
    const WorkloadConfig& workload);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_EXPERIMENT_H_
