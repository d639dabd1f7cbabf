#ifndef FABRICSIM_FABRIC_FABRIC_NETWORK_H_
#define FABRICSIM_FABRIC_FABRIC_NETWORK_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/admission/admission.h"
#include "src/chaincode/chaincode.h"
#include "src/chaincode/registry.h"
#include "src/channels/channel_types.h"
#include "src/client/client.h"
#include "src/common/status.h"
#include "src/ext/fabricpp/reorderer.h"
#include "src/ext/fabricsharp/fabricsharp.h"
#include "src/fabric/network_config.h"
#include "src/faults/fault_injector.h"
#include "src/ledger/block_store.h"
#include "src/ledger/ledger_stats.h"
#include "src/obs/tracer.h"
#include "src/ordering/orderer.h"
#include "src/ordering/raft_group.h"
#include "src/peer/peer.h"
#include "src/policy/endorsement_policy.h"
#include "src/sim/environment.h"
#include "src/sim/network.h"
#include "src/workload/population/client_population.h"
#include "src/workload/workload_generator.h"

namespace fabricsim {

/// A fully wired Fabric network inside one simulation environment:
/// clients, endorsing peers grouped into organizations, the ordering
/// service, the configured variant's ordering processor, and the
/// canonical ledger recorded from the reference peer.
///
/// The network hosts config.num_channels channels. Every channel is a
/// full E-O-V pipeline of its own — its own ordering service (one
/// block cutter / Raft log per channel, multiplexed over the shared
/// orderer node ids), one world state and commit record read by all
/// its peers, and its own canonical ledger — while the peers'
/// endorsement and validation resources are shared, which is where
/// cross-channel interference comes from. A single-channel network is
/// byte-identical to the pre-channel simulator.
///
/// Usage:
///   Environment env(seed);
///   FabricNetwork network(config, &env, chaincode, workload);
///   auto st = network.Init();
///   network.StartLoad(/*tps=*/100, /*duration=*/FromSeconds(180));
///   env.RunAll();           // drains in-flight work after the load
///   const BlockStore& ledger = network.ledger();
class FabricNetwork {
 public:
  FabricNetwork(FabricConfig config, Environment* env,
                std::shared_ptr<Chaincode> chaincode,
                std::shared_ptr<WorkloadGenerator> workload);
  ~FabricNetwork();

  FabricNetwork(const FabricNetwork&) = delete;
  FabricNetwork& operator=(const FabricNetwork&) = delete;

  /// Instantiates `chaincode` on one channel (Fabric's per-channel
  /// chaincode namespace). Must be called before Init(); channels
  /// without an installation run the constructor's chaincode.
  Status InstallChaincode(ChannelId channel,
                          std::shared_ptr<Chaincode> chaincode);

  /// Channel-popularity / client-pinning model applied when the load
  /// starts. Must be set before StartLoad(); ignored with one channel.
  void set_channel_affinity(const ChannelAffinityConfig& affinity) {
    channel_affinity_ = affinity;
  }

  /// Builds and bootstraps all actors. Must be called exactly once
  /// before StartLoad().
  Status Init();

  /// Starts the open-loop clients: `total_rate_tps` combined arrival
  /// rate for `duration` of simulated time. Run the environment to
  /// completion afterwards to drain the pipeline. Legacy entry point —
  /// equivalent to a single-class population spread evenly over
  /// cluster.num_clients, always expanded to per-client actors.
  void StartLoad(double total_rate_tps, SimTime duration);

  /// Population-based load: one behaviour class at a time, expanded to
  /// per-user Client actors below population.aggregation_threshold and
  /// represented by one aggregated arrival-process actor (superposed
  /// Poisson, optional MMPP modulation) at or above it. Small
  /// populations are bitwise identical to the legacy per-client path.
  /// `class_workloads[i]` overrides the network's workload for class i
  /// (nullptr entries — or an empty vector — fall back to the shared
  /// workload).
  Status StartLoad(
      const PopulationConfig& population, SimTime duration,
      std::vector<std::shared_ptr<WorkloadGenerator>> class_workloads = {});

  int num_channels() const {
    return config_.num_channels < 1 ? 1 : config_.num_channels;
  }

  /// Canonical ledger of the default channel (from the reference
  /// peer), including failed transactions — parse it for metrics, as
  /// the paper does.
  const BlockStore& ledger() const { return channels_[0].ledger; }
  /// Canonical ledger of one channel.
  const BlockStore& ledger(ChannelId channel) const {
    return channels_[static_cast<size_t>(channel)].ledger;
  }

  const RunStats& stats() const { return stats_; }
  const FabricConfig& config() const { return config_; }

  /// Streaming ledger aggregates; nullptr unless
  /// config.streaming_ledger. When set, the BlockStore ledgers above
  /// stay empty — commits fold here instead.
  const StreamingLedgerStats* ledger_stats() const {
    return ledger_stats_.get();
  }

  /// Lifecycle tracer; nullptr unless config.tracing was set before
  /// Init(). When present it holds one TxTrace per generated
  /// transaction (complete span chain + failure attribution) and the
  /// per-phase latency histograms.
  const Tracer* tracer() const { return tracer_.get(); }

  const EndorsementPolicy& policy() const { return *policy_; }
  const Network& net() const { return *net_; }
  /// Legacy single-leader orderer of the default channel. Only valid
  /// in compat mode (config.ordering.replicated == false).
  Orderer& orderer() { return *channels_[0].orderer; }
  Orderer& orderer(ChannelId channel) {
    return *channels_[static_cast<size_t>(channel)].orderer;
  }
  /// Replicated ordering service of the default channel; nullptr in
  /// compat mode.
  const RaftGroup* raft() const { return channels_[0].raft.get(); }
  RaftGroup* raft() { return channels_[0].raft.get(); }
  RaftGroup* raft(ChannelId channel) {
    return channels_[static_cast<size_t>(channel)].raft.get();
  }
  /// Transaction ids whose ordering ack reached a client (replicated
  /// mode; empty in compat mode), per channel. Input to the invariant
  /// checker's no-acked-tx-lost audit.
  const std::vector<TxId>& acked_txs(ChannelId channel = 0) const {
    return acked_txs_by_channel_[static_cast<size_t>(channel)];
  }
  const std::vector<std::unique_ptr<Peer>>& peers() const { return peers_; }
  /// World state and commit record of one channel, shared by its peers.
  const ChannelState& channel_state(ChannelId channel) const {
    return *channels_[static_cast<size_t>(channel)].state;
  }

  /// Chaincode serving `channel` (the channel's installation, or the
  /// constructor's default).
  Chaincode* chaincode_for(ChannelId channel) const;

  /// Variant processor stats (null when the variant is not active).
  const FabricPlusPlusProcessor* fabricpp() const { return fabricpp_.get(); }
  const FabricSharpProcessor* fabricsharp() const {
    return fabricsharp_.get();
  }

  /// Fault injector; nullptr when config.faults is empty. Exposes the
  /// fault transitions that fired during the run.
  const FaultInjector* fault_injector() const { return fault_injector_.get(); }

  /// Overload-protection counters; nullptr unless config.admission is
  /// an enabled config (the legacy pipeline allocates nothing).
  const AdmissionStats* admission_stats() const {
    return admission_stats_.get();
  }

 private:
  /// Everything the harness keeps per channel: the world state and
  /// commit record every peer of the channel reads, that channel's
  /// ordering service (exactly one of orderer/raft is set), the cut
  /// blocks still awaiting the reference peer's commit, and the
  /// recorded canonical ledger.
  struct ChannelRuntime {
    std::unique_ptr<ChannelState> state;
    std::unique_ptr<Orderer> orderer;  ///< compat mode
    std::unique_ptr<RaftGroup> raft;   ///< replicated mode
    std::map<uint64_t, std::shared_ptr<Block>> canonical_blocks;
    BlockStore ledger;
  };

  void RecordCommit(ChannelId channel, uint64_t block_number,
                    const ValidationOutcome& outcome);
  /// Crash-recovery catch-up source: the canonical block with this
  /// number on this channel, whether it is still awaiting the
  /// reference commit or already in the channel's commit record.
  /// nullptr when not yet cut.
  std::shared_ptr<const Block> FetchCanonicalBlock(ChannelId channel,
                                                   uint64_t number) const;

  FabricConfig config_;
  Environment* env_;
  std::shared_ptr<Chaincode> chaincode_;
  std::shared_ptr<WorkloadGenerator> workload_;
  /// Per-channel chaincode installations, keyed (channel, name); the
  /// constructor's chaincode is registered on the default channel so
  /// every channel inherits it unless overridden.
  ChaincodeRegistry chaincode_registry_;
  ChannelAffinityConfig channel_affinity_;

  std::unique_ptr<EndorsementPolicy> policy_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<FabricPlusPlusProcessor> fabricpp_;
  std::unique_ptr<FabricSharpProcessor> fabricsharp_;
  /// Allocated in Init() only when config_.admission.enabled(); shared
  /// by peers, orderers and clients, so declared before all of them to
  /// outlive them.
  std::unique_ptr<AdmissionStats> admission_stats_;
  /// Declared before peers_: the peers read the channels' states.
  std::vector<ChannelRuntime> channels_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<std::vector<Peer*>> peers_by_org_;
  std::unique_ptr<FaultInjector> fault_injector_;
  /// Routes commit verdicts back to the submitting client (resubmission
  /// mode only). Declared before clients_ so the clients that point at
  /// it are destroyed first.
  std::unordered_map<TxId, Client*> resubmit_registry_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Aggregated behaviour-class actors (population StartLoad only).
  std::vector<std::unique_ptr<ClientPopulation>> populations_;
  /// Keeps per-class workload generators alive for the actors above.
  std::vector<std::shared_ptr<WorkloadGenerator>> class_workloads_;
  std::unique_ptr<StreamingLedgerStats> ledger_stats_;

  /// Sized to num_channels() in Init(); stable addresses for the
  /// clients' ack sinks.
  std::vector<std::vector<TxId>> acked_txs_by_channel_;
  RunStats stats_;
  TxId tx_id_counter_ = 0;
  bool initialized_ = false;
};

}  // namespace fabricsim

#endif  // FABRICSIM_FABRIC_FABRIC_NETWORK_H_
