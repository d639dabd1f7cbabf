#ifndef FABRICSIM_ORDERING_ORDERER_H_
#define FABRICSIM_ORDERING_ORDERER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/admission/admission.h"
#include "src/common/rng.h"
#include "src/fabric/network_config.h"
#include "src/ledger/block.h"
#include "src/ordering/block_cutter.h"
#include "src/ordering/consensus.h"
#include "src/sim/network.h"
#include "src/sim/work_queue.h"

namespace fabricsim {

/// Variant hook inside the ordering service. Stock Fabric 1.4 uses the
/// default (pass-through) behaviour; Fabric++ plugs in reordering at
/// block cut, FabricSharp plugs in serializability admission control.
class BlockProcessor {
 public:
  virtual ~BlockProcessor() = default;

  /// Called when a transaction reaches the orderer, before it enters
  /// the cutter. Return false to abort it immediately (FabricSharp's
  /// early abort); set *reject_code accordingly.
  virtual bool Admit(const Transaction& tx, TxValidationCode* reject_code) {
    (void)tx;
    (void)reject_code;
    return true;
  }

  /// A transaction dropped during the ordering phase, tagged with the
  /// abort reason (kAbortedByReordering for Fabric++ cycle aborts,
  /// kAbortedNotSerializable for FabricSharp).
  using EarlyAbort = std::pair<Transaction, TxValidationCode>;

  /// Called once the block content is fixed, before delivery. May
  /// reorder block->txs, pre-mark block->results (size must match
  /// txs), and remove transactions from the block entirely by moving
  /// them into *early_aborted — both Fabric++ and FabricSharp abort in
  /// the ordering phase, so such transactions never reach the ledger.
  /// Returns extra ordering service time this processing costs.
  virtual SimTime OnBlockCut(Block* block,
                             std::vector<EarlyAbort>* early_aborted) {
    (void)block;
    (void)early_aborted;
    return 0;
  }
};

/// The ordering service (flow steps 4–5), modelled as its Kafka/Raft
/// leader: ingress per-transaction handling, block cutting by
/// size/bytes/timeout, consensus latency, and per-peer delivery over
/// the network. Ingress and block assembly/egress share one serial
/// work queue, which is what saturates under Streamchain's
/// one-transaction-per-block streaming.
class Orderer {
 public:
  struct Params {
    NodeId node = 0;
    /// Channel this ordering pipeline serves: stamped on every block
    /// it cuts. One Orderer instance exists per channel, all sharing
    /// the same orderer node id (one ordering *service*, one cutter
    /// per channel — exactly Fabric's layout).
    ChannelId channel = 0;
    Environment* env = nullptr;
    Network* net = nullptr;
    BlockCutter::Config cutter;
    SimTime block_timeout = 2 * kSecond;
    TimingConfig timing;
    /// Defaults derive from the cluster/timing presets (3 orderers,
    /// 4 ms Kafka round trip) instead of repeating the literals here —
    /// a changed ClusterConfig default can't silently diverge from the
    /// consensus layer.
    ConsensusModel consensus{ClusterConfig().num_orderers,
                             TimingConfig().consensus_latency};
    Rng rng{1, 1};
    BlockProcessor* processor = nullptr;  // may be null
    /// Delivery targets: node ids + block handlers of all peers.
    struct PeerEndpoint {
      NodeId node;
      std::function<void(std::shared_ptr<const Block>)> deliver;
    };
    std::vector<PeerEndpoint> peers;
    /// Invoked when the canonical block is cut (used by the harness to
    /// retain block ownership for the global ledger).
    std::function<void(std::shared_ptr<Block>)> on_block_cut;
    /// Invoked when a transaction is early-aborted at the orderer.
    std::function<void(const Transaction&, TxValidationCode)> on_early_abort;
    /// Overload protection (src/admission): bounded broadcast ingress
    /// and deadline drops. Null = legacy unbounded ingress.
    const AdmissionConfig* admission = nullptr;
    AdmissionStats* admission_stats = nullptr;
  };

  explicit Orderer(Params params);

  /// Handles a transaction submitted by a client (already delivered
  /// through the network). When the bounded broadcast ingress is full,
  /// the envelope is rejected and `on_throttle` is invoked (the client
  /// routes it back over the network as an explicit throttle signal).
  /// With no admission bound configured every envelope is accepted.
  void SubmitTransaction(Transaction tx,
                         const std::function<void()>& on_throttle = nullptr);

  /// Fault injection: the ordering service stops processing. Arriving
  /// envelopes are buffered at ingress (clients see no error, only
  /// latency — a Raft leader election or Kafka hiccup); block cutting
  /// and timeouts are suspended. Work already on the serial queue
  /// drains.
  void Pause();

  /// Ends a pause: buffered envelopes are flushed in arrival order and
  /// the batch timeout is re-armed if the cutter holds transactions.
  void Resume();

  bool paused() const { return paused_; }

  uint64_t blocks_cut() const { return next_block_number_ - 1; }
  uint64_t txs_received() const { return txs_received_; }
  uint64_t txs_early_aborted() const { return txs_early_aborted_; }
  /// Envelopes that arrived during a pause and waited for the resume.
  uint64_t txs_deferred_while_paused() const {
    return txs_deferred_while_paused_;
  }

 private:
  void Ingest(Transaction tx);
  void HandleAdmitted(Transaction tx);
  void CutBlock(std::vector<Transaction> txs, BlockCutReason reason);
  void ArmTimeout();

  NodeId node_;
  ChannelId channel_;
  Environment* env_;
  Network* net_;
  BlockCutter cutter_;
  SimTime block_timeout_;
  TimingConfig timing_;
  ConsensusModel consensus_;
  Rng rng_;
  BlockProcessor* processor_;
  std::vector<Params::PeerEndpoint> peers_;
  std::function<void(std::shared_ptr<Block>)> on_block_cut_;
  std::function<void(const Transaction&, TxValidationCode)> on_early_abort_;
  const AdmissionConfig* admission_ = nullptr;
  AdmissionStats* admission_stats_ = nullptr;

  WorkQueue queue_;
  uint64_t next_block_number_ = 1;
  uint64_t txs_received_ = 0;
  uint64_t txs_early_aborted_ = 0;
  uint64_t timeout_generation_ = 0;
  bool timeout_armed_ = false;
  bool paused_ = false;
  std::vector<Transaction> paused_backlog_;
  uint64_t txs_deferred_while_paused_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_ORDERING_ORDERER_H_
