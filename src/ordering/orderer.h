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

/// The half of an ordering-service node (flow steps 4–5) that every
/// consensus mode shares: ingress (per-transaction cost, deadline drop,
/// BlockProcessor::Admit), block cutting by size/bytes/timeout, pause
/// buffering, and the cut itself. Ingress and block assembly share one
/// serial work queue, which is what saturates under Streamchain's
/// one-transaction-per-block streaming. A subclass decides when the
/// node may cut and how a cut block ships: the compat Orderer samples a
/// consensus latency and delivers, a Raft OrdererReplica appends to its
/// log and replicates.
class OrderingNode {
 public:
  struct Params {
    /// Channel this node orders: stamped on every block it cuts. One
    /// node exists per channel (per replica under Raft), all sharing
    /// the orderer node ids — one ordering *service*, one cutter per
    /// channel, exactly Fabric's layout.
    ChannelId channel = 0;
    Environment* env = nullptr;
    Network* net = nullptr;
    BlockCutter::Config cutter;
    SimTime block_timeout = 2 * kSecond;
    TimingConfig timing;
    BlockProcessor* processor = nullptr;  // may be null
    /// Delivery targets: node ids + block handlers of all peers.
    struct PeerEndpoint {
      NodeId node;
      std::function<void(std::shared_ptr<const Block>)> deliver;
    };
    std::vector<PeerEndpoint> peers;
    /// Invoked when a block is published to the peers (used by the
    /// harness to retain block ownership for the global ledger).
    std::function<void(std::shared_ptr<Block>)> on_block_cut;
    /// Invoked when a transaction is early-aborted at the orderer.
    std::function<void(const Transaction&, TxValidationCode)> on_early_abort;
    /// Admission counters for ingress deadline drops and compat
    /// throttles. Null = no admission config; drops go uncounted.
    AdmissionStats* admission_stats = nullptr;
  };

  virtual ~OrderingNode() = default;
  // Scheduled tasks hold this node's address.
  OrderingNode(const OrderingNode&) = delete;
  OrderingNode& operator=(const OrderingNode&) = delete;

  /// Fault injection: the node stops processing. Arriving envelopes are
  /// buffered at ingress (clients see no error, only latency — a Kafka
  /// hiccup, or a paused Raft leader whose heartbeats keep flowing);
  /// block cutting and timeouts are suspended. Work already on the
  /// serial queue drains.
  void Pause();

  /// Ends a pause: buffered envelopes are flushed in arrival order and
  /// the batch timeout is re-armed if the cutter holds transactions.
  void Resume();

  bool paused() const { return paused_; }
  NodeId node() const { return node_; }
  uint64_t txs_received() const { return txs_received_; }
  uint64_t txs_early_aborted() const { return txs_early_aborted_; }
  /// Envelopes that arrived during a pause and waited for the resume.
  uint64_t txs_deferred_while_paused() const {
    return txs_deferred_while_paused_;
  }

 protected:
  OrderingNode(const Params& params, NodeId node);

  /// False while the process is down: its queued work costs nothing.
  virtual bool Alive() const { return true; }
  /// Whether queued ingress, a batch timeout or a resume may cut now.
  virtual bool MayCut() const { return true; }
  /// Number of the next block that ships.
  virtual uint64_t NextBlockNumber() const = 0;
  /// `id` left ordering for good: its deadline passed at ingress or the
  /// block processor aborted it.
  virtual void OnDropped(TxId id) { (void)id; }
  /// Takes a cut block that kept at least one transaction. The block
  /// processor's extra service time is `processor_cost`.
  virtual void Ship(std::shared_ptr<Block> block, SimTime processor_cost) = 0;

  /// Counts and traces an envelope reaching ingress.
  void NoteArrival(const Transaction& tx);
  /// Buffers an accepted envelope while paused, else queues it for
  /// ingress.
  void Accept(Transaction tx);
  /// Forgets the volatile ingress state a crashed or deposed node
  /// loses: queued ingress tasks, the armed timeout, the cutter's batch
  /// and the pause backlog.
  void ResetIngress();
  /// Block assembly, signing and egress to every peer plus
  /// `extra_receivers` occupy the serial queue; `done` runs after.
  void Assemble(SimTime processor_cost, size_t extra_receivers,
                std::function<void()> done);
  /// Traces the block's transactions as cut and hands the block to
  /// `on_block_cut`.
  void Publish(const std::shared_ptr<Block>& block);
  /// Sends the block from this node to every peer endpoint.
  void Deliver(const std::shared_ptr<const Block>& block) const;

  Environment* env_;
  Network* net_;
  WorkQueue queue_;
  AdmissionStats* admission_stats_;
  bool paused_ = false;

 private:
  void Ingest(Transaction tx);
  void HandleAdmitted(Transaction tx);
  void ArmTimeout();
  void CutBlock(std::vector<Transaction> txs, BlockCutReason reason);
  void EarlyAbort(const Transaction& tx, TxValidationCode code);

  NodeId node_;
  ChannelId channel_;
  BlockCutter cutter_;
  SimTime block_timeout_;
  TimingConfig timing_;
  BlockProcessor* processor_;
  std::vector<Params::PeerEndpoint> peers_;
  std::function<void(std::shared_ptr<Block>)> on_block_cut_;
  std::function<void(const Transaction&, TxValidationCode)> on_early_abort_;

  /// Bumped when the process loses its ingress, so queued ingress
  /// tasks of the old incarnation die instead of cutting.
  uint64_t ingress_generation_ = 0;
  uint64_t timeout_generation_ = 0;
  bool timeout_armed_ = false;
  std::vector<Transaction> paused_backlog_;

  uint64_t txs_received_ = 0;
  uint64_t txs_early_aborted_ = 0;
  uint64_t txs_deferred_while_paused_ = 0;
};

/// The compat ordering service, modelled as its Kafka/Raft leader: an
/// OrderingNode whose cut blocks pay a sampled ConsensusModel latency
/// and are then delivered to every peer.
class Orderer : public OrderingNode {
 public:
  struct Params : OrderingNode::Params {
    NodeId node = 0;
    /// Defaults derive from the cluster/timing presets (3 orderers,
    /// 4 ms Kafka round trip) instead of repeating the literals here —
    /// a changed ClusterConfig default can't silently diverge from the
    /// consensus layer.
    ConsensusModel consensus{ClusterConfig().num_orderers,
                             TimingConfig().consensus_latency};
    Rng rng{1, 1};
    /// Overload protection (src/admission): bounded broadcast ingress.
    /// Null = unbounded ingress.
    const AdmissionConfig* admission = nullptr;
  };

  explicit Orderer(Params params);

  /// Handles a transaction submitted by a client (already delivered
  /// through the network). When the bounded broadcast ingress is full,
  /// the envelope is rejected and `on_throttle` is invoked (the client
  /// routes it back over the network as an explicit throttle signal).
  /// With no admission bound configured every envelope is accepted.
  void SubmitTransaction(Transaction tx,
                         const std::function<void()>& on_throttle = nullptr);

  uint64_t blocks_cut() const { return next_block_number_ - 1; }

 private:
  uint64_t NextBlockNumber() const override { return next_block_number_; }
  void Ship(std::shared_ptr<Block> block, SimTime processor_cost) override;

  ConsensusModel consensus_;
  Rng rng_;
  /// Bounded broadcast ingress depth; 0 = unbounded.
  size_t max_queue_depth_;
  uint64_t next_block_number_ = 1;
};

}  // namespace fabricsim

#endif  // FABRICSIM_ORDERING_ORDERER_H_
