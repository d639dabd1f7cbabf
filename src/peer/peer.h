#ifndef FABRICSIM_PEER_PEER_H_
#define FABRICSIM_PEER_PEER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/admission/admission.h"
#include "src/chaincode/chaincode.h"
#include "src/channels/channel_types.h"
#include "src/channels/channel_work_pool.h"
#include "src/common/rng.h"
#include "src/fabric/network_config.h"
#include "src/peer/committer.h"
#include "src/peer/endorser.h"
#include "src/peer/validator.h"
#include "src/sim/network.h"
#include "src/sim/work_queue.h"
#include "src/statedb/channel_state.h"

namespace fabricsim {

/// Why an endorser refused to execute a proposal (overload protection
/// only; kNone on the legacy path).
enum class ProposalReject : uint8_t {
  kNone = 0,
  /// Shed by the bounded admission queue (reject-new / drop-oldest /
  /// CoDel).
  kShed,
  /// The proposal's deadline had already passed.
  kExpired,
};

/// The endorsement response (flow step 2).
struct ProposalResponse {
  TxId tx_id = 0;
  Endorsement endorsement;
  ReadWriteSet rwset;
  bool app_ok = true;
  std::string app_error;
  /// Set when the endorser refused the proposal instead of executing
  /// it; endorsement/rwset are empty in that case.
  ProposalReject reject = ProposalReject::kNone;
};

/// A proposal sent from a client to an endorsing peer (flow step 1).
/// `reply` is invoked by the peer when the endorsement response is
/// ready; the closure the client installed routes it back over the
/// network. The response is passed by value so its rw-set is moved,
/// never copied, on the way to the client.
struct ProposalRequest {
  TxId tx_id = 0;
  ChannelId channel = 0;
  Invocation invocation;
  /// Client deadline carried with the proposal (overload protection);
  /// 0 = none.
  SimTime deadline = 0;
  std::function<void(ProposalResponse)> reply;
};

/// A peer node: endorser + validator + committer. The peer owns no
/// world state: each channel's state is one ChannelState shared by all
/// of its peers, and the peer reads it through views at its own
/// committed height — which is all that replica skew, the root of
/// endorsement failures, needs. Two execution resources model a real
/// peer process:
///  * the chaincode/endorsement path (chaincode container + endorser
///    gRPC handlers), shared by every channel — a serial queue; and
///  * the validation/commit resource (VSCC, MVCC, state DB commit): a
///    ChannelWorkPool with `timing.peer_commit_workers` workers.
///    Each channel's blocks validate strictly in order, but different
///    channels' blocks may occupy different workers concurrently —
///    channel-parallel commit speedup and cross-channel queueing
///    interference both fall out of this pool.
class Peer {
 public:
  struct Params {
    PeerId id = 0;
    OrgId org = 0;
    NodeId node = 0;
    Environment* env = nullptr;
    Network* net = nullptr;
    /// World state and commit record of each channel this peer serves
    /// (ids 0..size-1); each must outlive the peer. The peer keeps its
    /// own commit pipeline per channel.
    std::vector<ChannelState*> channel_states;
    /// Chaincode every channel falls back to.
    Chaincode* chaincode = nullptr;
    /// Optional per-channel chaincode overrides, indexed by channel;
    /// a null (or missing) entry falls back to `chaincode`.
    std::vector<Chaincode*> channel_chaincodes;
    EndorsementPolicy policy;
    DbLatencyProfile db_profile;
    TimingConfig timing;
    FabricVariant variant = FabricVariant::kFabric14;
    /// Multiplier on validation service time (<1 for Streamchain's
    /// pipelined/parallel validation).
    double validation_cost_factor = 1.0;
    /// FabricSharp: endorsement snapshot refresh interval.
    SimTime snapshot_interval = 0;
    /// Streamchain virtual block boundary: per-block fixed commit
    /// costs (state-DB batch, ledger fsync) are charged once per this
    /// many blocks (group commit). 1 = every block.
    uint32_t virtual_block_group = 1;
    Rng rng{1, 1};
    /// Invoked when a block finishes committing on this peer (used by
    /// the reference peer to record the canonical ledger).
    std::function<void(ChannelId channel, uint64_t block_number,
                       const ValidationOutcome& outcome)>
        on_commit;
    /// Overload protection (src/admission). Null = legacy unbounded
    /// endorsement queue, byte-identical to the pre-admission peer.
    const AdmissionConfig* admission = nullptr;
    AdmissionStats* admission_stats = nullptr;
  };

  explicit Peer(Params params);

  /// Handles an endorsement proposal (already delivered through the
  /// network). Queues chaincode execution on the endorsement queue.
  void HandleProposal(ProposalRequest request);

  /// Cancellation propagation (admission path only): the client
  /// abandoned this transaction — another org shed or expired it — so
  /// any sibling proposal still queued here becomes a zero-cost husk
  /// instead of burning a full chaincode simulation on a transaction
  /// that can no longer commit. No reply is sent; the client is gone.
  void CancelProposal(TxId tx_id);

  /// Handles a block delivered by the ordering service. Blocks may
  /// arrive out of order; the peer buffers and validates each
  /// channel's chain sequentially.
  void HandleBlock(std::shared_ptr<const Block> block);

  /// Source of canonical blocks by (channel, number) for crash
  /// recovery, wired by the harness. Returns nullptr when no block
  /// with that number has been cut on that channel yet.
  using BlockFetcher =
      std::function<std::shared_ptr<const Block>(ChannelId, uint64_t)>;
  void set_block_fetcher(BlockFetcher fetcher) {
    block_fetcher_ = std::move(fetcher);
  }

  /// Crash-stop: the peer stops accepting work — proposals and block
  /// deliveries that arrive while down are dropped on the floor, and
  /// queued endorsements are abandoned without a reply. Work already
  /// inside the validation pipeline still drains (journal recovery
  /// replays it on restart; modelling that replay separately is below
  /// the simulator's resolution), so committed state stays consistent.
  /// The whole process crashes: every channel the peer serves is down.
  void Crash();

  /// Brings a crashed peer back and catches it up: every canonical
  /// block it missed — on every channel — is fetched via the block
  /// fetcher and replayed, in order, through the normal validation
  /// pipeline.
  void Restart();

  bool alive() const { return alive_; }

  PeerId id() const { return id_; }
  OrgId org() const { return org_; }
  NodeId node() const { return node_; }

  int num_channels() const { return static_cast<int>(channels_.size()); }

  /// The default channel's world state as of this peer's committed
  /// height: a read-only view of the shared ChannelState, and what the
  /// validator reads.
  const StateView& state() const { return *channels_[0].state; }
  const StateView& state(ChannelId channel) const {
    return *channels_[static_cast<size_t>(channel)].state;
  }

  /// The view the endorser executes against. Same object as state()
  /// except under FabricSharp, whose view reads at the endorsement
  /// snapshot's height, which lags the committed height.
  const StateView& endorse_view() const {
    return *channels_[0].endorse_view;
  }
  const StateView& endorse_view(ChannelId channel) const {
    return *channels_[static_cast<size_t>(channel)].endorse_view;
  }

  uint64_t committed_height() const { return channels_[0].state->height(); }
  uint64_t committed_height(ChannelId channel) const {
    return channels_[static_cast<size_t>(channel)].state->height();
  }

  const WorkQueue& endorse_queue() const { return endorse_queue_; }

  /// The shared validation/commit resource all channels contend on.
  const ChannelWorkPool& validate_queue() const { return validate_pool_; }

  /// One channel's committed hash chain, one link per block this peer
  /// committed, copied from the channel's commit record.
  const std::vector<PeerChainRecord>& chain_records(ChannelId channel) const {
    return channels_[static_cast<size_t>(channel)].chain_records;
  }

  /// Proposals lost because the peer was down (never answered).
  uint64_t proposals_dropped() const { return proposals_dropped_; }
  /// Block deliveries lost because the peer was down.
  uint64_t blocks_dropped() const { return blocks_dropped_; }
  /// Blocks replayed from the canonical chains during restarts.
  uint64_t blocks_replayed() const { return blocks_replayed_; }

 private:
  /// Everything a peer keeps per channel: its views of the channel's
  /// shared world state, and the commit pipeline's in-order
  /// bookkeeping.
  struct ChannelLedger {
    ChannelState* world = nullptr;
    /// At the committed height.
    StateView* state = nullptr;
    /// `state`, or under FabricSharp the snapshot's own view.
    StateView* endorse_view = nullptr;
    Chaincode* chaincode = nullptr;
    uint64_t next_to_enqueue = 1;
    std::vector<PeerChainRecord> chain_records;
    std::map<uint64_t, std::shared_ptr<const Block>> reorder_buffer;
    SimTime last_snapshot_apply = 0;
  };

  /// One proposal tracked by the admission machinery while it queues.
  struct PendingEndorse {
    ProposalRequest req;
    SimTime enqueue_time = 0;
    /// Evicted by drop-oldest before reaching the server; the shed
    /// reply was already sent at eviction time.
    bool cancelled = false;
    /// Refused at dequeue (deadline / CoDel); reply sent at drain.
    ProposalReject refusal = ProposalReject::kNone;
    bool executed = false;
    EndorsementResult result;
  };

  /// HandleProposal body when an AdmissionConfig is active.
  void HandleProposalAdmitted(ProposalRequest request);
  /// Sends the refusal response back to the client (same reply path as
  /// a served endorsement, so it costs one network hop).
  void SendRejectReply(const ProposalRequest& request, ProposalReject why);

  void CatchUp();
  void TryProcessBuffered(ChannelLedger& ch);
  void ProcessBlock(std::shared_ptr<const Block> block);
  SimTime ValidationServiceTime(const Block& block,
                                const ValidationOutcome& outcome,
                                bool charge_fixed_costs) const;
  /// Samples this peer's service-time jitter factor.
  double JitterFactor();

  ChannelLedger& Channel(ChannelId channel) {
    return channels_[static_cast<size_t>(channel)];
  }

  PeerId id_;
  OrgId org_;
  NodeId node_;
  Environment* env_;
  Network* net_;
  Validator validator_;
  DbLatencyProfile db_profile_;
  TimingConfig timing_;
  FabricVariant variant_;
  double validation_cost_factor_;
  SimTime snapshot_interval_;
  uint32_t virtual_block_group_;
  Rng rng_;
  std::function<void(ChannelId, uint64_t, const ValidationOutcome&)>
      on_commit_;

  std::vector<ChannelLedger> channels_;

  WorkQueue endorse_queue_;
  ChannelWorkPool validate_pool_;

  /// Overload protection (null/unused on the legacy path).
  const AdmissionConfig* admission_ = nullptr;
  AdmissionStats* admission_stats_ = nullptr;
  CoDelState codel_;
  /// Proposals admitted but not yet started, oldest first — the
  /// drop-oldest eviction candidates. Entries leave from the front as
  /// the serial queue starts them.
  std::deque<std::shared_ptr<PendingEndorse>> admission_pending_;
  /// Non-cancelled entries of admission_pending_ (cancelled husks cost
  /// nothing to drain, so admission bounds must not count them).
  uint32_t admission_live_ = 0;

  bool alive_ = true;
  BlockFetcher block_fetcher_;
  uint64_t proposals_dropped_ = 0;
  uint64_t blocks_dropped_ = 0;
  uint64_t blocks_replayed_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_PEER_PEER_H_
