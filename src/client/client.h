#ifndef FABRICSIM_CLIENT_CLIENT_H_
#define FABRICSIM_CLIENT_CLIENT_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/admission/admission.h"
#include "src/channels/channel_affinity.h"
#include "src/common/rng.h"
#include "src/ordering/orderer.h"
#include "src/peer/peer.h"
#include "src/policy/endorsement_policy.h"
#include "src/workload/workload_generator.h"

namespace fabricsim {

class Client;

/// Client-side counters that never reach the ledger. Everything else
/// is measured by parsing the blockchain (paper §4.5).
struct RunStats {
  uint64_t txs_generated = 0;
  uint64_t txs_submitted = 0;
  /// Endorsement responses carrying a chaincode error; the client
  /// drops such transactions (not one of the paper's failure types).
  uint64_t app_errors = 0;
  /// Read-only transactions not submitted for ordering (only when the
  /// client is configured per the paper's recommendation #4).
  uint64_t read_only_skipped = 0;
  /// FabricSharp early aborts: rejected before/at ordering, never on
  /// the blockchain.
  uint64_t early_aborts_not_serializable = 0;
  /// Fabric++ cycle aborts in the ordering phase, never on the
  /// blockchain.
  uint64_t early_aborts_by_reordering = 0;
  /// Transactions dropped at submission because no organization had an
  /// endorsing peer to target.
  uint64_t txs_dropped_no_endorsers = 0;
  /// Endorsement re-proposal rounds sent after a timeout.
  uint64_t endorse_retries = 0;
  /// Transactions abandoned after exhausting the retry budget.
  uint64_t endorse_timeouts = 0;
  /// MVCC/phantom-failed transactions resubmitted as fresh ones.
  uint64_t resubmissions = 0;
  /// Envelope re-broadcasts to another orderer replica after an ack
  /// timeout (replicated ordering mode only).
  uint64_t orderer_rebroadcasts = 0;
  /// Envelopes abandoned after exhausting the re-broadcast budget — the
  /// ordering service was unavailable for the whole window.
  uint64_t orderer_broadcast_drops = 0;
  /// Raft elections started / leaderships established (incremented by
  /// the ordering service through the harness sinks).
  uint64_t orderer_elections = 0;
  uint64_t orderer_leader_changes = 0;
};

/// An open-loop client process (Caliper worker analogue): draws
/// invocations from the shared workload, collects endorsements from
/// one peer per organization mentioned in the policy, assembles the
/// envelope and submits it for ordering.
///
/// Two opt-in robustness behaviours (ClientRetryPolicy, both off by
/// default): a per-attempt endorsement timeout that re-proposes to the
/// org's next round-robin peer with exponential backoff, and
/// resubmission of MVCC-failed transactions as fresh transactions.
class Client {
 public:
  struct Params {
    int id = 0;
    NodeId node = 0;
    Environment* env = nullptr;
    Network* net = nullptr;
    WorkloadGenerator* workload = nullptr;
    const EndorsementPolicy* policy = nullptr;
    /// peers_by_org[org] lists the endorsing peers of that org; the
    /// client round-robins within each org.
    std::vector<std::vector<Peer*>> peers_by_org;
    Orderer* orderer = nullptr;
    NodeId orderer_node = 0;
    /// Multi-channel compat ordering: one Orderer per channel (all
    /// sharing the orderer node). When non-empty, submissions for
    /// channel c go to channel_orderers[c]; when empty, `orderer`
    /// serves the single-channel path unchanged.
    std::vector<Orderer*> channel_orderers;
    /// Replicated ordering: one endpoint per orderer replica. When
    /// non-empty the client broadcasts envelopes here (with ack-timeout
    /// failover) instead of through `orderer`; the legacy single-
    /// orderer path above stays byte-identical when this is empty.
    struct OrdererEndpoint {
      NodeId node = 0;
      /// Hands the envelope to the replica together with the client's
      /// ack callback (invoked at quorum commit or early abort).
      std::function<void(Transaction, std::function<void(TxId, bool)>)>
          submit;
    };
    std::vector<OrdererEndpoint> orderer_endpoints;
    /// Multi-channel replicated ordering: per-channel endpoint sets
    /// (index = channel). When non-empty it replaces
    /// `orderer_endpoints`, and each channel tracks its own leader
    /// hint — a failover on a hot channel never misroutes a cold one.
    std::vector<std::vector<OrdererEndpoint>> channel_orderer_endpoints;
    /// How long to wait for the ordering ack before re-broadcasting to
    /// the next replica (replicated mode only).
    SimTime orderer_ack_timeout = 0;
    /// Re-broadcast budget per envelope before giving up.
    int max_orderer_rebroadcasts = 0;
    /// Harness sink, one list per channel (index = channel): ids of
    /// transactions whose ordering ack reached this client (the
    /// invariant checker proves none were lost).
    std::vector<std::vector<TxId>>* acked_txs_by_channel = nullptr;
    /// Which channels this client submits to and how it spreads load
    /// across them. The default pins everything to channel 0 without
    /// consuming randomness.
    ChannelAffinity affinity;
    TimingConfig timing;
    Rng rng{1, 1};
    /// This client's share of the total arrival rate.
    double arrival_rate_tps = 20.0;
    /// Submissions stop at this simulated time; in-flight work drains.
    SimTime load_end_time = 0;
    bool submit_read_only = true;
    RunStats* stats = nullptr;
    /// Shared monotonic transaction-id counter across clients.
    TxId* tx_id_counter = nullptr;
    ClientRetryPolicy retry;
    /// Shared tx -> owning-client routing table for commit feedback,
    /// owned by the harness. nullptr unless resubmission is enabled —
    /// submitted transaction ids are registered here so the harness can
    /// deliver each transaction's validation verdict back to its
    /// client.
    std::unordered_map<TxId, Client*>* resubmit_registry = nullptr;
    /// Overload protection (src/admission): deadline stamping, the
    /// per-client circuit breaker and retry budget, and handling of
    /// shed/throttle signals. Null (or a disabled config) reproduces
    /// the unprotected client exactly.
    const AdmissionConfig* admission = nullptr;
    AdmissionStats* admission_stats = nullptr;
  };

  explicit Client(Params params);

  /// Schedules the first arrival.
  void Start();

  /// Draws and submits one transaction immediately, without arming the
  /// client's own Poisson clock. The aggregated population actor
  /// (src/workload/population) owns the arrival process for large
  /// behaviour classes and drives its embedded Client through this —
  /// the entire endorsement/ordering/retry/resubmission machinery is
  /// reused per arrival instead of per client object.
  void SubmitNow() { SubmitOne(); }

  /// Commit feedback from the harness (resubmission mode only): the
  /// registered transaction was validated with `code` on the reference
  /// peer. MVCC/phantom failures within budget are resubmitted as
  /// fresh transactions after the configured backoff.
  void OnCommittedResult(TxId tx_id, TxValidationCode code);

 private:
  struct PendingTx {
    Invocation invocation;
    /// Channel drawn (via the affinity model) at submission; carried
    /// through endorsement, ordering, and any resubmission.
    ChannelId channel = 0;
    SimTime submit_time = 0;
    /// Absolute client deadline stamped at first submission (overload
    /// protection); 0 = none.
    SimTime deadline = 0;
    /// Orgs actually targeted (those with at least one peer); complete
    /// once every one of them has responded.
    std::vector<OrgId> proposed_orgs;
    /// Every peer a proposal was sent to (first round and retries), so
    /// an abandoned transaction can cancel its still-queued siblings
    /// (admission path only — never touched otherwise).
    std::vector<Peer*> proposed_peers;
    /// Round-robin cursor at first submission; retry k re-proposes to
    /// peer (rr_base + k) % org_size of each unanswered org.
    uint64_t rr_base = 0;
    /// Current proposal round (0 = first). Stale timeouts compare
    /// against it.
    int attempt = 0;
    /// How many resubmissions preceded this transaction.
    int resubmit_count = 0;
    std::vector<ProposalResponse> responses;
  };

  /// Invocation + budget retained for commit feedback (resubmission
  /// mode only; erased when the verdict arrives).
  struct ResubmitMeta {
    Invocation invocation;
    int resubmit_count = 0;
    ChannelId channel = 0;
  };

  void ScheduleNextArrival();
  void SubmitOne();
  /// Proposes `invocation` under a fresh transaction id; shared by
  /// first submissions and resubmissions.
  void Submit(TxId tx_id, Invocation invocation, int resubmit_count,
              ChannelId channel);
  void SendProposal(TxId tx_id, Peer* peer, int attempt);
  void ScheduleEndorseTimeout(TxId tx_id, int attempt);
  void OnEndorseTimeout(TxId tx_id, int attempt);
  void OnEndorsement(ProposalResponse response);
  void FinalizeTx(TxId tx_id, PendingTx pending);
  /// An endorser refused the proposal (shed or deadline-expired): the
  /// client fast-fails the transaction instead of waiting out the
  /// timeout — overload feedback must travel faster than the overload.
  void OnEndorseReject(TxId tx_id, ProposalReject why);
  /// Cancellation propagation: tells every proposed peer to husk any
  /// sibling proposal of an abandoned transaction, so dead work stops
  /// consuming endorsement capacity. Admission path only.
  void CancelOutstanding(TxId tx_id, const PendingTx& pending);
  /// The orderer's bounded ingress rejected the envelope.
  void OnOrdererThrottle(TxId tx_id);
  /// Breaker outcome feedback (no-ops when no breaker is configured).
  void RecordOutcomeSuccess();
  void RecordOutcomeFailure();

  /// Replicated-ordering failover: envelope awaiting its ordering ack.
  struct PendingOrder {
    std::shared_ptr<Transaction> tx;
    int replica = 0;  ///< endpoint index of the current attempt
    int attempt = 0;  ///< broadcast round (staleness guard)
    ChannelId channel = 0;
  };
  void BroadcastToOrderer(TxId tx_id, int replica, int attempt);
  void OnOrdererAck(TxId tx_id, bool accepted, int replica);
  void OnOrdererAckTimeout(TxId tx_id, int attempt);
  /// Replica endpoints serving `channel` (the shared single-channel
  /// set unless per-channel sets are configured).
  const std::vector<Params::OrdererEndpoint>& EndpointsFor(
      ChannelId channel) const;
  int& LeaderHintFor(ChannelId channel);

  Params p_;
  /// Overload protection state (engaged only when Params::admission is
  /// an enabled config).
  std::optional<CircuitBreaker> breaker_;
  std::optional<RetryBudget> retry_budget_;
  std::unordered_map<TxId, PendingTx> in_flight_;
  std::unordered_map<TxId, ResubmitMeta> resubmit_meta_;
  std::unordered_map<TxId, PendingOrder> awaiting_order_ack_;
  /// Last endpoint that acked, per channel — new envelopes start there
  /// instead of rediscovering the leader.
  std::vector<int> leader_hints_ = std::vector<int>(1, 0);
  uint64_t round_robin_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CLIENT_CLIENT_H_
