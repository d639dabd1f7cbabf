#ifndef FABRICSIM_ORDERING_RAFT_GROUP_H_
#define FABRICSIM_ORDERING_RAFT_GROUP_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/fabric/network_config.h"
#include "src/ledger/block.h"
#include "src/ordering/orderer.h"
#include "src/sim/network.h"

namespace fabricsim {

class RaftGroup;

/// One slot of the replicated block log. `block == nullptr` marks a
/// leadership no-op barrier (Raft §5.4.2: a fresh leader commits one
/// entry of its own term to learn which inherited entries are
/// committed); block numbers are dense over the non-no-op entries.
struct RaftLogEntry {
  std::shared_ptr<Block> block;
  uint64_t term = 0;
};

/// Raft control-plane messages between orderer replicas. They travel
/// through the simulated Network like any other traffic, so partitions,
/// link loss and delay windows apply to consensus as well.
struct AppendEntriesMsg {
  uint64_t term = 0;
  int leader = 0;
  uint64_t prev_index = 0;  ///< log index immediately before `entries`
  uint64_t prev_term = 0;
  std::vector<RaftLogEntry> entries;  ///< empty = heartbeat
  uint64_t leader_commit = 0;
};

struct AppendAckMsg {
  uint64_t term = 0;
  int follower = 0;
  bool success = false;
  /// On success: highest index now known replicated on the follower.
  /// On failure: the follower's best hint for where logs still match
  /// (min(own log length, prev_index - 1)), so the leader can skip the
  /// one-at-a-time backoff.
  uint64_t match = 0;
};

struct RequestVoteMsg {
  uint64_t term = 0;
  int candidate = 0;
  uint64_t last_index = 0;
  uint64_t last_term = 0;
};

struct VoteReplyMsg {
  uint64_t term = 0;
  int voter = 0;
  bool granted = false;
};

/// One ordering-service replica: an OrderingNode (the compat
/// Orderer's ingress, cutter, batch timeout and pause code) whose
/// consensus half is Raft — randomized election timeouts drawn from
/// this replica's own seeded RNG stream, leader-based log replication,
/// and quorum commit. Only the current leader ingests client envelopes
/// and cuts blocks; envelopes hitting a follower or a crashed replica
/// vanish silently, exactly like gRPC against a dead orderer, and the
/// client recovers through its ack-timeout rebroadcast. A pause is the
/// legacy hiccup: ingress buffers and cutting suspends, but heartbeats
/// keep flowing (the process is alive), so no election runs.
class OrdererReplica : public OrderingNode {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  /// Client ack callback: invoked once the transaction's block is
  /// quorum-committed (accepted=true) or the transaction left ordering
  /// for good — early-aborted or past its deadline at ingress
  /// (accepted=false, it will never commit).
  using AckFn = std::function<void(TxId, bool accepted)>;

  struct Params : OrderingNode::Params {
    int index = 0;
    NodeId node = 0;
    RaftGroup* group = nullptr;
    Rng rng{1, 1};
    /// Bootstrap role: replica 0 starts as the term-1 leader so a
    /// healthy run needs no startup election.
    bool bootstrap_leader = false;
  };

  explicit OrdererReplica(Params params);

  /// Client ingress. The ack fires when the transaction's block is
  /// quorum-committed; re-broadcasts of an already-logged transaction
  /// are deduplicated by id (an already-committed one is re-acked
  /// immediately — the first ack may have been lost).
  void SubmitTransaction(Transaction tx, AckFn ack);

  // --- Raft message handlers (invoked via network delivery) ----------
  void HandleAppendEntries(const AppendEntriesMsg& msg);
  void HandleAppendAck(const AppendAckMsg& msg);
  void HandleRequestVote(const RequestVoteMsg& msg);
  void HandleVoteReply(const VoteReplyMsg& msg);

  // --- fault hooks ----------------------------------------------------
  /// Crash-stop: volatile state (cutter contents, pending client acks,
  /// pause backlog) is lost; the replicated log, current term, vote and
  /// commit index survive, modelling Raft's stable storage.
  void Crash();
  /// Restarts a crashed replica as a follower; it catches up through
  /// the leader's regular AppendEntries probing.
  void Restart();

  // --- queries --------------------------------------------------------
  bool alive() const { return alive_; }
  Role role() const { return role_; }
  int index() const { return index_; }
  uint64_t current_term() const { return current_term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t log_size() const { return log_.size(); }

  /// 1-based log access for the group's delivery scan.
  const RaftLogEntry& EntryAt(uint64_t index) const {
    return log_[index - 1];
  }

 private:
  friend class RaftGroup;

  bool Alive() const override { return alive_; }
  bool MayCut() const override { return alive_ && role_ == Role::kLeader; }
  /// Dense numbering over the block entries of this replica's log. A
  /// deposed leader's uncommitted entries are truncated before they can
  /// deliver, so a reused number never reaches a peer twice.
  uint64_t NextBlockNumber() const override { return block_count_ + 1; }
  void OnDropped(TxId id) override;
  void Ship(std::shared_ptr<Block> block, SimTime processor_cost) override;

  uint64_t LastIndex() const { return log_.size(); }
  uint64_t TermAt(uint64_t index) const {
    return index == 0 ? 0 : log_[index - 1].term;
  }
  int Quorum() const;

  void ArmElectionTimer();
  void ArmHeartbeat();
  void StartElection();
  void BecomeLeader();
  /// Adopts a higher term seen in any message: step down to follower,
  /// clear the vote. A deposed leader loses its volatile ingress state
  /// (cutter contents, pending acks) — clients recover via rebroadcast.
  void MaybeAdoptTerm(uint64_t term);
  /// Drops everything a real process would lose on crash/deposition:
  /// cutter contents, queued ingress, pause backlog, pending acks.
  void ClearVolatileIngress();
  /// Appends an entry received from the leader (follower side).
  void AppendReplicatedEntry(const RaftLogEntry& entry);
  void TruncateFrom(uint64_t index);
  void BroadcastAppendEntries();
  void SendAppendEntries(int follower);
  void SendAppendAck(int leader, bool success, uint64_t match);
  void TryAdvanceCommit();
  void AckCommitted();
  /// Invokes and removes the pending ack for `id`, if any.
  void ResolveAck(TxId id, bool accepted);

  int index_;
  RaftGroup* group_;
  Rng rng_;

  // --- Raft state (survives Crash(), i.e. stable storage) -------------
  uint64_t current_term_ = 1;
  int voted_for_ = -1;
  std::vector<RaftLogEntry> log_;
  uint64_t commit_index_ = 0;
  /// Non-no-op entries in log_ — the next cut block gets number
  /// block_count_ + 1, keeping delivered numbers dense.
  uint64_t block_count_ = 0;
  /// tx id -> log index, for rebroadcast deduplication.
  std::unordered_map<TxId, uint64_t> tx_log_index_;

  // --- volatile state -------------------------------------------------
  Role role_ = Role::kFollower;
  bool alive_ = true;
  int votes_received_ = 0;
  std::vector<uint64_t> next_index_;   // leader only
  std::vector<uint64_t> match_index_;  // leader only
  /// Entries at index <= this are fully assembled (signed, serialized)
  /// and may be shipped to followers / counted for commit. A leader's
  /// freshly cut block only becomes replicatable when its assembly
  /// task finishes on the serial queue.
  uint64_t replicatable_index_ = 0;
  uint64_t election_generation_ = 0;
  uint64_t heartbeat_generation_ = 0;
  uint64_t last_acked_commit_ = 0;
  std::unordered_map<TxId, AckFn> pending_acks_;
  /// Transactions accepted at ingress but not yet in the log (queued on
  /// the work queue or sitting in the cutter) — rebroadcast dedup.
  std::unordered_set<TxId> pending_ingress_;
};

/// The replicated ordering service: owns N OrdererReplica actors and
/// the group-wide delivered floor that guarantees each committed block
/// is handed to the fabric exactly once (and in order) no matter how
/// leadership moves.
class RaftGroup {
 public:
  /// Every replica gets the shared OrderingNode fields.
  struct Params : OrderingNode::Params {
    int num_replicas = 3;
    NodeId node_base = 0;  ///< replica i gets node id node_base + i
    OrderingConfig ordering;
    /// One pre-forked RNG per replica (harness forks streams 3000+i).
    std::vector<Rng> replica_rngs;
    /// Optional counters inside the harness RunStats.
    uint64_t* elections_sink = nullptr;
    uint64_t* leader_changes_sink = nullptr;
  };

  explicit RaftGroup(Params params);

  int size() const { return static_cast<int>(replicas_.size()); }
  OrdererReplica* replica(int i) { return replicas_[static_cast<size_t>(i)].get(); }
  const OrdererReplica* replica(int i) const {
    return replicas_[static_cast<size_t>(i)].get();
  }

  /// Current leader replica index, or -1 during an election.
  int leader_index() const { return leader_index_; }
  /// Last replica known to lead (for leader-targeted faults fired while
  /// an election is in progress).
  int last_known_leader() const { return last_known_leader_; }

  uint64_t delivered_blocks() const { return delivered_blocks_; }
  uint64_t elections_started() const { return elections_started_; }
  /// Leadership handovers after bootstrap.
  uint64_t leader_changes() const { return leader_changes_; }

 private:
  friend class OrdererReplica;

  /// Publishes and delivers every committed-but-undelivered entry of
  /// `leader`'s log, advancing the group floor. Log-matching + the
  /// election restriction guarantee any leader's committed prefix is
  /// identical, so the floor makes delivery exactly-once and in-order
  /// across failovers.
  void DeliverUpTo(OrdererReplica* leader, uint64_t commit_index);
  void NoteElectionStarted(int replica, uint64_t term);
  void NoteLeaderElected(int replica, uint64_t term);
  void NoteCrash(int replica);

  Environment* env_;
  OrderingConfig ordering_;
  uint64_t* elections_sink_;
  uint64_t* leader_changes_sink_;

  std::vector<std::unique_ptr<OrdererReplica>> replicas_;
  uint64_t delivered_index_ = 0;   ///< log index floor
  uint64_t delivered_blocks_ = 0;  ///< block number floor
  int leader_index_ = 0;
  int last_known_leader_ = 0;
  uint64_t elections_started_ = 0;
  uint64_t leader_changes_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_ORDERING_RAFT_GROUP_H_
