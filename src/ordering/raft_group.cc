#include "src/ordering/raft_group.h"

#include <algorithm>
#include <utility>

#include "src/obs/tracer.h"
#include "src/sim/environment.h"

namespace fabricsim {

namespace {

// Control-plane message sizes on the wire (bytes). Entries ship the
// serialized block payload on top of the framing.
constexpr uint64_t kVoteBytes = 64;
constexpr uint64_t kVoteReplyBytes = 48;
constexpr uint64_t kAckBytes = 48;

uint64_t AppendEntriesBytes(const AppendEntriesMsg& msg) {
  uint64_t bytes = 96;
  for (const RaftLogEntry& entry : msg.entries) {
    bytes += 32 + (entry.block != nullptr ? entry.block->ByteSize() : 0);
  }
  return bytes;
}

}  // namespace

OrdererReplica::OrdererReplica(Params params)
    : OrderingNode(params, params.node),
      index_(params.index),
      group_(params.group),
      rng_(std::move(params.rng)) {
  // Bootstrap: the whole group starts agreeing that replica 0 leads
  // term 1, so a healthy run pays no startup election.
  voted_for_ = 0;
  if (params.bootstrap_leader) {
    // next_index_/match_index_ are sized by the RaftGroup constructor
    // once the group's replica count is final.
    role_ = Role::kLeader;
    ArmHeartbeat();
  } else {
    ArmElectionTimer();
  }
}

int OrdererReplica::Quorum() const { return group_->size() / 2 + 1; }

// --- client ingress ---------------------------------------------------

void OrdererReplica::SubmitTransaction(Transaction tx, AckFn ack) {
  if (!MayCut()) {
    // A dead process or a follower: the envelope vanishes, exactly as
    // silent as gRPC against a stopped orderer. The client's ack
    // timeout drives it to the next replica.
    return;
  }
  NoteArrival(tx);
  // Rebroadcast deduplication: the same envelope may arrive again when
  // the first ack was slow or lost. An already-committed transaction is
  // re-acked; a logged or in-progress one just refreshes its ack.
  auto logged = tx_log_index_.find(tx.id);
  if (logged != tx_log_index_.end()) {
    if (logged->second <= commit_index_) {
      if (ack) ack(tx.id, true);
    } else if (ack) {
      pending_acks_[tx.id] = std::move(ack);
    }
    return;
  }
  if (pending_ingress_.count(tx.id) > 0) {
    if (ack) pending_acks_[tx.id] = std::move(ack);
    return;
  }
  pending_ingress_.insert(tx.id);
  if (ack) pending_acks_[tx.id] = std::move(ack);
  Accept(std::move(tx));
}

void OrdererReplica::OnDropped(TxId id) {
  pending_ingress_.erase(id);
  // Definitive verdict: tell the client so it stops re-broadcasting a
  // transaction that can never commit.
  ResolveAck(id, false);
}

void OrdererReplica::Ship(std::shared_ptr<Block> block,
                          SimTime processor_cost) {
  log_.push_back(RaftLogEntry{block, current_term_});
  ++block_count_;
  uint64_t entry_index = LastIndex();
  for (const Transaction& tx : block->txs) {
    pending_ingress_.erase(tx.id);
    tx_log_index_[tx.id] = entry_index;
  }

  // The entry only becomes replicatable (and thus commitable) once its
  // assembly, which includes one copy per follower, is done.
  // Replication replaces the sampled ConsensusModel latency of compat
  // mode.
  uint64_t term_at_cut = current_term_;
  Assemble(processor_cost, static_cast<size_t>(group_->size() - 1),
           [this, entry_index, term_at_cut]() {
             if (!MayCut() || current_term_ != term_at_cut) {
               // Crashed or deposed mid-assembly: the entry stays in the
               // log unshipped; if it survives leadership changes it
               // ships later, otherwise it is truncated — either way it
               // was never delivered.
               return;
             }
             if (entry_index > replicatable_index_) {
               replicatable_index_ = entry_index;
             }
             if (group_->size() == 1) {
               TryAdvanceCommit();
             } else {
               BroadcastAppendEntries();
             }
           });
}

// --- crash ------------------------------------------------------------

void OrdererReplica::ClearVolatileIngress() {
  ResetIngress();
  pending_ingress_.clear();
  pending_acks_.clear();
  last_acked_commit_ = commit_index_;
}

void OrdererReplica::Crash() {
  if (!alive_) return;
  alive_ = false;
  paused_ = false;
  votes_received_ = 0;
  ++election_generation_;
  ++heartbeat_generation_;
  // Volatile state dies with the process; current_term_, voted_for_,
  // the log and commit_index_ model Raft's persisted state.
  ClearVolatileIngress();
  role_ = Role::kFollower;
  group_->NoteCrash(index_);
}

void OrdererReplica::Restart() {
  if (alive_) return;
  alive_ = true;
  role_ = Role::kFollower;
  ArmElectionTimer();
}

// --- Raft: elections --------------------------------------------------

void OrdererReplica::ArmElectionTimer() {
  ++election_generation_;
  uint64_t generation = election_generation_;
  const OrderingConfig& ordering = group_->ordering_;
  SimTime delay = static_cast<SimTime>(rng_.UniformRange(
      static_cast<double>(ordering.election_timeout_min),
      static_cast<double>(ordering.election_timeout_max)));
  if (delay < 1) delay = 1;
  // Daemon: the timeout matters only while the run still has work in
  // flight — it must not keep a finished simulation alive.
  env_->Schedule(
      delay,
      [this, generation]() {
        if (generation != election_generation_) return;  // timer was reset
        if (!alive_ || role_ == Role::kLeader) return;
        StartElection();
      },
      ScheduleOpts{.daemon = true});
}

void OrdererReplica::StartElection() {
  role_ = Role::kCandidate;
  ++current_term_;
  voted_for_ = index_;
  votes_received_ = 1;
  group_->NoteElectionStarted(index_, current_term_);
  ArmElectionTimer();  // retry on a split vote
  if (votes_received_ >= Quorum()) {
    BecomeLeader();  // single-replica group
    return;
  }
  RequestVoteMsg msg;
  msg.term = current_term_;
  msg.candidate = index_;
  msg.last_index = LastIndex();
  msg.last_term = TermAt(LastIndex());
  auto shared = std::make_shared<RequestVoteMsg>(msg);
  for (int i = 0; i < group_->size(); ++i) {
    if (i == index_) continue;
    OrdererReplica* target = group_->replica(i);
    net_->Send(*env_, node(), target->node(), kVoteBytes,
               [target, shared]() { target->HandleRequestVote(*shared); });
  }
}

void OrdererReplica::MaybeAdoptTerm(uint64_t term) {
  if (term <= current_term_) return;
  current_term_ = term;
  voted_for_ = -1;
  if (role_ == Role::kLeader) {
    ++heartbeat_generation_;
    // A deposed leader's cutter contents and unresolved client acks
    // are volatile; the clients recover via rebroadcast.
    ClearVolatileIngress();
  }
  role_ = Role::kFollower;
  votes_received_ = 0;
  ArmElectionTimer();
}

void OrdererReplica::HandleRequestVote(const RequestVoteMsg& msg) {
  if (!alive_) return;
  MaybeAdoptTerm(msg.term);
  // Election restriction (§5.4.1): only vote for candidates whose log
  // is at least as up to date, so every elected leader holds all
  // committed entries.
  bool up_to_date =
      msg.last_term > TermAt(LastIndex()) ||
      (msg.last_term == TermAt(LastIndex()) && msg.last_index >= LastIndex());
  bool grant = msg.term == current_term_ &&
               (voted_for_ == -1 || voted_for_ == msg.candidate) && up_to_date;
  if (grant) {
    voted_for_ = msg.candidate;
    ArmElectionTimer();
  }
  VoteReplyMsg reply;
  reply.term = current_term_;
  reply.voter = index_;
  reply.granted = grant;
  OrdererReplica* target = group_->replica(msg.candidate);
  auto shared = std::make_shared<VoteReplyMsg>(reply);
  net_->Send(*env_, node(), target->node(), kVoteReplyBytes,
             [target, shared]() { target->HandleVoteReply(*shared); });
}

void OrdererReplica::HandleVoteReply(const VoteReplyMsg& msg) {
  if (!alive_) return;
  MaybeAdoptTerm(msg.term);
  if (role_ != Role::kCandidate || msg.term != current_term_ || !msg.granted) {
    return;
  }
  ++votes_received_;
  if (votes_received_ >= Quorum()) BecomeLeader();
}

void OrdererReplica::BecomeLeader() {
  role_ = Role::kLeader;
  votes_received_ = 0;
  ++election_generation_;  // leaders run no election timer
  group_->NoteLeaderElected(index_, current_term_);
  size_t n = static_cast<size_t>(group_->size());
  next_index_.assign(n, LastIndex() + 1);
  match_index_.assign(n, 0);
  // Everything inherited was assembled by a previous leader.
  replicatable_index_ = LastIndex();
  // §5.4.2 barrier: append and commit a no-op of this term to learn
  // which inherited entries are committed (a leader may never count
  // replicas for prior-term entries directly).
  log_.push_back(RaftLogEntry{nullptr, current_term_});
  replicatable_index_ = LastIndex();
  TryAdvanceCommit();  // immediate for a single-replica group
  BroadcastAppendEntries();
  ArmHeartbeat();
}

// --- Raft: replication ------------------------------------------------

void OrdererReplica::ArmHeartbeat() {
  uint64_t generation = heartbeat_generation_;
  // Daemon: a leader heartbeats forever; the re-arming chain must not
  // block quiescence once the workload has drained.
  env_->Schedule(
      group_->ordering_.heartbeat_interval,
      [this, generation]() {
        if (generation != heartbeat_generation_) return;
        if (!alive_ || role_ != Role::kLeader) return;
        BroadcastAppendEntries();
        ArmHeartbeat();
      },
      ScheduleOpts{.daemon = true});
}

void OrdererReplica::BroadcastAppendEntries() {
  for (int i = 0; i < group_->size(); ++i) {
    if (i == index_) continue;
    SendAppendEntries(i);
  }
}

void OrdererReplica::SendAppendEntries(int follower) {
  auto msg = std::make_shared<AppendEntriesMsg>();
  msg->term = current_term_;
  msg->leader = index_;
  uint64_t next = next_index_[static_cast<size_t>(follower)];
  msg->prev_index = next - 1;
  msg->prev_term = TermAt(msg->prev_index);
  for (uint64_t i = next; i <= replicatable_index_; ++i) {
    msg->entries.push_back(log_[i - 1]);
  }
  msg->leader_commit = commit_index_;
  OrdererReplica* target = group_->replica(follower);
  net_->Send(*env_, node(), target->node(), AppendEntriesBytes(*msg),
             [target, msg]() { target->HandleAppendEntries(*msg); });
}

void OrdererReplica::SendAppendAck(int leader, bool success, uint64_t match) {
  auto msg = std::make_shared<AppendAckMsg>();
  msg->term = current_term_;
  msg->follower = index_;
  msg->success = success;
  msg->match = match;
  OrdererReplica* target = group_->replica(leader);
  net_->Send(*env_, node(), target->node(), kAckBytes,
             [target, msg]() { target->HandleAppendAck(*msg); });
}

void OrdererReplica::AppendReplicatedEntry(const RaftLogEntry& entry) {
  log_.push_back(entry);
  if (entry.block != nullptr) {
    ++block_count_;
    uint64_t index = LastIndex();
    for (const Transaction& tx : entry.block->txs) {
      tx_log_index_[tx.id] = index;
    }
  }
}

void OrdererReplica::TruncateFrom(uint64_t index) {
  for (uint64_t i = index; i <= LastIndex(); ++i) {
    const RaftLogEntry& entry = log_[i - 1];
    if (entry.block != nullptr) {
      --block_count_;
      for (const Transaction& tx : entry.block->txs) {
        tx_log_index_.erase(tx.id);
      }
    }
  }
  log_.resize(index - 1);
  if (replicatable_index_ > LastIndex()) replicatable_index_ = LastIndex();
}

void OrdererReplica::HandleAppendEntries(const AppendEntriesMsg& msg) {
  if (!alive_) return;
  if (msg.term < current_term_) {
    SendAppendAck(msg.leader, /*success=*/false, /*match=*/0);
    return;
  }
  MaybeAdoptTerm(msg.term);
  if (role_ == Role::kCandidate) {
    // Equal term: an established leader exists; yield.
    role_ = Role::kFollower;
    votes_received_ = 0;
  }
  ArmElectionTimer();

  if (msg.prev_index > LastIndex() ||
      TermAt(msg.prev_index) != msg.prev_term) {
    // Log mismatch: hint where our log could still agree so the leader
    // skips the one-index-at-a-time walk.
    uint64_t hint = std::min(
        LastIndex(), msg.prev_index == 0 ? 0 : msg.prev_index - 1);
    SendAppendAck(msg.leader, /*success=*/false, hint);
    return;
  }
  uint64_t index = msg.prev_index;
  for (const RaftLogEntry& entry : msg.entries) {
    ++index;
    if (index <= LastIndex()) {
      if (TermAt(index) == entry.term) continue;  // already present
      TruncateFrom(index);  // conflicting suffix from a deposed leader
    }
    AppendReplicatedEntry(entry);
  }
  uint64_t last_new = msg.prev_index + msg.entries.size();
  if (msg.leader_commit > commit_index_) {
    commit_index_ =
        std::max(commit_index_, std::min(msg.leader_commit, last_new));
  }
  // Followers never deliver: the group floor is driven by the leader,
  // and every replica's committed prefix is identical anyway.
  SendAppendAck(msg.leader, /*success=*/true, last_new);
}

void OrdererReplica::HandleAppendAck(const AppendAckMsg& msg) {
  if (!alive_) return;
  MaybeAdoptTerm(msg.term);
  if (role_ != Role::kLeader || msg.term != current_term_) return;
  size_t follower = static_cast<size_t>(msg.follower);
  if (msg.success) {
    if (msg.match > match_index_[follower]) {
      match_index_[follower] = msg.match;
      next_index_[follower] = msg.match + 1;
      TryAdvanceCommit();
    }
    if (next_index_[follower] <= replicatable_index_) {
      SendAppendEntries(msg.follower);  // keep a lagging follower moving
    }
  } else {
    uint64_t next =
        std::min(next_index_[follower] - 1, msg.match + 1);
    next_index_[follower] = next < 1 ? 1 : next;
    SendAppendEntries(msg.follower);
  }
}

void OrdererReplica::TryAdvanceCommit() {
  // Only entries of the current term may be committed by counting
  // replicas (§5.4.2); earlier entries commit transitively. Scanning
  // down from the newest replicatable entry, everything above the
  // term boundary is own-term.
  uint64_t new_commit = commit_index_;
  for (uint64_t n = replicatable_index_; n > commit_index_; --n) {
    if (TermAt(n) != current_term_) break;
    int count = 1;  // self
    for (size_t i = 0; i < match_index_.size(); ++i) {
      if (static_cast<int>(i) == index_) continue;
      if (match_index_[i] >= n) ++count;
    }
    if (count >= Quorum()) {
      new_commit = n;
      break;
    }
  }
  if (new_commit == commit_index_) return;
  commit_index_ = new_commit;
  AckCommitted();
  group_->DeliverUpTo(this, commit_index_);
}

void OrdererReplica::AckCommitted() {
  for (uint64_t i = last_acked_commit_ + 1; i <= commit_index_; ++i) {
    const RaftLogEntry& entry = log_[i - 1];
    if (entry.block == nullptr) continue;
    for (const Transaction& tx : entry.block->txs) {
      ResolveAck(tx.id, true);
    }
  }
  last_acked_commit_ = commit_index_;
}

void OrdererReplica::ResolveAck(TxId id, bool accepted) {
  auto it = pending_acks_.find(id);
  if (it == pending_acks_.end()) return;
  AckFn ack = std::move(it->second);
  pending_acks_.erase(it);
  if (ack) ack(id, accepted);
}

// --- RaftGroup --------------------------------------------------------

RaftGroup::RaftGroup(Params params)
    : env_(params.env),
      ordering_(params.ordering),
      elections_sink_(params.elections_sink),
      leader_changes_sink_(params.leader_changes_sink) {
  int n = params.num_replicas < 1 ? 1 : params.num_replicas;
  replicas_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    OrdererReplica::Params rp;
    static_cast<OrderingNode::Params&>(rp) = params;
    rp.index = i;
    rp.node = params.node_base + i;
    rp.group = this;
    if (static_cast<size_t>(i) < params.replica_rngs.size()) {
      rp.rng = std::move(params.replica_rngs[static_cast<size_t>(i)]);
    }
    rp.bootstrap_leader = i == 0;
    replicas_.push_back(std::make_unique<OrdererReplica>(std::move(rp)));
  }
  // The bootstrap leader could not size its per-follower bookkeeping
  // before the group's replica count was final.
  OrdererReplica* boot = replicas_.front().get();
  boot->next_index_.assign(replicas_.size(), 1);
  boot->match_index_.assign(replicas_.size(), 0);
}

void RaftGroup::DeliverUpTo(OrdererReplica* leader, uint64_t commit_index) {
  while (delivered_index_ < commit_index) {
    ++delivered_index_;
    std::shared_ptr<Block> block = leader->EntryAt(delivered_index_).block;
    if (block == nullptr) continue;
    ++delivered_blocks_;
    leader->Publish(block);
    leader->Deliver(block);
  }
}

void RaftGroup::NoteElectionStarted(int replica, uint64_t term) {
  ++elections_started_;
  if (elections_sink_ != nullptr) ++*elections_sink_;
  if (Tracer* tracer = env_->tracer()) {
    tracer->OnRaftEvent("election_started", replica, term, env_->now());
  }
}

void RaftGroup::NoteLeaderElected(int replica, uint64_t term) {
  leader_index_ = replica;
  last_known_leader_ = replica;
  ++leader_changes_;
  if (leader_changes_sink_ != nullptr) ++*leader_changes_sink_;
  if (Tracer* tracer = env_->tracer()) {
    tracer->OnRaftEvent("leader_elected", replica, term, env_->now());
  }
}

void RaftGroup::NoteCrash(int replica) {
  if (leader_index_ == replica) {
    last_known_leader_ = replica;
    leader_index_ = -1;
  }
}

}  // namespace fabricsim
