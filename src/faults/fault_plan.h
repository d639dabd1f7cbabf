#ifndef FABRICSIM_FAULTS_FAULT_PLAN_H_
#define FABRICSIM_FAULTS_FAULT_PLAN_H_

#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/transaction.h"
#include "src/sim/network.h"

namespace fabricsim {

/// Pumba-style delay window: every message into or out of the targeted
/// peers pays extra ± jitter while now is in [from, to). Target either
/// all peers of an organization (org >= 0) or one simulation node
/// (node >= 0); exactly one must be set. A window spanning the whole
/// run over one org is the generalization of the paper's Fig. 16
/// setup (100 ± 10 ms on one organization).
struct DelayWindow {
  OrgId org = -1;
  NodeId node = -1;
  SimTime extra = 0;
  SimTime jitter = 0;
  SimTime from = 0;
  SimTime to = kSimTimeNever;
};

/// Crash-stop of one peer: at `at` the peer stops endorsing and
/// committing (proposals and block deliveries are dropped on the
/// floor, exactly as silent as real Fabric); at `restart_at` it comes
/// back and catches up by replaying the blocks it missed from the
/// canonical chain. kSimTimeNever = never restarts. While down, the
/// peer's height pins the record of every block committed since its
/// crash in the channel's shared ChannelState — the block, its
/// validation outcome and its before-images — so a peer that never
/// restarts keeps them until the run ends: memory then grows with
/// every block cut after the crash.
struct PeerCrashFault {
  PeerId peer = -1;
  SimTime at = 0;
  SimTime restart_at = kSimTimeNever;
};

/// The ordering service stops cutting blocks during [at, resume_at):
/// envelopes arriving while paused are buffered at ingress and flushed
/// in arrival order on resume (a Kafka/Raft leader hiccup, not a
/// message loss).
struct OrdererPauseFault {
  SimTime at = 0;
  SimTime resume_at = kSimTimeNever;
  /// Replicated ordering: which replica to pause (-1 = the leader at
  /// fire time). Compat single-orderer mode requires -1.
  int replica = -1;
};

/// Crash-stop of one orderer replica (replicated ordering mode only):
/// at `at` the replica's process dies — volatile state (cutter
/// contents, pending client acks) is lost, the replicated log / term /
/// vote survive as Raft stable storage — and at `restart_at` it comes
/// back as a follower and catches up through the leader's log probing.
/// Unlike OrdererPauseFault, a crashed leader stops heartbeating, so
/// the group runs an election. kLeader targets whichever replica leads
/// at fire time.
struct OrdererCrashFault {
  static constexpr int kLeader = -1;
  int replica = kLeader;
  SimTime at = 0;
  SimTime restart_at = kSimTimeNever;
};

/// A deterministic, time-windowed fault schedule for one run. All
/// event times are absolute simulated time. An empty plan is the
/// healthy testbed: installing it is a strict no-op — no extra RNG
/// draws, no extra scheduled events — so results are bitwise identical
/// to a build without the fault subsystem.
struct FaultPlan {
  std::vector<DelayWindow> delay_windows;
  std::vector<PeerCrashFault> peer_crashes;
  std::vector<OrdererPauseFault> orderer_pauses;
  std::vector<OrdererCrashFault> orderer_crashes;
  std::vector<LinkFaultRule> link_faults;

  bool empty() const {
    return delay_windows.empty() && peer_crashes.empty() &&
           orderer_pauses.empty() && orderer_crashes.empty() &&
           link_faults.empty();
  }

  /// True when some link fault needs randomness (drop probability
  /// strictly between 0 and 1); such plans get a dedicated fault RNG
  /// stream forked at network construction.
  bool NeedsFaultRng() const;

  // Fluent helpers so a chaos scenario reads as one expression.
  FaultPlan& Delay(DelayWindow window);
  FaultPlan& Crash(PeerId peer, SimTime at, SimTime restart_at = kSimTimeNever);
  FaultPlan& PauseOrderer(SimTime at, SimTime resume_at = kSimTimeNever,
                          int replica = -1);
  /// Crash-stop one orderer replica (replicated ordering mode).
  FaultPlan& CrashOrderer(int replica, SimTime at,
                          SimTime restart_at = kSimTimeNever);
  /// Crash-stop whichever replica is leading at fire time.
  FaultPlan& CrashLeader(SimTime at, SimTime restart_at = kSimTimeNever);
  FaultPlan& DropLink(LinkFaultRule rule);
  /// Hard partition: every link between a node of `side_a` and a node
  /// of `side_b` drops all messages during [from, to).
  FaultPlan& Partition(const std::vector<NodeId>& side_a,
                       const std::vector<NodeId>& side_b, SimTime from,
                       SimTime to);
};

}  // namespace fabricsim

#endif  // FABRICSIM_FAULTS_FAULT_PLAN_H_
