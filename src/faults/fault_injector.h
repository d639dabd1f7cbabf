#ifndef FABRICSIM_FAULTS_FAULT_INJECTOR_H_
#define FABRICSIM_FAULTS_FAULT_INJECTOR_H_

#include <vector>

#include "src/common/status.h"
#include "src/faults/fault_plan.h"
#include "src/ordering/orderer.h"
#include "src/ordering/raft_group.h"
#include "src/peer/peer.h"
#include "src/sim/environment.h"
#include "src/sim/network.h"

namespace fabricsim {

/// One fault transition that actually fired during the run, in
/// simulated-time order. `subject` is the peer id for peer events and
/// -1 for orderer events.
struct FaultEventRecord {
  enum class Kind {
    kPeerCrash,
    kPeerRestart,
    kOrdererPause,
    kOrdererResume,
    kOrdererCrash,
    kOrdererRestart,
  };
  Kind kind;
  int32_t subject = -1;
  SimTime at = 0;
};

const char* FaultEventKindName(FaultEventRecord::Kind kind);

/// Translates a FaultPlan into concrete actions against the simulated
/// testbed: delay windows and loss rules are installed in the Network
/// up front, while crash/restart and pause/resume transitions are
/// scheduled as DES events that flip the actors at their fault times.
/// The injector only observes and schedules — it owns no actors — and
/// records every transition it fires for reporting and tests.
class FaultInjector {
 public:
  struct Actors {
    Environment* env = nullptr;
    Network* net = nullptr;
    /// All peers, indexed by PeerId.
    std::vector<Peer*> peers;
    /// Peers grouped by organization (for org-targeted delay windows).
    std::vector<std::vector<Peer*>> peers_by_org;
    /// Every channel's ordering service (index = channel): the compat
    /// orderers or the replicated Raft groups, whichever the mode
    /// builds. An ordering fault hits the shared orderer *process*, so
    /// it fires against every channel's service at once. Orderer crash
    /// faults and replica-targeted pauses require `rafts`; a
    /// leader-targeted rule follows channel 0's group.
    std::vector<Orderer*> orderers;
    std::vector<RaftGroup*> rafts;
  };

  FaultInjector(FaultPlan plan, Actors actors);

  /// Validates the plan against the actors and installs it. Must be
  /// called once, before the simulation starts (all fault times are
  /// absolute). Probabilistic loss rules additionally require a fault
  /// RNG in the network (the harness forks one when needed).
  Status Install();

  const FaultPlan& plan() const { return plan_; }

  /// Transitions fired so far, in simulated-time order.
  const std::vector<FaultEventRecord>& events() const { return events_; }

 private:
  void Fire(FaultEventRecord::Kind kind, int32_t subject);
  /// Resolves a plan rule's replica target at fire time: >= 0 is taken
  /// literally, -1 means the current leader (falling back to the last
  /// known leader during an election).
  int ResolveOrdererReplica(int requested) const;

  FaultPlan plan_;
  Actors actors_;
  std::vector<FaultEventRecord> events_;
  bool installed_ = false;
};

}  // namespace fabricsim

#endif  // FABRICSIM_FAULTS_FAULT_INJECTOR_H_
