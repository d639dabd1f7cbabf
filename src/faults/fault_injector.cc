#include "src/faults/fault_injector.h"

#include <memory>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/tracer.h"

namespace fabricsim {

const char* FaultEventKindName(FaultEventRecord::Kind kind) {
  switch (kind) {
    case FaultEventRecord::Kind::kPeerCrash:
      return "peer_crash";
    case FaultEventRecord::Kind::kPeerRestart:
      return "peer_restart";
    case FaultEventRecord::Kind::kOrdererPause:
      return "orderer_pause";
    case FaultEventRecord::Kind::kOrdererResume:
      return "orderer_resume";
    case FaultEventRecord::Kind::kOrdererCrash:
      return "orderer_crash";
    case FaultEventRecord::Kind::kOrdererRestart:
      return "orderer_restart";
  }
  return "unknown";
}

namespace {

/// Names one plan rule in a validation error: kind, index within its
/// list, and the rule's time window — so a rejected 30-rule chaos plan
/// points at the exact offender.
std::string RuleRef(const char* kind, size_t index, SimTime from, SimTime to) {
  std::string window =
      StrFormat("[%.3fs, ", static_cast<double>(from) / 1e6);
  window += to == kSimTimeNever
                ? "never)"
                : StrFormat("%.3fs)", static_cast<double>(to) / 1e6);
  return StrFormat("%s[%zu] window %s", kind, index, window.c_str());
}

/// [a_from, a_to) intersects [b_from, b_to)? kSimTimeNever is +inf.
bool WindowsOverlap(SimTime a_from, SimTime a_to, SimTime b_from,
                    SimTime b_to) {
  return a_from < b_to && b_from < a_to;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, Actors actors)
    : plan_(std::move(plan)), actors_(std::move(actors)) {}

void FaultInjector::Fire(FaultEventRecord::Kind kind, int32_t subject) {
  SimTime now = actors_.env->now();
  events_.push_back(FaultEventRecord{kind, subject, now});
  if (Tracer* tracer = actors_.env->tracer()) {
    tracer->OnFaultEvent(FaultEventKindName(kind), subject, now);
  }
}

int FaultInjector::ResolveOrdererReplica(int requested) const {
  if (requested >= 0) return requested;
  // Leader-targeted: whichever replica leads channel 0's group right
  // now; during an election, fall back to the last known leader.
  const RaftGroup& raft = *actors_.rafts.front();
  int leader = raft.leader_index();
  if (leader < 0) leader = raft.last_known_leader();
  return leader < 0 ? 0 : leader;
}

Status FaultInjector::Install() {
  if (installed_) {
    return Status::FailedPrecondition("fault plan already installed");
  }
  installed_ = true;

  for (size_t i = 0; i < plan_.delay_windows.size(); ++i) {
    const DelayWindow& window = plan_.delay_windows[i];
    std::string ref = RuleRef("delay_window", i, window.from, window.to);
    if ((window.org >= 0) == (window.node >= 0)) {
      return Status::InvalidArgument(
          ref + ": must target exactly one of org or node");
    }
    if (window.from >= window.to) {
      return Status::InvalidArgument(ref + ": empty window (from >= to)");
    }
    InjectedDelay delay{window.extra, window.jitter, window.from, window.to};
    if (window.node >= 0) {
      actors_.net->InjectDelay(window.node, delay);
      continue;
    }
    if (static_cast<size_t>(window.org) >= actors_.peers_by_org.size() ||
        actors_.peers_by_org[static_cast<size_t>(window.org)].empty()) {
      return Status::OutOfRange(ref + ": targets an unknown org");
    }
    for (Peer* peer : actors_.peers_by_org[static_cast<size_t>(window.org)]) {
      actors_.net->InjectDelay(peer->node(), delay);
    }
  }

  for (size_t i = 0; i < plan_.link_faults.size(); ++i) {
    const LinkFaultRule& rule = plan_.link_faults[i];
    std::string ref = RuleRef("link_fault", i, rule.from, rule.to);
    if (rule.from >= rule.to) {
      return Status::InvalidArgument(ref + ": empty window (from >= to)");
    }
    if (rule.drop_prob < 0.0 || rule.drop_prob > 1.0) {
      return Status::InvalidArgument(ref + ": drop_prob outside [0, 1]");
    }
    if (rule.drop_prob > 0.0 && rule.drop_prob < 1.0 &&
        !actors_.net->has_fault_rng()) {
      return Status::FailedPrecondition(
          ref + ": probabilistic link fault requires a fault RNG in the "
                "network");
    }
    actors_.net->AddLinkFault(rule);
  }

  for (size_t i = 0; i < plan_.peer_crashes.size(); ++i) {
    const PeerCrashFault& crash = plan_.peer_crashes[i];
    std::string ref = RuleRef("peer_crash", i, crash.at, crash.restart_at);
    if (crash.peer < 0 ||
        static_cast<size_t>(crash.peer) >= actors_.peers.size()) {
      return Status::OutOfRange(ref + ": targets an unknown peer");
    }
    if (crash.restart_at != kSimTimeNever && crash.restart_at <= crash.at) {
      return Status::InvalidArgument(ref + ": restart precedes the crash");
    }
    Peer* peer = actors_.peers[static_cast<size_t>(crash.peer)];
    actors_.env->Schedule(
        crash.at,
        [this, peer]() {
          peer->Crash();
          Fire(FaultEventRecord::Kind::kPeerCrash, peer->id());
        },
        ScheduleOpts{.absolute = true});
    if (crash.restart_at != kSimTimeNever) {
      actors_.env->Schedule(
          crash.restart_at,
          [this, peer]() {
            peer->Restart();
            Fire(FaultEventRecord::Kind::kPeerRestart, peer->id());
          },
          ScheduleOpts{.absolute = true});
    }
  }

  for (size_t i = 0; i < plan_.orderer_pauses.size(); ++i) {
    const OrdererPauseFault& pause = plan_.orderer_pauses[i];
    std::string ref = RuleRef("orderer_pause", i, pause.at, pause.resume_at);
    if (pause.resume_at != kSimTimeNever && pause.resume_at <= pause.at) {
      return Status::InvalidArgument(ref + ": resume precedes the pause");
    }
    if (!actors_.rafts.empty()) {
      if (pause.replica < -1 ||
          pause.replica >= actors_.rafts.front()->size()) {
        return Status::OutOfRange(ref + ": targets an unknown replica");
      }
      int requested = pause.replica;
      // A leader-targeted pause resolves its replica at fire time; the
      // resume must hit the same replica even if leadership moved in
      // between, so the resolved index is carried over.
      auto target = std::make_shared<int>(-1);
      actors_.env->Schedule(
          pause.at,
          [this, requested, target]() {
            int replica = ResolveOrdererReplica(requested);
            *target = replica;
            // The replica is one orderer *process* hosting every channel's
            // log: pausing it pauses that replica in every group.
            for (RaftGroup* raft : actors_.rafts) {
              raft->replica(replica)->Pause();
            }
            Fire(FaultEventRecord::Kind::kOrdererPause, replica);
          },
          ScheduleOpts{.absolute = true});
      if (pause.resume_at != kSimTimeNever) {
        actors_.env->Schedule(
            pause.resume_at,
            [this, target]() {
              if (*target < 0) return;
              for (RaftGroup* raft : actors_.rafts) {
                raft->replica(*target)->Resume();
              }
              Fire(FaultEventRecord::Kind::kOrdererResume, *target);
            },
            ScheduleOpts{.absolute = true});
      }
      continue;
    }
    if (pause.replica != -1) {
      return Status::FailedPrecondition(
          ref + ": replica-targeted pause requires replicated ordering");
    }
    if (actors_.orderers.empty()) {
      return Status::FailedPrecondition(ref + ": scheduled without an orderer");
    }
    actors_.env->Schedule(
        pause.at,
        [this]() {
          for (Orderer* orderer : actors_.orderers) orderer->Pause();
          Fire(FaultEventRecord::Kind::kOrdererPause, -1);
        },
        ScheduleOpts{.absolute = true});
    if (pause.resume_at != kSimTimeNever) {
      actors_.env->Schedule(
          pause.resume_at,
          [this]() {
            for (Orderer* orderer : actors_.orderers) orderer->Resume();
            Fire(FaultEventRecord::Kind::kOrdererResume, -1);
          },
          ScheduleOpts{.absolute = true});
    }
  }

  for (size_t i = 0; i < plan_.orderer_crashes.size(); ++i) {
    const OrdererCrashFault& crash = plan_.orderer_crashes[i];
    std::string ref = RuleRef("orderer_crash", i, crash.at, crash.restart_at);
    if (actors_.rafts.empty()) {
      return Status::FailedPrecondition(
          ref + ": orderer crash requires replicated ordering");
    }
    if (crash.replica < -1 ||
        crash.replica >= actors_.rafts.front()->size()) {
      return Status::OutOfRange(ref + ": targets an unknown replica");
    }
    if (crash.restart_at != kSimTimeNever && crash.restart_at <= crash.at) {
      return Status::InvalidArgument(ref + ": restart precedes the crash");
    }
    // Crashing a paused process is ill-defined in the plan language: a
    // pause promises buffered-and-flushed envelopes, a crash destroys
    // the buffer. Reject the ambiguity instead of picking silently. A
    // leader-targeted rule (replica -1) is resolved only at fire time,
    // so it conservatively conflicts with every pause window.
    for (size_t j = 0; j < plan_.orderer_pauses.size(); ++j) {
      const OrdererPauseFault& pause = plan_.orderer_pauses[j];
      bool same_replica = crash.replica < 0 || pause.replica < 0 ||
                          crash.replica == pause.replica;
      if (same_replica && WindowsOverlap(crash.at, crash.restart_at,
                                         pause.at, pause.resume_at)) {
        return Status::InvalidArgument(
            ref + ": overlaps " +
            RuleRef("orderer_pause", j, pause.at, pause.resume_at) +
            " on the same replica");
      }
    }
    int requested = crash.replica;
    // The leader is resolved when the crash fires; the restart must hit
    // the same replica, so the resolved index is carried over.
    auto target = std::make_shared<int>(-1);
    actors_.env->Schedule(
        crash.at,
        [this, requested, target]() {
          int replica = ResolveOrdererReplica(requested);
          *target = replica;
          // One crashed orderer process takes that replica down in every
          // channel's group.
          for (RaftGroup* raft : actors_.rafts) {
            raft->replica(replica)->Crash();
          }
          Fire(FaultEventRecord::Kind::kOrdererCrash, replica);
        },
        ScheduleOpts{.absolute = true});
    if (crash.restart_at != kSimTimeNever) {
      actors_.env->Schedule(
          crash.restart_at,
          [this, target]() {
            if (*target < 0) return;
            for (RaftGroup* raft : actors_.rafts) {
              raft->replica(*target)->Restart();
            }
            Fire(FaultEventRecord::Kind::kOrdererRestart, *target);
          },
          ScheduleOpts{.absolute = true});
    }
  }

  return Status::OK();
}

}  // namespace fabricsim
