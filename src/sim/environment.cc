#include "src/sim/environment.h"

#include <utility>

namespace fabricsim {

Environment::Environment(uint64_t seed) : rng_(seed, /*stream=*/1) {}

void Environment::Schedule(SimTime when, std::function<void()> action,
                           ScheduleOpts opts) {
  SimTime time = opts.absolute ? when : now_ + when;
  if (time < now_) time = now_;
  queue_.Push(time, std::move(action), opts.daemon);
}

void Environment::RunAll() {
  // Daemon timers interleave normally while real work remains; once
  // only daemon events are left the simulation is quiescent (a live
  // Raft leader would otherwise heartbeat forever).
  while (queue_.has_real_events()) {
    Event ev = queue_.Pop();
    now_ = ev.time;
    ++events_executed_;
    ev.action();
  }
}

void Environment::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.PeekTime() <= until) {
    Event ev = queue_.Pop();
    now_ = ev.time;
    ++events_executed_;
    ev.action();
  }
  if (now_ < until) now_ = until;
}

}  // namespace fabricsim
