#ifndef FABRICSIM_SIM_ENVIRONMENT_H_
#define FABRICSIM_SIM_ENVIRONMENT_H_

#include <cstdint>
#include <functional>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace fabricsim {

class Tracer;  // src/obs/tracer.h

/// Options for Environment::Schedule — the one scheduling entry point.
struct ScheduleOpts {
  /// Daemon events fire normally while real (non-daemon) work remains
  /// anywhere in the queue, but a queue holding only daemon events
  /// counts as drained. Perpetual self-re-arming control-plane timers
  /// (Raft heartbeats, election timeouts) use this so RunAll()
  /// terminates once the workload has fully drained.
  bool daemon = false;
  /// When set, `when` is an absolute simulated time (clamped to
  /// now()); otherwise it is a delay from now() (clamped to 0).
  bool absolute = false;
};

/// The discrete-event simulation environment: a virtual clock plus the
/// event queue. The event loop runs on the caller's thread and is
/// deterministic for a given seed.
class Environment {
 public:
  explicit Environment(uint64_t seed = 1);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` at `when`: a delay (>= 0) from now() by
  /// default, or an absolute time with opts.absolute. This is the
  /// single scheduling surface every actor goes through.
  void Schedule(SimTime when, std::function<void()> action,
                ScheduleOpts opts = ScheduleOpts());

  /// Runs events until the queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` still run.
  void RunUntil(SimTime until);

  /// Runs until no real (non-daemon) events remain. Equivalent to
  /// draining the queue when no daemon timers were ever scheduled.
  void RunAll();

  /// Number of events executed so far (for tests / diagnostics).
  uint64_t events_executed() const { return events_executed_; }

  /// Root RNG for this run; actors should Fork() their own streams.
  Rng& rng() { return rng_; }

  /// Lifecycle tracer shared by every actor in this environment.
  /// nullptr (the default) disables tracing: actors guard each hook
  /// with a null check, so the disabled path is a single branch and
  /// the simulation behaves identically either way. The tracer is a
  /// pure observer — it never schedules events or consumes randomness.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  Rng rng_;
  Tracer* tracer_ = nullptr;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_ENVIRONMENT_H_
