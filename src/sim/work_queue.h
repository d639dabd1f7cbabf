#ifndef FABRICSIM_SIM_WORK_QUEUE_H_
#define FABRICSIM_SIM_WORK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/sim/environment.h"

namespace fabricsim {

/// Models a serial server (a peer's validation pipeline, a chaincode
/// container, an orderer's delivery loop) inside a simulation actor.
/// Tasks run strictly FIFO; while the server is busy, submissions
/// queue up — this queueing is what produces the latency blow-ups the
/// paper observes under overload (e.g. CouchDB range scans).
///
/// A task has two phases:
///  * `at_start` runs when the server picks the task up. It performs
///    the data-plane work against *current* simulation state (e.g.
///    executes a chaincode against the world state as of that moment) and
///    returns the service time the work costs.
///  * `at_end` runs when the service time has elapsed (commit point).
class WorkQueue {
 public:
  explicit WorkQueue(std::string name = "work") : name_(std::move(name)) {}

  /// Enqueues a task. See class comment for phase semantics. Either
  /// callback may be empty.
  void Submit(Environment& env, std::function<SimTime()> at_start,
              std::function<void()> at_end);

  /// Number of tasks waiting or in service.
  size_t depth() const { return pending_.size() + (busy_ ? 1 : 0); }

  bool busy() const { return busy_; }

  /// Total service time consumed so far (utilization numerator).
  SimTime total_service() const { return total_service_; }

  uint64_t tasks_completed() const { return tasks_completed_; }

  /// Distribution of queueing delays (submit -> start), milliseconds.
  const SummaryStats& queue_delay_stats() const { return queue_delay_stats_; }

  const std::string& name() const { return name_; }

 private:
  struct Task {
    SimTime submitted;
    std::function<SimTime()> at_start;
    std::function<void()> at_end;
  };

  void StartNext(Environment& env);

  std::string name_;
  std::deque<Task> pending_;
  bool busy_ = false;
  SimTime total_service_ = 0;
  uint64_t tasks_completed_ = 0;
  SummaryStats queue_delay_stats_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_WORK_QUEUE_H_
