#ifndef FABRICSIM_SIM_WORK_QUEUE_H_
#define FABRICSIM_SIM_WORK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/sim/environment.h"

namespace fabricsim {

/// Models a server inside a simulation actor: a peer's endorsement
/// path or validation pipeline, an orderer's ingress and delivery
/// loop. While the server is busy, submissions queue up — this
/// queueing is what produces the latency blow-ups the paper observes
/// under overload (e.g. CouchDB range scans).
///
/// Every task belongs to a lane (a channel index):
///  * at most `workers` tasks are in service at once (the shared
///    resource — one chaincode container, the commit goroutines or CPU
///    of one peer process);
///  * at most one task per lane is in service (each channel's ledger
///    is a serial pipeline);
///  * among eligible tasks, strict FIFO by submission order — a hot
///    lane that keeps the queue full delays a cold lane's lone task
///    behind its backlog, which is where cross-channel interference
///    comes from.
/// With one worker the queue is FIFO whatever the lanes; with one lane
/// the spare workers stay idle.
///
/// A task has two phases:
///  * `at_start` runs when a worker picks the task up. It performs
///    the data-plane work against *current* simulation state (e.g.
///    executes a chaincode against the world state as of that moment)
///    and returns the service time the work costs.
///  * `at_end` runs when the service time has elapsed (commit point).
class WorkQueue {
 public:
  explicit WorkQueue(int workers = 1) : workers_(workers < 1 ? 1 : workers) {}

  // Scheduled completions hold this queue's address.
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Enqueues a task on `lane` (>= 0). See class comment for phase
  /// semantics. Either callback may be empty.
  void Submit(Environment& env, int lane, std::function<SimTime()> at_start,
              std::function<void()> at_end);

  /// Number of tasks waiting or in service.
  size_t depth() const { return pending_.size() + in_service_; }

  bool busy() const { return in_service_ > 0; }

  size_t in_service() const { return in_service_; }

  /// Total service time consumed so far, across all lanes (utilization
  /// numerator).
  SimTime total_service() const { return total_service_; }

  /// Service time consumed by one lane's tasks.
  SimTime lane_service(int lane) const;

  uint64_t tasks_completed() const { return tasks_completed_; }

  uint64_t lane_tasks_completed(int lane) const;

  /// Distribution of queueing delays (submit -> start), milliseconds.
  const SummaryStats& queue_delay_stats() const { return queue_delay_stats_; }

 private:
  struct Task {
    SimTime submitted;
    int lane;
    std::function<SimTime()> at_start;
    std::function<void()> at_end;
  };

  /// Starts eligible tasks while workers are free. Called on submit
  /// and on every task completion.
  void TryDispatch(Environment& env);

  int workers_;
  std::deque<Task> pending_;
  size_t in_service_ = 0;
  SimTime total_service_ = 0;
  uint64_t tasks_completed_ = 0;
  SummaryStats queue_delay_stats_;
  /// Indexed by lane; grown on first use.
  std::vector<char> lane_busy_;
  std::vector<SimTime> lane_service_;
  std::vector<uint64_t> lane_completed_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_SIM_WORK_QUEUE_H_
