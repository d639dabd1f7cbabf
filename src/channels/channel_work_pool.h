#ifndef FABRICSIM_CHANNELS_CHANNEL_WORK_POOL_H_
#define FABRICSIM_CHANNELS_CHANNEL_WORK_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/channels/channel_types.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/sim/environment.h"

namespace fabricsim {

/// The shared validation resource a peer runs its per-channel commit
/// pipelines on. Fabric validates and commits blocks of one channel
/// strictly in order, but different channels' blocks may validate
/// concurrently up to the peer's commit-worker budget — channels share
/// the machine, not the pipeline. The pool models exactly that:
///
///  * at most `workers` tasks are in service at once (the shared
///    resource — commit goroutines / CPU of one peer process);
///  * at most one task *per channel* is in service (each channel's
///    ledger is a serial pipeline);
///  * among eligible tasks, strict FIFO by submission order — a hot
///    channel that keeps the queue full delays a cold channel's lone
///    block behind its backlog, which is where cross-channel
///    interference comes from.
///
/// Task phases match WorkQueue: `at_start` runs synchronously when a
/// worker picks the task up and returns the service time; `at_end`
/// runs when that time has elapsed. With a single channel the pool
/// degenerates to WorkQueue — same events, same timestamps, same
/// counter updates — which is what keeps 1-channel runs byte-identical
/// to the pre-channel pipeline.
class ChannelWorkPool {
 public:
  explicit ChannelWorkPool(std::string name = "work", int workers = 1)
      : name_(std::move(name)), workers_(workers < 1 ? 1 : workers) {}

  /// Enqueues a task for `channel`. Either callback may be empty.
  void Submit(Environment& env, ChannelId channel,
              std::function<SimTime()> at_start, std::function<void()> at_end);

  /// Number of tasks waiting or in service.
  size_t depth() const { return pending_.size() + in_service_; }

  bool busy() const { return in_service_ > 0; }

  int workers() const { return workers_; }

  size_t in_service() const { return in_service_; }

  /// Total service time consumed so far, across all channels.
  SimTime total_service() const { return total_service_; }

  /// Service time consumed by one channel's tasks.
  SimTime channel_service(ChannelId channel) const;

  uint64_t tasks_completed() const { return tasks_completed_; }

  uint64_t channel_tasks_completed(ChannelId channel) const;

  /// Distribution of queueing delays (submit -> start), milliseconds.
  const SummaryStats& queue_delay_stats() const { return queue_delay_stats_; }

  const std::string& name() const { return name_; }

 private:
  struct Task {
    SimTime submitted;
    ChannelId channel;
    std::function<SimTime()> at_start;
    std::function<void()> at_end;
  };

  /// Starts eligible tasks while workers are free. Called on submit
  /// and on every task completion.
  void TryDispatch(Environment& env);

  void EnsureChannel(ChannelId channel);

  std::string name_;
  int workers_;
  std::deque<Task> pending_;
  size_t in_service_ = 0;
  SimTime total_service_ = 0;
  uint64_t tasks_completed_ = 0;
  SummaryStats queue_delay_stats_;
  /// Indexed by channel; grown on first use.
  std::vector<char> channel_busy_;
  std::vector<SimTime> channel_service_;
  std::vector<uint64_t> channel_completed_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHANNELS_CHANNEL_WORK_POOL_H_
