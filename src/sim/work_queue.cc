#include "src/sim/work_queue.h"

#include <utility>

namespace fabricsim {

void WorkQueue::Submit(Environment& env, int lane,
                       std::function<SimTime()> at_start,
                       std::function<void()> at_end) {
  size_t need = static_cast<size_t>(lane) + 1;
  if (lane_busy_.size() < need) {
    lane_busy_.resize(need, 0);
    lane_service_.resize(need, 0);
    lane_completed_.resize(need, 0);
  }
  pending_.push_back(
      Task{env.now(), lane, std::move(at_start), std::move(at_end)});
  TryDispatch(env);
}

void WorkQueue::TryDispatch(Environment& env) {
  while (in_service_ < static_cast<size_t>(workers_)) {
    // First pending task whose lane is idle; tasks of busy lanes keep
    // their queue position (FIFO among eligible).
    auto it = pending_.begin();
    while (it != pending_.end() &&
           lane_busy_[static_cast<size_t>(it->lane)]) {
      ++it;
    }
    if (it == pending_.end()) return;
    Task task = std::move(*it);
    pending_.erase(it);
    size_t lane = static_cast<size_t>(task.lane);
    lane_busy_[lane] = 1;
    ++in_service_;
    queue_delay_stats_.Add(ToMillis(env.now() - task.submitted));
    SimTime service = 0;
    if (task.at_start) service = task.at_start();
    if (service < 0) service = 0;
    total_service_ += service;
    lane_service_[lane] += service;
    env.Schedule(service,
                 [this, &env, lane, at_end = std::move(task.at_end)]() {
                   ++tasks_completed_;
                   ++lane_completed_[lane];
                   if (at_end) at_end();
                   lane_busy_[lane] = 0;
                   --in_service_;
                   TryDispatch(env);
                 });
  }
}

SimTime WorkQueue::lane_service(int lane) const {
  size_t index = static_cast<size_t>(lane);
  return index < lane_service_.size() ? lane_service_[index] : 0;
}

uint64_t WorkQueue::lane_tasks_completed(int lane) const {
  size_t index = static_cast<size_t>(lane);
  return index < lane_completed_.size() ? lane_completed_[index] : 0;
}

}  // namespace fabricsim
