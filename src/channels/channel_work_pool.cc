#include "src/channels/channel_work_pool.h"

#include <utility>

namespace fabricsim {

void ChannelWorkPool::Submit(Environment& env, ChannelId channel,
                             std::function<SimTime()> at_start,
                             std::function<void()> at_end) {
  EnsureChannel(channel);
  pending_.push_back(
      Task{env.now(), channel, std::move(at_start), std::move(at_end)});
  TryDispatch(env);
}

void ChannelWorkPool::TryDispatch(Environment& env) {
  while (in_service_ < static_cast<size_t>(workers_)) {
    // First pending task whose channel pipeline is idle; tasks of busy
    // channels keep their queue position (FIFO among eligible).
    auto it = pending_.begin();
    while (it != pending_.end() &&
           channel_busy_[static_cast<size_t>(it->channel)]) {
      ++it;
    }
    if (it == pending_.end()) return;
    Task task = std::move(*it);
    pending_.erase(it);
    size_t ch = static_cast<size_t>(task.channel);
    channel_busy_[ch] = 1;
    ++in_service_;
    queue_delay_stats_.Add(ToMillis(env.now() - task.submitted));
    SimTime service = 0;
    if (task.at_start) service = task.at_start();
    if (service < 0) service = 0;
    total_service_ += service;
    channel_service_[ch] += service;
    env.Schedule(service, [this, &env, ch, at_end = std::move(task.at_end)]() {
      ++tasks_completed_;
      ++channel_completed_[ch];
      if (at_end) at_end();
      channel_busy_[ch] = 0;
      --in_service_;
      TryDispatch(env);
    });
  }
}

void ChannelWorkPool::EnsureChannel(ChannelId channel) {
  size_t need = static_cast<size_t>(channel) + 1;
  if (channel_busy_.size() >= need) return;
  channel_busy_.resize(need, 0);
  channel_service_.resize(need, 0);
  channel_completed_.resize(need, 0);
}

SimTime ChannelWorkPool::channel_service(ChannelId channel) const {
  size_t ch = static_cast<size_t>(channel);
  return ch < channel_service_.size() ? channel_service_[ch] : 0;
}

uint64_t ChannelWorkPool::channel_tasks_completed(ChannelId channel) const {
  size_t ch = static_cast<size_t>(channel);
  return ch < channel_completed_.size() ? channel_completed_[ch] : 0;
}

}  // namespace fabricsim
