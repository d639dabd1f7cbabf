#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/environment.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/work_queue.h"

namespace fabricsim {
namespace {

// ------------------------------------------------------ EventQueue

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Push(30, [&] { fired.push_back(3); });
  q.Push(10, [&] { fired.push_back(1); });
  q.Push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.Pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.Pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, PeekTime) {
  EventQueue q;
  q.Push(42, [] {});
  EXPECT_EQ(q.PeekTime(), 42);
  EXPECT_EQ(q.size(), 1u);
}

// ----------------------------------------------------- Environment

TEST(EnvironmentTest, ClockAdvancesWithEvents) {
  Environment env(1);
  SimTime seen = -1;
  env.Schedule(100, [&] { seen = env.now(); });
  env.RunAll();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(env.now(), 100);
}

TEST(EnvironmentTest, RunUntilStopsAtBoundary) {
  Environment env(1);
  int fired = 0;
  env.Schedule(50, [&] { ++fired; });
  env.Schedule(150, [&] { ++fired; });
  env.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(env.now(), 100);
  env.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EnvironmentTest, NestedScheduling) {
  Environment env(1);
  std::vector<SimTime> times;
  env.Schedule(10, [&] {
    times.push_back(env.now());
    env.Schedule(5, [&] { times.push_back(env.now()); });
  });
  env.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
  EXPECT_EQ(env.events_executed(), 2u);
}

TEST(EnvironmentTest, NegativeDelayClampsToNow) {
  Environment env(1);
  SimTime seen = -1;
  env.Schedule(20, [&] {
    env.Schedule(-5, [&] { seen = env.now(); });
  });
  env.RunAll();
  EXPECT_EQ(seen, 20);
}

TEST(EnvironmentTest, AbsoluteScheduleInterleavesWithDelaysAndClampsToNow) {
  Environment env(7);
  std::vector<int> order;
  env.Schedule(20, [&] { order.push_back(2); });
  env.Schedule(10, [&] { order.push_back(1); });
  // Absolute scheduling, including the clamp-to-now of past times.
  env.Schedule(15, [&] { order.push_back(3); }, ScheduleOpts{.absolute = true});
  env.RunUntil(12);
  env.Schedule(5, [&] { order.push_back(4); }, ScheduleOpts{.absolute = true});
  env.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 3, 2}));
}

TEST(EnvironmentTest, DaemonOptDoesNotKeepTheRunAlive) {
  Environment env(7);
  int real = 0;
  int daemon_fires = 0;
  std::function<void()> rearm = [&] {
    ++daemon_fires;
    env.Schedule(10, rearm, ScheduleOpts{.daemon = true});
  };
  env.Schedule(10, rearm, ScheduleOpts{.daemon = true});
  env.Schedule(35, [&] { ++real; });
  env.RunAll();
  EXPECT_EQ(real, 1);
  // Fired at 10/20/30 while real work remained, then quiesced.
  EXPECT_EQ(daemon_fires, 3);
  EXPECT_EQ(env.now(), 35);
}

// ------------------------------------------------------- WorkQueue

TEST(WorkQueueTest, SerializesTasks) {
  Environment env(1);
  WorkQueue q;
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    q.Submit(
        env, 0, [] { return SimTime{100}; },
        [&] { completions.push_back(env.now()); });
  }
  env.RunAll();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(q.total_service(), 300);
  EXPECT_EQ(q.tasks_completed(), 3u);
}

TEST(WorkQueueTest, WorkRunsAtStartTime) {
  // The at_start phase must observe the simulation state at the moment
  // the server picks the task up, not at submission.
  Environment env(1);
  WorkQueue q;
  SimTime start_time_second_task = -1;
  q.Submit(env, 0, [] { return SimTime{500}; }, {});
  q.Submit(
      env, 0,
      [&] {
        start_time_second_task = env.now();
        return SimTime{10};
      },
      {});
  env.RunAll();
  EXPECT_EQ(start_time_second_task, 500);
}

TEST(WorkQueueTest, IdleServerStartsImmediately) {
  Environment env(1);
  WorkQueue q;
  SimTime done_at = -1;
  env.Schedule(50, [&] {
    q.Submit(env, 0, [] { return SimTime{25}; }, [&] { done_at = env.now(); });
  });
  env.RunAll();
  EXPECT_EQ(done_at, 75);
}

TEST(WorkQueueTest, QueueDelayTracked) {
  Environment env(1);
  WorkQueue q;
  q.Submit(env, 0, [] { return SimTime{1000}; }, {});
  q.Submit(env, 0, [] { return SimTime{0}; }, {});
  env.RunAll();
  // Second task waited 1 ms behind the first.
  EXPECT_NEAR(q.queue_delay_stats().max(), 1.0, 1e-9);
}

TEST(WorkQueueTest, DepthReflectsBacklog) {
  Environment env(1);
  WorkQueue q;
  q.Submit(env, 0, [] { return SimTime{10}; }, {});
  q.Submit(env, 0, [] { return SimTime{10}; }, {});
  EXPECT_EQ(q.depth(), 2u);
  env.RunAll();
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.busy());
}

// One worker serves every lane in submission order: the endorsement
// queue relies on this to stay FIFO across channels.
TEST(WorkQueueTest, OneWorkerIsFifoAcrossLanes) {
  Environment env(1);
  WorkQueue q;
  std::vector<std::pair<SimTime, int>> starts;
  const int lanes[] = {0, 1, 0, 2};
  for (int i = 0; i < 4; ++i) {
    q.Submit(
        env, lanes[i],
        [&, i] {
          starts.push_back({env.now(), i});
          return SimTime{10};
        },
        {});
  }
  env.RunAll();
  EXPECT_EQ(starts, (std::vector<std::pair<SimTime, int>>{
                        {0, 0}, {10, 1}, {20, 2}, {30, 3}}));
  EXPECT_EQ(q.lane_tasks_completed(0), 2u);
  EXPECT_EQ(q.lane_tasks_completed(1), 1u);
  EXPECT_EQ(q.lane_tasks_completed(2), 1u);
}

// With one lane the spare workers stay idle: a 3-worker queue must
// match a 1-worker queue exactly — same completion order, same
// timestamps, same counters. This is what keeps single-channel runs
// bitwise identical to the pre-channel pipeline.
TEST(WorkQueueTest, SingleChannelMatchesWorkQueue) {
  Environment env_q(1);
  Environment env_p(1);
  WorkQueue queue;
  WorkQueue pool(/*workers=*/3);
  std::vector<std::pair<SimTime, int>> done_q;
  std::vector<std::pair<SimTime, int>> done_p;
  for (int i = 0; i < 6; ++i) {
    SimTime at = i * 3 * kMillisecond;
    SimTime service = (7 + 2 * i) * kMillisecond;
    env_q.Schedule(
        at,
        [&, i, service] {
          queue.Submit(
              env_q, 0, [service] { return service; },
              [&, i] { done_q.push_back({env_q.now(), i}); });
        },
        ScheduleOpts{.absolute = true});
    env_p.Schedule(
        at,
        [&, i, service] {
          pool.Submit(
              env_p, 0, [service] { return service; },
              [&, i] { done_p.push_back({env_p.now(), i}); });
        },
        ScheduleOpts{.absolute = true});
  }
  env_q.RunAll();
  env_p.RunAll();
  EXPECT_EQ(done_q, done_p);
  EXPECT_EQ(queue.total_service(), pool.total_service());
  EXPECT_EQ(queue.tasks_completed(), pool.tasks_completed());
  EXPECT_EQ(pool.lane_tasks_completed(0), queue.tasks_completed());
}

// One lane's tasks run strictly in order even when workers are free:
// the second task of a channel waits for the first.
TEST(WorkQueueTest, TasksOfOneChannelSerialize) {
  Environment env(1);
  WorkQueue pool(/*workers=*/4);
  std::vector<std::pair<SimTime, int>> starts;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(
        env, /*lane=*/0,
        [&, i] {
          starts.push_back({env.now(), i});
          return 10 * kMillisecond;
        },
        {});
  }
  env.RunAll();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], (std::pair<SimTime, int>{0, 0}));
  EXPECT_EQ(starts[1], (std::pair<SimTime, int>{10 * kMillisecond, 1}));
  EXPECT_EQ(starts[2], (std::pair<SimTime, int>{20 * kMillisecond, 2}));
}

// Different lanes run concurrently, but never more than the worker
// budget at once.
TEST(WorkQueueTest, WorkerBudgetCapsCrossChannelParallelism) {
  Environment env(1);
  WorkQueue pool(/*workers=*/2);
  std::vector<std::pair<SimTime, int>> starts;
  size_t peak_in_service = 0;
  for (int c = 0; c < 3; ++c) {
    pool.Submit(
        env, c,
        [&, c] {
          starts.push_back({env.now(), c});
          peak_in_service = std::max(peak_in_service, pool.in_service());
          return 10 * kMillisecond;
        },
        {});
  }
  env.RunAll();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], (std::pair<SimTime, int>{0, 0}));
  EXPECT_EQ(starts[1], (std::pair<SimTime, int>{0, 1}));
  // Lane 2 had to wait for a worker despite being idle itself.
  EXPECT_EQ(starts[2], (std::pair<SimTime, int>{10 * kMillisecond, 2}));
  EXPECT_LE(peak_in_service, 2u);
}

// A busy lane's queued backlog does not block a later-submitted idle
// lane (eligibility skips the FIFO head), but the shared workers still
// make the hot lane's backlog delay everyone once the budget is
// exhausted — the cross-channel interference the bench measures.
TEST(WorkQueueTest, IdleChannelOvertakesBusyChannelsBacklog) {
  Environment env(1);
  WorkQueue pool(/*workers=*/2);
  std::vector<std::pair<SimTime, std::string>> starts;
  auto task = [&](int lane, const std::string& label) {
    pool.Submit(
        env, lane,
        [&, label] {
          starts.push_back({env.now(), label});
          return 10 * kMillisecond;
        },
        {});
  };
  task(0, "hot0");
  task(0, "hot1");  // queued: lane 0 busy
  task(0, "hot2");  // queued behind hot1
  task(1, "cold0");  // submitted last, starts immediately on worker 2
  env.RunAll();
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0],
            (std::pair<SimTime, std::string>{0, "hot0"}));
  EXPECT_EQ(starts[1],
            (std::pair<SimTime, std::string>{0, "cold0"}));
  EXPECT_EQ(starts[2],
            (std::pair<SimTime, std::string>{10 * kMillisecond, "hot1"}));
  EXPECT_EQ(starts[3],
            (std::pair<SimTime, std::string>{20 * kMillisecond, "hot2"}));
  EXPECT_EQ(pool.lane_tasks_completed(0), 3u);
  EXPECT_EQ(pool.lane_tasks_completed(1), 1u);
  EXPECT_GT(pool.lane_service(0), pool.lane_service(1));
}

// --------------------------------------------------------- Network

TEST(NetworkTest, DelayWithinConfiguredBounds) {
  NetworkConfig config;
  config.base_latency = 1000;
  config.jitter = 200;
  config.bandwidth_bytes_per_us = 0;  // disable payload term
  Network net(config, Rng(5));
  for (int i = 0; i < 1000; ++i) {
    SimTime d = net.SampleDelay(0, 1, 0, 0);
    EXPECT_GE(d, 800);
    EXPECT_LE(d, 1200);
  }
}

TEST(NetworkTest, SelfMessagesAreFree) {
  Network net(NetworkConfig{}, Rng(5));
  EXPECT_EQ(net.SampleDelay(3, 3, 1000, 0), 0);
}

TEST(NetworkTest, PayloadAddsTransferTime) {
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter = 0;
  config.bandwidth_bytes_per_us = 10.0;
  Network net(config, Rng(5));
  EXPECT_EQ(net.SampleDelay(0, 1, 1000, 0), 100 + 100);
}

TEST(NetworkTest, InjectedDelayAppliesToNode) {
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter = 0;
  config.bandwidth_bytes_per_us = 0;
  Network net(config, Rng(5));
  net.InjectDelay(7, InjectedDelay{100000, 0});
  EXPECT_EQ(net.SampleDelay(0, 7, 0, 0), 100100);
  EXPECT_EQ(net.SampleDelay(7, 0, 0, 0), 100100);
  EXPECT_EQ(net.SampleDelay(0, 1, 0, 0), 100);
}

TEST(NetworkTest, InjectedDelayWindowOnlyAppliesInsideWindow) {
  NetworkConfig config;
  config.base_latency = 100;
  config.jitter = 0;
  config.bandwidth_bytes_per_us = 0;
  Network net(config, Rng(5));
  net.InjectDelay(7, InjectedDelay{100000, 0, /*from=*/kSecond,
                                   /*to=*/2 * kSecond});
  EXPECT_EQ(net.SampleDelay(0, 7, 0, 0), 100);
  EXPECT_EQ(net.SampleDelay(0, 7, 0, kSecond), 100100);
  EXPECT_EQ(net.SampleDelay(0, 7, 0, 2 * kSecond - 1), 100100);
  EXPECT_EQ(net.SampleDelay(0, 7, 0, 2 * kSecond), 100);
}

TEST(NetworkTest, LinkFaultDropsMessagesInsideWindow) {
  Environment env(1);
  Network net(NetworkConfig{}, Rng(5));
  net.AddLinkFault(LinkFaultRule{/*a=*/1, /*b=*/2, /*bidirectional=*/true,
                                 /*drop_prob=*/1.0, /*from=*/0,
                                 /*to=*/kSecond});
  int delivered = 0;
  net.Send(env, 1, 2, 0, [&]() { ++delivered; });   // dropped
  net.Send(env, 2, 1, 0, [&]() { ++delivered; });   // dropped (bidirectional)
  net.Send(env, 1, 3, 0, [&]() { ++delivered; });   // unaffected link
  env.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped(), 2u);
  // Past the window the link heals.
  env.Schedule(2 * kSecond, [] {});
  env.RunAll();
  net.Send(env, 1, 2, 0, [&]() { ++delivered; });
  env.RunAll();
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkTest, ProbabilisticDropUsesDedicatedFaultStream) {
  Environment env(1);
  NetworkConfig config;
  config.jitter = 0;
  Network net(config, Rng(5));
  net.set_fault_rng(Rng(99));
  net.AddLinkFault(LinkFaultRule{-1, -1, true, /*drop_prob=*/0.5, 0,
                                 kSimTimeNever});
  int delivered = 0;
  const int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(env, 1, 2, 0, [&]() { ++delivered; });
  }
  env.RunAll();
  EXPECT_GT(delivered, kSends / 3);
  EXPECT_LT(delivered, 2 * kSends / 3);
  EXPECT_EQ(static_cast<uint64_t>(delivered) + net.messages_dropped(),
            static_cast<uint64_t>(kSends));
}

TEST(NetworkTest, SendDeliversAfterDelay) {
  Environment env(1);
  NetworkConfig config;
  config.base_latency = 500;
  config.jitter = 0;
  config.bandwidth_bytes_per_us = 0;
  Network net(config, Rng(5));
  SimTime delivered_at = -1;
  net.Send(env, 0, 1, 0, [&] { delivered_at = env.now(); });
  env.RunAll();
  EXPECT_EQ(delivered_at, 500);
  EXPECT_EQ(net.messages_sent(), 1u);
}

}  // namespace
}  // namespace fabricsim
