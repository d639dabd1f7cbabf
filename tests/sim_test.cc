#include <gtest/gtest.h>

#include <functional>
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
  WorkQueue q("test");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    q.Submit(
        env, [] { return SimTime{100}; },
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
  WorkQueue q("test");
  SimTime start_time_second_task = -1;
  q.Submit(env, [] { return SimTime{500}; }, {});
  q.Submit(
      env,
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
  WorkQueue q("test");
  SimTime done_at = -1;
  env.Schedule(50, [&] {
    q.Submit(env, [] { return SimTime{25}; }, [&] { done_at = env.now(); });
  });
  env.RunAll();
  EXPECT_EQ(done_at, 75);
}

TEST(WorkQueueTest, QueueDelayTracked) {
  Environment env(1);
  WorkQueue q("test");
  q.Submit(env, [] { return SimTime{1000}; }, {});
  q.Submit(env, [] { return SimTime{0}; }, {});
  env.RunAll();
  // Second task waited 1 ms behind the first.
  EXPECT_NEAR(q.queue_delay_stats().max(), 1.0, 1e-9);
}

TEST(WorkQueueTest, DepthReflectsBacklog) {
  Environment env(1);
  WorkQueue q("test");
  q.Submit(env, [] { return SimTime{10}; }, {});
  q.Submit(env, [] { return SimTime{10}; }, {});
  EXPECT_EQ(q.depth(), 2u);
  env.RunAll();
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_FALSE(q.busy());
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
