#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace fabricsim {

namespace {

int ClampJobs(int jobs) { return jobs < 1 ? 1 : jobs; }

int ReadJobsFromEnv() {
  if (const char* env = std::getenv("FABRICSIM_JOBS")) {
    int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// 0 = not yet initialized from the environment.
std::atomic<int> g_jobs{0};

}  // namespace

int ParallelJobs() {
  int jobs = g_jobs.load(std::memory_order_relaxed);
  if (jobs == 0) {
    jobs = ReadJobsFromEnv();
    g_jobs.store(jobs, std::memory_order_relaxed);
  }
  return jobs;
}

void SetParallelJobs(int jobs) {
  g_jobs.store(ClampJobs(jobs), std::memory_order_relaxed);
}

int ParallelJobsFromEnv() {
  int jobs = ReadJobsFromEnv();
  g_jobs.store(jobs, std::memory_order_relaxed);
  return jobs;
}

void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  jobs = ClampJobs(jobs);
  if (jobs == 1 || n == 1) {
    // Historical serial path: in order, first exception escapes.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One exception slot per index; no locking needed since each call
  // writes only its own slot.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  size_t num_threads = std::min<size_t>(static_cast<size_t>(jobs), n);
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace fabricsim
