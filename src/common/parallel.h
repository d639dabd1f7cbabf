#ifndef FABRICSIM_COMMON_PARALLEL_H_
#define FABRICSIM_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fabricsim {

/// Number of worker threads experiment-level fan-out should use.
/// Initialized lazily from the FABRICSIM_JOBS environment variable
/// (falling back to std::thread::hardware_concurrency). Always >= 1;
/// 1 means the strictly serial path.
int ParallelJobs();

/// Overrides the job count programmatically (tests, benches). Values
/// < 1 are clamped to 1.
void SetParallelJobs(int jobs);

/// Re-reads FABRICSIM_JOBS / hardware_concurrency, ignoring any prior
/// SetParallelJobs override. Returns the resulting job count.
int ParallelJobsFromEnv();

/// A small fixed-size thread pool with one shared FIFO queue and no
/// work stealing. Simulations themselves stay single-threaded; the
/// pool only fans out *independent* DES instances (one per (config,
/// repetition) job), so workers never share mutable state — each job
/// writes to its own pre-assigned output slot.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one job. Jobs must not throw across the pool boundary;
  /// ParallelFor wraps user callbacks so exceptions are captured and
  /// rethrown on the calling thread.
  void Submit(std::function<void()> job);

  /// Blocks until every submitted job has finished executing.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..n-1) across up to `jobs` threads and blocks until all
/// calls finish. With jobs <= 1 (or n <= 1) the calls run inline, in
/// index order, with zero threading overhead — exactly the historical
/// serial path. If any call throws, the exception thrown by the
/// *lowest index* is rethrown on the calling thread after all jobs
/// complete (the serial path fails at the lowest index first, so the
/// observable error is identical in both modes).
void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn);

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_PARALLEL_H_
