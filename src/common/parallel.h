#ifndef FABRICSIM_COMMON_PARALLEL_H_
#define FABRICSIM_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

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

/// Runs fn(0..n-1) across up to `jobs` threads and blocks until all
/// calls finish. Simulations themselves stay single-threaded; this
/// only fans out *independent* DES instances (one per (config,
/// repetition) job), so calls never share mutable state — each writes
/// to its own pre-assigned output slot. The threads claim indices in
/// increasing order from one shared counter, as a FIFO queue would
/// hand them out. With jobs <= 1 (or n <= 1) the calls run inline, in
/// index order, with zero threading overhead — exactly the historical
/// serial path. If any call throws, the exception thrown by the
/// *lowest index* is rethrown on the calling thread after all jobs
/// complete (the serial path fails at the lowest index first, so the
/// observable error is identical in both modes).
void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn);

}  // namespace fabricsim

#endif  // FABRICSIM_COMMON_PARALLEL_H_
