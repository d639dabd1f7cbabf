#ifndef FABRICSIM_CORE_RUNNER_H_
#define FABRICSIM_CORE_RUNNER_H_

#include <vector>

#include "src/common/status.h"
#include "src/core/experiment.h"
#include "src/core/failure_report.h"

namespace fabricsim {

/// Mean + per-repetition reports for one experiment.
struct ExperimentResult {
  FailureReport mean;
  std::vector<FailureReport> repetitions;
  /// Per-repetition lifecycle trace exports (versioned JSONL), parallel
  /// to `repetitions`. Empty unless config.fabric.tracing was set; the
  /// strings are deterministic for a given config, independent of
  /// FABRICSIM_JOBS.
  std::vector<std::string> traces;
};

/// Runs one experiment: builds a fresh network per repetition (seeds
/// base_seed, base_seed+1, ...), drives the load, drains the pipeline
/// and parses the blockchain. Repetitions fan out over ParallelJobs()
/// worker threads (FABRICSIM_JOBS env knob; 1 = serial); each
/// repetition owns its seed, Environment and network, and results land
/// in pre-sized slots, so the output is bitwise identical to the
/// serial run. Deterministic for a given config.
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

/// Runs a batch of experiments (e.g. the points of a sweep) as ONE
/// flat (config, repetition) job list fanned out over ParallelJobs()
/// threads — so a 5-point x 3-repetition sweep exposes 15 independent
/// jobs instead of 3 at a time. Jobs start costliest first (rate x
/// duration x peers). Results are order-preserving:
/// out[i] corresponds to configs[i]. On failure, returns the error of
/// the lexicographically first failing (config, repetition), which is
/// exactly the error the serial loop would have hit first.
Result<std::vector<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs);

/// Single-repetition convenience used by tests and examples.
Result<FailureReport> RunOnce(const ExperimentConfig& config, uint64_t seed);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_RUNNER_H_
