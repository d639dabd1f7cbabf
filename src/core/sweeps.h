#ifndef FABRICSIM_CORE_SWEEPS_H_
#define FABRICSIM_CORE_SWEEPS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {

// ---------------------------------------------------------------------
// Generic one-dimensional sweep API. A sweep is described
// declaratively by a SweepSpec — the parameter's name, the values to
// visit, and how one value is applied to a base ExperimentConfig —
// and executed by RunSweep(), which fans every (point, repetition)
// pair out as one flat job list over ParallelJobs() threads. Output
// order and values are bitwise identical to the serial
// FABRICSIM_JOBS=1 run.
// ---------------------------------------------------------------------

/// One point of a sweep: the swept value (numeric form), a readable
/// label, and the mean report across repetitions at that point.
struct SweepPoint {
  double value = 0;
  std::string label;
  FailureReport report;
};

/// Declarative description of a one-dimensional sweep.
struct SweepSpec {
  /// Name of the swept parameter, e.g. "block_size" or "policy".
  std::string parameter;
  /// The values to visit, in output order.
  std::vector<double> values;
  /// Optional labels parallel to `values`; when empty, RunSweep
  /// renders "parameter=value".
  std::vector<std::string> labels;
  /// Applies values[index] to the config of that point. Returning a
  /// non-OK status aborts the whole sweep before anything runs.
  std::function<Status(ExperimentConfig* config, double value, size_t index)>
      apply;
};

/// Materializes the per-point configs, runs them as one flat job
/// list, and pairs each mean report with its swept value.
Result<std::vector<SweepPoint>> RunSweep(const ExperimentConfig& base,
                                         const SweepSpec& spec);

/// RunSweep from each of `bases`, all as one flat job list: out[i] is
/// the sweep from bases[i]. A figure that sweeps many bases hands the
/// pool every (base, point, repetition) at once.
Result<std::vector<std::vector<SweepPoint>>> RunSweeps(
    const std::vector<ExperimentConfig>& bases, const SweepSpec& spec);

// --- Ready-made specs for the paper's sweep dimensions ---------------

/// Block-size sweep (paper Fig. 7 / §5.1.1): fabric.block_size.
SweepSpec BlockSizeSweepSpec(const std::vector<uint32_t>& sizes);

/// Arrival-rate sweep (paper Fig. 4): arrival_rate_tps.
SweepSpec ArrivalRateSweepSpec(const std::vector<double>& rates);

/// Organization-count sweep (paper Fig. 12): fabric.cluster.num_orgs,
/// peers per org fixed.
SweepSpec OrgCountSweepSpec(const std::vector<int>& org_counts);

/// Endorsement-policy sweep (paper Fig. 13 / Table 5): each preset is
/// instantiated for the point's organization count at apply time.
SweepSpec PolicyPresetSweepSpec(const std::vector<PolicyPreset>& presets);

/// The block sizes the paper sweeps.
std::vector<uint32_t> DefaultBlockSizes();

// ---------------------------------------------------------------------
// Derived searches over finished sweeps. (The legacy typed wrappers —
// SweepBlockSizes / SweepArrivalRates / SweepOrgCounts /
// SweepPolicyPresets — are gone: build a SweepSpec, or use a factory
// above, and call RunSweep() directly.)
// ---------------------------------------------------------------------

/// Outcome of a best/worst block-size search (paper §5.1.1: "best
/// block size" minimizes the failed-transaction percentage, "worst"
/// maximizes it).
struct BlockSizeSearch {
  uint32_t best_block_size = 0;
  uint32_t worst_block_size = 0;
  double min_failure_pct = 0;
  double max_failure_pct = 0;
};

/// The best and worst points of a finished block-size sweep
/// (point.value = block size); the first point wins ties.
BlockSizeSearch FindBestBlockSize(const std::vector<SweepPoint>& points);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_SWEEPS_H_
