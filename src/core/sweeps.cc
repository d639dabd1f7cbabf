#include "src/core/sweeps.h"

#include <utility>

#include "src/common/strings.h"

namespace fabricsim {

std::vector<uint32_t> DefaultBlockSizes() { return {10, 25, 50, 100, 200}; }

Result<std::vector<SweepPoint>> RunSweep(const ExperimentConfig& base,
                                         const SweepSpec& spec) {
  Result<std::vector<std::vector<SweepPoint>>> sweeps = RunSweeps({base}, spec);
  if (!sweeps.ok()) return sweeps.status();
  return std::move(sweeps.value().front());
}

Result<std::vector<std::vector<SweepPoint>>> RunSweeps(
    const std::vector<ExperimentConfig>& bases, const SweepSpec& spec) {
  if (!spec.apply) {
    return Status::InvalidArgument("sweep spec has no apply function");
  }
  if (!spec.labels.empty() && spec.labels.size() != spec.values.size()) {
    return Status::InvalidArgument(
        "sweep labels must be empty or parallel to values");
  }

  std::vector<std::vector<SweepPoint>> sweeps(bases.size());
  std::vector<ExperimentConfig> configs;
  configs.reserve(bases.size() * spec.values.size());
  for (size_t b = 0; b < bases.size(); ++b) {
    for (size_t i = 0; i < spec.values.size(); ++i) {
      SweepPoint point;
      point.value = spec.values[i];
      point.label = spec.labels.empty()
                        ? StrFormat("%s=%g", spec.parameter.c_str(),
                                    spec.values[i])
                        : spec.labels[i];
      ExperimentConfig config = bases[b];
      FABRICSIM_RETURN_NOT_OK(spec.apply(&config, spec.values[i], i));
      configs.push_back(std::move(config));
      sweeps[b].push_back(std::move(point));
    }
  }

  Result<std::vector<ExperimentResult>> results = RunExperiments(configs);
  if (!results.ok()) return results.status();
  size_t next = 0;
  for (std::vector<SweepPoint>& points : sweeps) {
    for (SweepPoint& point : points) {
      point.report = std::move(results.value()[next++].mean);
    }
  }
  return sweeps;
}

SweepSpec BlockSizeSweepSpec(const std::vector<uint32_t>& sizes) {
  SweepSpec spec;
  spec.parameter = "block_size";
  for (uint32_t size : sizes) {
    spec.values.push_back(static_cast<double>(size));
  }
  spec.apply = [](ExperimentConfig* config, double value, size_t) {
    config->fabric.block_size = static_cast<uint32_t>(value);
    return Status::OK();
  };
  return spec;
}

SweepSpec ArrivalRateSweepSpec(const std::vector<double>& rates) {
  SweepSpec spec;
  spec.parameter = "arrival_rate_tps";
  spec.values = rates;
  spec.apply = [](ExperimentConfig* config, double value, size_t) {
    config->arrival_rate_tps = value;
    return Status::OK();
  };
  return spec;
}

SweepSpec OrgCountSweepSpec(const std::vector<int>& org_counts) {
  SweepSpec spec;
  spec.parameter = "num_orgs";
  for (int orgs : org_counts) {
    spec.values.push_back(static_cast<double>(orgs));
  }
  spec.apply = [](ExperimentConfig* config, double value, size_t) {
    config->fabric.cluster.num_orgs = static_cast<int>(value);
    return Status::OK();
  };
  return spec;
}

SweepSpec PolicyPresetSweepSpec(const std::vector<PolicyPreset>& presets) {
  SweepSpec spec;
  spec.parameter = "policy";
  for (size_t i = 0; i < presets.size(); ++i) {
    spec.values.push_back(static_cast<double>(i));
    spec.labels.push_back(PolicyPresetToString(presets[i]));
  }
  // Capture the presets by value: the spec may outlive the argument.
  spec.apply = [presets](ExperimentConfig* config, double, size_t index) {
    config->fabric.policy_text =
        MakePolicy(presets[index], config->fabric.cluster.num_orgs).ToString();
    return Status::OK();
  };
  return spec;
}

// --- derived searches ------------------------------------------------

BlockSizeSearch FindBestBlockSize(const std::vector<SweepPoint>& points) {
  BlockSizeSearch search;
  bool first = true;
  for (const SweepPoint& point : points) {
    uint32_t block_size = static_cast<uint32_t>(point.value);
    double pct = point.report.total_failure_pct;
    if (first || pct < search.min_failure_pct) {
      search.min_failure_pct = pct;
      search.best_block_size = block_size;
    }
    if (first || pct > search.max_failure_pct) {
      search.max_failure_pct = pct;
      search.worst_block_size = block_size;
    }
    first = false;
  }
  return search;
}

}  // namespace fabricsim
