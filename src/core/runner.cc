#include "src/core/runner.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/common/parallel.h"
#include "src/core/invariants.h"
#include "src/fabric/fabric_network.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {

namespace {

/// Report + optional trace export of one (config, seed) run.
struct RunArtifacts {
  FailureReport report;
  std::string trace_jsonl;  ///< empty unless config.fabric.tracing
};

Result<RunArtifacts> RunOnceArtifacts(const ExperimentConfig& config,
                                      uint64_t seed) {
  Result<std::shared_ptr<Chaincode>> chaincode =
      MakeChaincodeFor(config.workload);
  if (!chaincode.ok()) return chaincode.status();

  bool rich = config.fabric.db_type == DatabaseType::kCouchDb;
  WorkloadConfig workload_config = config.workload;
  if (config.fabric.variant == FabricVariant::kFabricSharp) {
    // FabricSharp does not support range queries (paper §5.4.3).
    workload_config.include_range_reads = false;
  }
  Result<std::unique_ptr<WorkloadGenerator>> workload =
      MakeWorkload(workload_config, rich);
  if (!workload.ok()) return workload.status();

  Environment env(seed);
  FabricNetwork network(config.fabric, &env, chaincode.value(),
                        std::shared_ptr<WorkloadGenerator>(
                            std::move(workload).value()));
  FABRICSIM_RETURN_NOT_OK(network.Init());
  network.set_channel_affinity(config.workload.channel_affinity);
  if (config.population.empty()) {
    network.StartLoad(config.arrival_rate_tps, config.duration);
  } else {
    // Per-class chaincode mixes are resolved here (the network layer
    // knows nothing about WorkloadConfig): a class with a mix override
    // gets its own generator over the same chaincode/key-space config,
    // classes without one share the run's generator (nullptr entry).
    std::vector<std::shared_ptr<WorkloadGenerator>> class_workloads;
    for (const BehaviourClass& bc : config.population.classes) {
      if (!bc.mix.has_value()) {
        class_workloads.push_back(nullptr);
        continue;
      }
      WorkloadConfig class_config = workload_config;
      class_config.mix = *bc.mix;
      Result<std::unique_ptr<WorkloadGenerator>> class_workload =
          MakeWorkload(class_config, rich);
      if (!class_workload.ok()) return class_workload.status();
      class_workloads.push_back(std::shared_ptr<WorkloadGenerator>(
          std::move(class_workload).value()));
    }
    FABRICSIM_RETURN_NOT_OK(network.StartLoad(
        config.population, config.duration, std::move(class_workloads)));
  }
  env.RunAll();
  // Chain-integrity audit, on every run (healthy or chaotic, retained
  // or streaming ledger): every delivered block matched its channel's
  // record, no transaction was committed twice or changed after
  // sealing, and no acked transaction was lost. A violation is a
  // simulator bug, never a legitimate result — fail the run loudly.
  ChainIntegrityReport integrity = CheckChainIntegrity(network);
  if (!integrity.ok()) {
    return Status::Internal("chain integrity violated: " +
                            integrity.Summary());
  }
  RunArtifacts artifacts;
  if (network.ledger_stats() != nullptr) {
    artifacts.report = BuildFailureReport(
        *network.ledger_stats(), network.stats(), config.duration,
        network.tracer(), network.admission_stats());
  } else {
    std::vector<const BlockStore*> ledgers;
    ledgers.reserve(network.num_channels());
    for (int c = 0; c < network.num_channels(); ++c) {
      ledgers.push_back(&network.ledger(c));
    }
    artifacts.report =
        BuildFailureReport(ledgers, network.stats(), config.duration,
                           network.tracer(), network.admission_stats());
  }
  if (network.tracer() != nullptr) {
    artifacts.trace_jsonl = network.tracer()->ExportJsonl(config.Describe());
  }
  return artifacts;
}

/// One (config, repetition) unit of the flat job list.
struct RepetitionJob {
  const ExperimentConfig* config;
  size_t config_index;
  uint64_t seed;
};

}  // namespace

Result<FailureReport> RunOnce(const ExperimentConfig& config, uint64_t seed) {
  Result<RunArtifacts> artifacts = RunOnceArtifacts(config, seed);
  if (!artifacts.ok()) return artifacts.status();
  return std::move(artifacts.value().report);
}

Result<std::vector<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs) {
  // Flatten points x repetitions so the pool sees every independent
  // DES instance at once.
  std::vector<RepetitionJob> jobs;
  for (size_t c = 0; c < configs.size(); ++c) {
    const ExperimentConfig& config = configs[c];
    int reps = config.repetitions < 1 ? 1 : config.repetitions;
    for (int r = 0; r < reps; ++r) {
      jobs.push_back(RepetitionJob{&config, c,
                                   config.base_seed + static_cast<uint64_t>(r)});
    }
  }

  // Each job writes only its own pre-sized slot; slot order (config,
  // then repetition) is fixed up front, so assembly below is
  // independent of worker scheduling.
  std::vector<std::optional<Result<RunArtifacts>>> slots(jobs.size());
  ParallelFor(jobs.size(), ParallelJobs(), [&](size_t i) {
    slots[i] = RunOnceArtifacts(*jobs[i].config, jobs[i].seed);
  });

  std::vector<ExperimentResult> results(configs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    Result<RunArtifacts>& artifacts = *slots[i];
    // Slots are scanned in (config, repetition) order, so the first
    // error seen here is the first error the serial loop would hit.
    if (!artifacts.ok()) return artifacts.status();
    ExperimentResult& result = results[jobs[i].config_index];
    result.repetitions.push_back(std::move(artifacts.value().report));
    if (jobs[i].config->fabric.tracing) {
      result.traces.push_back(std::move(artifacts.value().trace_jsonl));
    }
  }
  for (ExperimentResult& result : results) {
    result.mean = FailureReport::Average(result.repetitions);
  }
  return results;
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  Result<std::vector<ExperimentResult>> results = RunExperiments({config});
  if (!results.ok()) return results.status();
  return std::move(results.value().front());
}

}  // namespace fabricsim
