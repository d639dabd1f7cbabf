// fabricbench: host-performance benchmark for fabricsim.
//
// Runs one named workload as serial simulation runs of a fixed
// simulated length, repeated until a host-time budget is spent, and
// times each phase of a run through the same public calls RunOnce
// makes: factories, network construction + Init() + StartLoad,
// Environment::RunAll, CheckChainIntegrity, BuildFailureReport and
// destruction. Medians over the repetitions are the reported metrics.
//
// With --trace 1 it alternates untraced and traced repetitions. A
// traced repetition records spans around the same calls and then
// replays the canonical ledger through each layer's public functions
// (chaincode simulation, rich/range queries, rw-set digests,
// validation, block hashing, state apply), which attributes host time
// to layers without instrumenting the simulator.
//
// Every repetition is checked: each call must return OK, the chain
// audit must hold, repeated runs of one seed must agree, the count
// fingerprint must equal the pinned one for pinned seeds, and a traced
// replay must reproduce every recorded verdict and chain hash.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   fabricbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--commit SHA] [--trace-out FILE]
//   fabricbench --selftest
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/failure_report.h"
#include "src/core/invariants.h"
#include "src/fabric/fabric_network.h"
#include "src/ledger/block.h"
#include "src/peer/committer.h"
#include "src/peer/endorser.h"
#include "src/peer/validator.h"
#include "src/statedb/rich_query.h"
#include "src/statedb/state_backend.h"
#include "src/workload/paper_workloads.h"
#include "src/workload/population/population.h"

namespace fabricsim {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set of this process so far, in MiB (Linux reports
/// ru_maxrss in KiB).
double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::perror("sched_setaffinity");
  }
}

// ---------------------------------------------------------------------
// Spans: name, parent, start and end, kept in memory and written out
// once the benchmark ends.

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  int Begin(std::string name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), parent, Since(epoch_), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_s = Since(epoch_);
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span for its lifetime; a no-op with a null log, so the
/// untraced path runs the same code minus the bookkeeping.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) id_ = log_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

// ---------------------------------------------------------------------
// Workloads.

/// Counts that must repeat exactly for a (workload, seed): ledger,
/// valid, per-failure-class and submitted transactions, and executed
/// events. Latency quantiles are deliberately left out.
struct Fingerprint {
  uint64_t ledger = 0;
  uint64_t valid = 0;
  uint64_t endorsement = 0;
  uint64_t mvcc_intra = 0;
  uint64_t mvcc_inter = 0;
  uint64_t phantom = 0;
  uint64_t submitted = 0;
  uint64_t events = 0;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ledger=%" PRIu64 " valid=%" PRIu64 " endorsement=%" PRIu64
                  " mvcc_intra=%" PRIu64 " mvcc_inter=%" PRIu64
                  " phantom=%" PRIu64 " submitted=%" PRIu64
                  " events=%" PRIu64,
                  ledger, valid, endorsement, mvcc_intra, mvcc_inter, phantom,
                  submitted, events);
    return buf;
  }
};

struct Workload {
  const char* name;
  ExperimentConfig (*config)();
  /// Pinned fingerprints: seed 42 and one held-out seed.
  std::map<uint64_t, std::string> pins;
};

/// Rich-query heavy: every queryStock scans every CouchDB document, on
/// the 4-peer C1 cluster where hashing, apply and setup stay small.
ExperimentConfig RichScmC1() {
  return ExperimentConfig::Builder()
      .Cluster(ClusterConfig::C1())
      .Database(DatabaseType::kCouchDb)
      .Chaincode("scm")
      .RateTps(100)
      .BlockSize(100)
      .Policy(PolicyPreset::kP0AllOrgs)
      .ZipfSkew(1.0)
      .Duration(30 * kSecond)
      .Repetitions(1)
      .Build();
}

/// Range-read heavy on 32 peers: large rw-sets digested by every
/// endorser and hashed by every peer per block, phantom re-scans in
/// validation, no rich queries, millisecond setup.
ExperimentConfig RangeDvC2() {
  return ExperimentConfig::Builder()
      .Cluster(ClusterConfig::C2())
      .Database(DatabaseType::kLevelDb)
      .Chaincode("dv")
      .RateTps(100)
      .BlockSize(100)
      .Policy(PolicyPreset::kP0AllOrgs)
      .ZipfSkew(1.0)
      .Duration(20 * kSecond)
      .Repetitions(1)
      .Build();
}

/// The scale configuration: 2 orgs x 24 peers, 8 channels, 12.5k static
/// genChain keys per channel (384 replicas), a 100k-user single-class
/// population at 1000 tps, streaming ledger and observability. Setup
/// and teardown of the replicas dominate; no ledger is retained.
constexpr int kScaleChannels = 8;

ExperimentConfig Scale8ch() {
  ExperimentConfig config =
      ExperimentConfig::Builder()
          .Cluster(ClusterConfig{2, 24, 3, 5})
          .Database(DatabaseType::kLevelDb)
          .Chaincode("genchain")
          .BlockSize(500)
          .Channels(kScaleChannels)
          .Duration(10 * kSecond)
          .Repetitions(1)
          .Population(PopulationConfig::SingleClass(100000, 1000))
          .StreamingObservability()
          .StreamingLedger()
          .Build();
  config.workload.genchain_initial_keys = 100000 / kScaleChannels;
  config.workload.genchain_mutations = false;
  config.fabric.timing.peer_commit_workers = kScaleChannels;
  return config;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"rich_scm_c1",
       RichScmC1,
       {{42,
         "ledger=2990 valid=1838 endorsement=160 mvcc_intra=323 mvcc_inter=145 "
         "phantom=524 submitted=2990 events=30367"},
        {7,
         "ledger=2969 valid=1851 endorsement=132 mvcc_intra=343 mvcc_inter=142 "
         "phantom=501 submitted=2969 events=30146"}}},
      {"range_dv_c2",
       RangeDvC2,
       {{42,
         "ledger=1927 valid=61 endorsement=115 mvcc_intra=0 mvcc_inter=0 "
         "phantom=1751 submitted=1927 events=55321"},
        {7,
         "ledger=2019 valid=83 endorsement=105 mvcc_intra=0 mvcc_inter=0 "
         "phantom=1831 submitted=2019 events=57964"}}},
      {"scale_8ch",
       Scale8ch,
       {{42,
         "ledger=10012 valid=7641 endorsement=14 mvcc_intra=1386 mvcc_inter=124 "
         "phantom=847 submitted=10012 events=104081"},
        {7,
         "ledger=10056 valid=7711 endorsement=11 mvcc_intra=1388 mvcc_inter=107 "
         "phantom=839 submitted=10056 events=104521"}}},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// One run.

/// Host seconds of each phase of one run.
struct Phases {
  double factories_s = 0;
  double init_s = 0;        ///< FabricNetwork construction + Init()
  double start_load_s = 0;  ///< set_channel_affinity + StartLoad
  double setup_s = 0;       ///< factories + init + start_load
  double run_all_s = 0;
  double audit_s = 0;
  double report_s = 0;
  double teardown_s = 0;
  double wall_s = 0;  ///< whole run, replay excluded

  /// Phases both an untraced and a traced run execute.
  double Shared() const {
    return setup_s + run_all_s + audit_s + report_s + teardown_s;
  }
};

/// Per-layer host time and work counts from the traced replay.
struct LayerStats {
  double bootstrap_state_s = 0;
  double bootstrap_apply_s = 0;
  double simulate_s = 0;
  uint64_t simulate_calls = 0;
  double rich_query_s = 0;
  uint64_t rich_queries = 0;
  uint64_t rich_docs_scanned = 0;
  double range_s = 0;
  uint64_t range_queries = 0;
  uint64_t range_keys = 0;
  double rwset_digest_s = 0;
  double block_hash_s = 0;
  uint64_t block_hashes = 0;
  double validate_s = 0;
  uint64_t blocks = 0;
  uint64_t txs = 0;
  double commit_apply_s = 0;
  uint64_t state_updates = 0;
  uint64_t verdict_mismatches = 0;
  double workload_next_s = 0;
  uint64_t invocations = 0;
};

struct RunResult {
  std::vector<std::string> failures;  ///< empty when every check passed
  Phases phases;
  Fingerprint fingerprint;
  uint64_t replicas = 0;
  LayerStats layers;  ///< traced runs only
};

/// Fabric's validation verdict fields the replay must reproduce.
bool SameVerdict(const TxValidationResult& a, const TxValidationResult& b) {
  return a.code == b.code && a.mvcc_class == b.mvcc_class &&
         a.conflicting_tx == b.conflicting_tx &&
         a.conflicting_key == b.conflicting_key;
}

/// Times the chaincode's bootstrap and its application to one fresh
/// replica of the configured backend.
std::unique_ptr<StateDatabase> BootstrapReplica(const ExperimentConfig& config,
                                                Chaincode& chaincode,
                                                LayerStats* layers,
                                                std::vector<std::string>* failures) {
  Clock::time_point start = Clock::now();
  std::vector<WriteItem> writes = chaincode.BootstrapState();
  layers->bootstrap_state_s += Since(start);
  std::unique_ptr<StateDatabase> db = MakeStateDb(config.fabric.state_backend);
  start = Clock::now();
  Status st = ApplyBootstrap(*db, writes);
  layers->bootstrap_apply_s += Since(start);
  if (!st.ok()) failures->push_back("ApplyBootstrap: " + st.ToString());
  return db;
}

/// Replays one channel's canonical blocks from a freshly bootstrapped
/// replica through each layer's public functions, checking every
/// recorded verdict and every peer's recorded chain hash.
void ReplayChannel(const ExperimentConfig& config, const EndorsementPolicy& policy,
                   const std::vector<Block>& blocks,
                   const std::vector<const std::vector<PeerChainRecord>*>& chains,
                   LayerStats* layers, std::vector<std::string>* failures) {
  Result<std::shared_ptr<Chaincode>> chaincode = MakeChaincodeFor(config.workload);
  if (!chaincode.ok()) {
    failures->push_back("MakeChaincodeFor: " + chaincode.status().ToString());
    return;
  }
  Chaincode& cc = *chaincode.value();
  std::unique_ptr<StateDatabase> db =
      BootstrapReplica(config, cc, layers, failures);
  const bool rich = config.fabric.db_type == DatabaseType::kCouchDb;
  Validator validator(policy);
  std::vector<uint64_t> chain_hash(chains.size(), kChainHashSeed);

  for (size_t b = 0; b < blocks.size(); ++b) {
    const Block& block = blocks[b];
    for (const Transaction& tx : block.txs) {
      Clock::time_point start = Clock::now();
      SimulateProposal(
          *db, cc, Invocation{tx.function, tx.args}, rich);
      layers->simulate_s += Since(start);
      ++layers->simulate_calls;

      for (const RangeQueryInfo& query : tx.rwset.range_queries) {
        if (!query.rich_selector.empty()) {
          Result<RichQuerySelector> selector =
              RichQuerySelector::Parse(query.rich_selector);
          if (!selector.ok()) {
            failures->push_back("RichQuerySelector::Parse: " +
                                selector.status().ToString());
            continue;
          }
          start = Clock::now();
          ExecuteRichQuery(*db, selector.value());
          layers->rich_query_s += Since(start);
          ++layers->rich_queries;
          layers->rich_docs_scanned += db->Size();
        } else {
          start = Clock::now();
          std::vector<StateEntry> hits =
              db->GetRange(query.start_key, query.end_key);
          layers->range_s += Since(start);
          ++layers->range_queries;
          layers->range_keys += hits.size();
        }
      }

      start = Clock::now();
      tx.rwset.Digest();
      tx.rwset.ByteSize();
      layers->rwset_digest_s += Since(start);
    }

    Clock::time_point start = Clock::now();
    ValidationOutcome outcome = validator.ValidateBlock(*db, block);
    layers->validate_s += Since(start);
    ++layers->blocks;
    layers->txs += block.txs.size();
    if (outcome.results.size() != block.results.size()) {
      layers->verdict_mismatches += block.txs.size();
    } else {
      for (size_t i = 0; i < outcome.results.size(); ++i) {
        if (!SameVerdict(outcome.results[i], block.results[i])) {
          ++layers->verdict_mismatches;
        }
      }
    }

    // Every peer hashes every block it commits; the replay does the
    // same work and checks each peer's recorded chain link.
    for (size_t p = 0; p < chains.size(); ++p) {
      start = Clock::now();
      uint64_t content = BlockContentHash(block, outcome.results);
      layers->block_hash_s += Since(start);
      ++layers->block_hashes;
      chain_hash[p] = MixChainHash(chain_hash[p], content);
      const std::vector<PeerChainRecord>& records = *chains[p];
      if (b >= records.size() || records[b].content_hash != content ||
          records[b].chain_hash != chain_hash[p]) {
        ++layers->verdict_mismatches;
      }
    }

    start = Clock::now();
    Status st = CommitStateUpdates(*db, outcome.state_updates);
    layers->commit_apply_s += Since(start);
    layers->state_updates += outcome.state_updates.size();
    if (!st.ok()) failures->push_back("CommitStateUpdates: " + st.ToString());
  }
}

/// Draws `count` invocations from a fresh generator of the run's
/// workload: the client-side cost of producing the load.
void ReplayWorkload(const ExperimentConfig& config, uint64_t seed,
                    uint64_t count, LayerStats* layers,
                    std::vector<std::string>* failures) {
  Result<std::unique_ptr<WorkloadGenerator>> workload = MakeWorkload(
      config.workload, config.fabric.db_type == DatabaseType::kCouchDb);
  if (!workload.ok()) {
    failures->push_back("MakeWorkload: " + workload.status().ToString());
    return;
  }
  Rng rng(seed, 7);
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < count; ++i) {
    workload.value()->Next(rng);
  }
  layers->workload_next_s += Since(start);
  layers->invocations += count;
}

/// Blocks of one channel, optionally with a mutation applied to a copy
/// (self-test hook: the benchmark must notice a flipped verdict).
using LedgerMutator = std::function<void(std::vector<Block>*)>;

/// One serial run of `config` at `seed`, timed phase by phase. With a
/// span log the run is traced: spans are recorded and, after the
/// report, the canonical ledger is replayed layer by layer.
RunResult RunOnceTimed(const ExperimentConfig& config, uint64_t seed,
                       SpanLog* spans, const LedgerMutator& mutate = nullptr) {
  RunResult out;
  std::vector<std::string>& failures = out.failures;
  Phases& ph = out.phases;
  ScopedSpan run_span(spans, "run");
  const Clock::time_point run_start = Clock::now();

  // Factories, exactly as RunOnce resolves them.
  std::shared_ptr<Chaincode> chaincode;
  std::shared_ptr<WorkloadGenerator> workload;
  std::vector<std::shared_ptr<WorkloadGenerator>> class_workloads;
  const bool rich = config.fabric.db_type == DatabaseType::kCouchDb;
  {
    ScopedSpan span(spans, "setup.factories");
    Clock::time_point start = Clock::now();
    Result<std::shared_ptr<Chaincode>> cc = MakeChaincodeFor(config.workload);
    Result<std::unique_ptr<WorkloadGenerator>> wl =
        MakeWorkload(config.workload, rich);
    if (!cc.ok()) failures.push_back("MakeChaincodeFor: " + cc.status().ToString());
    if (!wl.ok()) failures.push_back("MakeWorkload: " + wl.status().ToString());
    if (!failures.empty()) return out;
    chaincode = cc.value();
    workload = std::move(wl).value();
    for (const BehaviourClass& bc : config.population.classes) {
      if (!bc.mix.has_value()) {
        class_workloads.push_back(nullptr);
        continue;
      }
      WorkloadConfig class_config = config.workload;
      class_config.mix = *bc.mix;
      Result<std::unique_ptr<WorkloadGenerator>> cw =
          MakeWorkload(class_config, rich);
      if (!cw.ok()) {
        failures.push_back("MakeWorkload(class): " + cw.status().ToString());
        return out;
      }
      class_workloads.push_back(std::move(cw).value());
    }
    ph.factories_s = Since(start);
  }

  // The default ExecutionConfig is the serial event loop.
  auto env = std::make_unique<Environment>(seed);
  std::unique_ptr<FabricNetwork> network;
  {
    ScopedSpan span(spans, "setup.init");
    Clock::time_point start = Clock::now();
    network = std::make_unique<FabricNetwork>(config.fabric, env.get(),
                                              chaincode, workload);
    Status st = network->Init();
    ph.init_s = Since(start);
    if (!st.ok()) failures.push_back("Init: " + st.ToString());
  }
  if (failures.empty()) {
    ScopedSpan span(spans, "setup.start_load");
    Clock::time_point start = Clock::now();
    network->set_channel_affinity(config.workload.channel_affinity);
    if (config.population.empty()) {
      network->StartLoad(config.arrival_rate_tps, config.duration);
    } else {
      Status st = network->StartLoad(config.population, config.duration,
                                     std::move(class_workloads));
      if (!st.ok()) failures.push_back("StartLoad: " + st.ToString());
    }
    ph.start_load_s = Since(start);
  }
  ph.setup_s = ph.factories_s + ph.init_s + ph.start_load_s;

  FailureReport report;
  if (failures.empty()) {
    {
      ScopedSpan span(spans, "sim.run_all");
      Clock::time_point start = Clock::now();
      env->RunAll();
      ph.run_all_s = Since(start);
    }
    // Retained-ledger runs are audited; streaming runs keep no ledger.
    if (!config.fabric.streaming_ledger) {
      ScopedSpan span(spans, "core.audit");
      Clock::time_point start = Clock::now();
      ChainIntegrityReport integrity = CheckChainIntegrity(*network);
      ph.audit_s = Since(start);
      if (!integrity.ok()) {
        failures.push_back("chain integrity: " + integrity.Summary());
      }
    }
    {
      ScopedSpan span(spans, "core.report");
      Clock::time_point start = Clock::now();
      if (network->ledger_stats() != nullptr) {
        report = BuildFailureReport(*network->ledger_stats(), network->stats(),
                                    config.duration, network->tracer(),
                                    network->admission_stats());
      } else {
        std::vector<const BlockStore*> ledgers;
        for (int c = 0; c < network->num_channels(); ++c) {
          ledgers.push_back(&network->ledger(c));
        }
        report = BuildFailureReport(ledgers, network->stats(), config.duration,
                                    network->tracer(),
                                    network->admission_stats());
      }
      ph.report_s = Since(start);
    }
    out.fingerprint = Fingerprint{report.ledger_txs,   report.valid_txs,
                                  report.endorsement_failures,
                                  report.mvcc_intra,   report.mvcc_inter,
                                  report.phantom,      report.submitted_txs,
                                  env->events_executed()};
    out.replicas = network->peers().size() *
                   static_cast<uint64_t>(network->num_channels());
    if (report.ledger_txs == 0 || report.valid_txs == 0) {
      failures.push_back("empty ledger: " + out.fingerprint.ToString());
    }
  }
  ph.wall_s = Since(run_start);

  if (spans != nullptr && failures.empty()) {
    // The replay is not part of the run: wall_s excludes it.
    ScopedSpan span(spans, "replay");
    LayerStats& layers = out.layers;
    if (config.fabric.streaming_ledger) {
      // No ledger to replay: time the bootstrap of one replica only.
      ScopedSpan bootstrap_span(spans, "replay.bootstrap");
      Result<std::shared_ptr<Chaincode>> cc = MakeChaincodeFor(config.workload);
      if (cc.ok()) {
        BootstrapReplica(config, *cc.value(), &layers, &failures);
      } else {
        failures.push_back("MakeChaincodeFor: " + cc.status().ToString());
      }
    } else {
      for (int c = 0; c < network->num_channels(); ++c) {
        ScopedSpan ledger_span(spans, "replay.ledger");
        std::vector<const std::vector<PeerChainRecord>*> chains;
        for (const std::unique_ptr<Peer>& peer : network->peers()) {
          chains.push_back(&peer->chain_records(c));
        }
        const std::vector<Block>* blocks = &network->ledger(c).blocks();
        std::vector<Block> mutated;
        if (mutate) {
          mutated = *blocks;
          mutate(&mutated);
          blocks = &mutated;
        }
        ReplayChannel(config, network->policy(), *blocks, chains, &layers,
                      &failures);
      }
      if (layers.txs != report.ledger_txs) {
        failures.push_back("replay covered " + std::to_string(layers.txs) +
                           " of " + std::to_string(report.ledger_txs) +
                           " ledger txs");
      }
      if (layers.verdict_mismatches != 0) {
        failures.push_back(std::to_string(layers.verdict_mismatches) +
                           " replayed verdicts or chain hashes differ from "
                           "the recorded ones");
      }
    }
    {
      ScopedSpan workload_span(spans, "replay.workload");
      ReplayWorkload(config, seed, network->stats().txs_generated, &layers,
                     &failures);
    }
  }

  {
    ScopedSpan span(spans, "fabric.teardown");
    Clock::time_point start = Clock::now();
    network.reset();
    env.reset();
    ph.teardown_s = Since(start);
  }
  ph.wall_s += ph.teardown_s;
  return out;
}

// ---------------------------------------------------------------------
// The benchmark loop, checks and output.

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 30;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
  bool selftest = false;
};

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

/// Checks one run against its workload's pins and against the first
/// run of the same seed in this process.
void CheckRun(const Workload& w, uint64_t seed, const RunResult& first,
              RunResult* run) {
  if (!run->failures.empty()) return;
  std::string fp = run->fingerprint.ToString();
  auto pin = w.pins.find(seed);
  if (pin != w.pins.end() && pin->second != fp) {
    run->failures.push_back("fingerprint " + fp + " != pinned " + pin->second);
  }
  if (&first != run && first.failures.empty() &&
      first.fingerprint.ToString() != fp) {
    run->failures.push_back("run differs from the first run of this seed: " +
                            fp + " vs " + first.fingerprint.ToString());
  }
  if (!OptimizedBuild()) {
    run->failures.push_back("benchmark built without optimization");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, spans[i].parent, spans[i].name.c_str(), spans[i].start_s,
                 spans[i].end_s);
  }
  std::fclose(f);
}

void PrintStamp(const Options& opt) {
  unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"hardware_concurrency\": %u, \"compiler\": \"%s\", "
      "\"git_commit\": \"%s\", \"optimized\": %s}}\n",
      opt.workload.c_str(), opt.seed, hw, kCompiler, opt.commit.c_str(),
      OptimizedBuild() ? "true" : "false");
}

/// One diagnostic line per run on stderr, then its failures.
void ReportRun(const RunResult& run, int index, bool traced) {
  const Phases& p = run.phases;
  std::fprintf(stderr,
               "run %d%s: wall %.4f s = setup %.4f (init %.4f) + run_all %.4f"
               " + audit %.4f + report %.4f + teardown %.4f; %s\n",
               index, traced ? " (traced)" : "", p.wall_s, p.setup_s, p.init_s,
               p.run_all_s, p.audit_s, p.report_s, p.teardown_s,
               run.fingerprint.ToString().c_str());
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "run %d failed: %s\n", index, f.c_str());
  }
}

int RunBenchmark(const Options& opt) {
  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  PrintStamp(opt);
  const ExperimentConfig config = w->config();
  const Clock::time_point start = Clock::now();

  std::vector<RunResult> untraced;
  std::vector<RunResult> traced;
  SpanLog spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double first_peak_rss_mb = 0;
  std::vector<double> iteration_s;
  const std::vector<int> cpus = AllowedCpus();
  // An iteration is one untraced run, followed by one traced run with
  // --trace 1. Iterations start while the budget has room for one more
  // of median length. Each is pinned to the next allowed CPU in turn:
  // on a shared host the CPUs run at different speeds, and rotating
  // makes every run's median cover all of them.
  for (size_t i = 0;; ++i) {
    if (!cpus.empty()) PinToCpu(cpus[i % cpus.size()]);
    const Clock::time_point iteration_start = Clock::now();
    untraced.push_back(RunOnceTimed(config, opt.seed, nullptr));
    CheckRun(*w, opt.seed, untraced.front(), &untraced.back());
    ++attempted;
    ReportRun(untraced.back(), static_cast<int>(attempted), false);
    if (!untraced.back().failures.empty()) ++failed;
    if (i == 0) first_peak_rss_mb = PeakRssMb();
    if (opt.trace) {
      traced.push_back(RunOnceTimed(config, opt.seed, &spans));
      CheckRun(*w, opt.seed, untraced.front(), &traced.back());
      ++attempted;
      ReportRun(traced.back(), static_cast<int>(attempted), true);
      if (!traced.back().failures.empty()) ++failed;
    }
    iteration_s.push_back(Since(iteration_start));
    if (Since(start) + Median(iteration_s) > opt.seconds) break;
  }

  // Times are medians over runs; counts repeat exactly, so the last
  // run's are reported.
  auto median = [](const std::vector<RunResult>& runs,
                   const std::function<double(const RunResult&)>& get) {
    std::vector<double> values;
    for (const RunResult& r : runs) values.push_back(get(r));
    return Median(values);
  };
  const std::vector<RunResult>& runs = opt.trace ? traced : untraced;
  auto phase = [&](double Phases::*field) {
    return median(runs, [field](const RunResult& r) { return r.phases.*field; });
  };
  auto layer = [&](double LayerStats::*field) {
    return median(runs, [field](const RunResult& r) { return r.layers.*field; });
  };
  const RunResult& last = runs.back();
  auto count = [&last](uint64_t LayerStats::*field) {
    return static_cast<double>(last.layers.*field);
  };
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"wall_s", phase(&Phases::wall_s), "s"},
        {"setup_s", phase(&Phases::setup_s), "s"},
        {"committed_tx_per_s",
         median(runs,
                [](const RunResult& r) {
                  return static_cast<double>(r.fingerprint.ledger) /
                         r.phases.wall_s;
                }),
         "1/s"},
        {"peak_rss_mb", first_peak_rss_mb, "MB"},
    };
  } else {
    auto shared = [&median](const std::vector<RunResult>& of) {
      return median(of, [](const RunResult& r) { return r.phases.Shared(); });
    };
    const double shared_untraced = shared(untraced);
    const double events = static_cast<double>(last.fingerprint.events);
    metrics = {
        {"fabric.init_s", phase(&Phases::init_s), "s"},
        {"fabric.teardown_s", phase(&Phases::teardown_s), "s"},
        {"fabric.replicas", static_cast<double>(last.replicas), "count"},
        {"chaincode.bootstrap_state_s", layer(&LayerStats::bootstrap_state_s), "s"},
        {"statedb.bootstrap_apply_s", layer(&LayerStats::bootstrap_apply_s), "s"},
        {"statedb.rich_query_s", layer(&LayerStats::rich_query_s), "s"},
        {"statedb.rich_queries", count(&LayerStats::rich_queries), "count"},
        {"statedb.rich_docs_scanned", count(&LayerStats::rich_docs_scanned), "count"},
        {"chaincode.simulate_s", layer(&LayerStats::simulate_s), "s"},
        {"chaincode.simulate_calls", count(&LayerStats::simulate_calls), "count"},
        {"ledger.rwset_digest_s", layer(&LayerStats::rwset_digest_s), "s"},
        {"ledger.block_hash_s", layer(&LayerStats::block_hash_s), "s"},
        {"ledger.block_hashes", count(&LayerStats::block_hashes), "count"},
        {"peer.validate_s", layer(&LayerStats::validate_s), "s"},
        {"peer.blocks", count(&LayerStats::blocks), "count"},
        {"peer.txs", count(&LayerStats::txs), "count"},
        {"statedb.range_s", layer(&LayerStats::range_s), "s"},
        {"statedb.range_queries", count(&LayerStats::range_queries), "count"},
        {"statedb.range_keys", count(&LayerStats::range_keys), "count"},
        {"peer.commit_apply_s", layer(&LayerStats::commit_apply_s), "s"},
        {"peer.state_updates", count(&LayerStats::state_updates), "count"},
        {"peer.verdict_mismatches", count(&LayerStats::verdict_mismatches), "count"},
        {"sim.run_all_s", phase(&Phases::run_all_s), "s"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event",
         events > 0 ? phase(&Phases::run_all_s) * 1e9 / events : 0.0, "ns"},
        {"core.audit_s", phase(&Phases::audit_s), "s"},
        {"core.report_s", phase(&Phases::report_s), "s"},
        {"client.start_load_s", phase(&Phases::start_load_s), "s"},
        {"workload.next_s", layer(&LayerStats::workload_next_s), "s"},
        {"workload.invocations", count(&LayerStats::invocations), "count"},
        {"bench.trace_overhead_pct",
         shared_untraced > 0
             ? 100.0 * (shared(traced) - shared_untraced) / shared_untraced
             : 0.0,
         "%"},
        {"bench.failed_runs_pct",
         100.0 * static_cast<double>(failed) / static_cast<double>(attempted),
         "%"},
    };
    WriteSpans(opt.trace_out, spans);
  }
  std::printf("%s\n", FormatResult(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Self-test: a smoke of every workload must pass every check, and the
// checks must catch a flipped verdict and a wrong pinned fingerprint.

int SelfTest() {
  int errors = 0;
  auto expect = [&errors](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++errors;
  };
  for (const Workload& w : Workloads()) {
    ExperimentConfig config = w.config();
    SpanLog spans;
    RunResult run = RunOnceTimed(config, 42, &spans);
    CheckRun(w, 42, run, &run);
    ReportRun(run, 1, true);
    expect(run.failures.empty(), std::string(w.name) + " smoke passes every check");
    expect(w.pins.count(42) == 1 && w.pins.size() >= 2,
           std::string(w.name) + " pins seed 42 and a held-out seed");
  }

  const Workload& w = Workloads().front();
  ExperimentConfig config = w.config();
  SpanLog spans;
  RunResult flipped = RunOnceTimed(
      config, 42, &spans, [](std::vector<Block>* blocks) {
        TxValidationResult& r = blocks->front().results.front();
        r.code = r.code == TxValidationCode::kValid
                     ? TxValidationCode::kMvccReadConflict
                     : TxValidationCode::kValid;
      });
  expect(flipped.layers.verdict_mismatches == 1 && !flipped.failures.empty(),
         "a flipped recorded verdict fails the replay check");

  Workload wrong_pin = w;
  wrong_pin.pins[42] = "ledger=0";
  RunResult run = RunOnceTimed(config, 42, nullptr);
  CheckRun(wrong_pin, 42, run, &run);
  expect(!run.failures.empty(), "a wrong pinned fingerprint fails the run");

  std::printf("%s: %d failure(s)\n", errors == 0 ? "OK" : "FAILED", errors);
  return errors == 0 ? 0 : 1;
}

/// True when all of `text` parses as a number into `out`.
bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return *text != '\0' && *end == '\0';
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      opt->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "unknown argument or missing value: '%s'\n",
                   arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    double number = 0;
    bool ok = true;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--commit") {
      opt->commit = value;
    } else if (arg == "--trace-out") {
      opt->trace_out = value;
    } else if (arg == "--seed") {
      ok = ParseNumber(value, &number) && number >= 0 &&
           number == static_cast<double>(static_cast<uint64_t>(number));
      opt->seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      ok = ParseNumber(value, &number) && number > 0;
      opt->seconds = number;
    } else if (arg == "--trace") {
      ok = ParseNumber(value, &number) && (number == 0 || number == 1);
      opt->trace = number == 1;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument: %s %s\n", arg.c_str(), value);
      return false;
    }
  }
  if (!opt->selftest && opt->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace fabricsim

int main(int argc, char** argv) {
  using namespace fabricsim::perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  if (opt.selftest) return SelfTest();
  return RunBenchmark(opt);
}
