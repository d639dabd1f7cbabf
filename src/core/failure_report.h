#ifndef FABRICSIM_CORE_FAILURE_REPORT_H_
#define FABRICSIM_CORE_FAILURE_REPORT_H_

#include <string>
#include <vector>

#include "src/admission/admission.h"
#include "src/client/client.h"
#include "src/ledger/block_store.h"

namespace fabricsim {

class Tracer;
class StreamingLedgerStats;

/// Failure-class slice of one channel's ledger (multi-channel runs
/// only): the same commit-time counts as the aggregate report,
/// restricted to one shard.
struct ChannelFailureBreakdown {
  int channel = 0;
  uint64_t ledger_txs = 0;
  uint64_t valid_txs = 0;
  uint64_t endorsement_failures = 0;
  uint64_t mvcc_intra = 0;
  uint64_t mvcc_inter = 0;
  uint64_t phantom = 0;
  double total_failure_pct = 0;
  double mvcc_pct = 0;
  double committed_throughput_tps = 0;

  bool operator==(const ChannelFailureBreakdown&) const = default;
};

/// Aggregated metrics of one run, read from the committed blockchain
/// (paper §4.5) as each block commits: failure percentages per type,
/// average total transaction latency over successful *and* failed
/// transactions, and committed transaction throughput.
struct FailureReport {
  // Counts.
  uint64_t ledger_txs = 0;        ///< transactions on the blockchain
  uint64_t valid_txs = 0;
  uint64_t endorsement_failures = 0;
  uint64_t mvcc_intra = 0;
  uint64_t mvcc_inter = 0;
  uint64_t phantom = 0;
  uint64_t reorder_aborts = 0;    ///< Fabric++ in-block aborts
  uint64_t early_aborts = 0;      ///< FabricSharp, never on chain
  uint64_t submitted_txs = 0;
  uint64_t app_errors = 0;

  // Client-robustness counters (all zero unless a ClientRetryPolicy or
  // a fault plan is active; zero values are omitted from ToString()).
  uint64_t dropped_no_endorsers = 0;  ///< no org had an endorsing peer
  uint64_t endorse_retries = 0;       ///< re-proposal rounds after timeouts
  uint64_t endorse_timeouts = 0;      ///< abandoned after retry budget
  uint64_t resubmissions = 0;         ///< MVCC failures resubmitted

  // Ordering-availability counters (all zero in compat single-leader
  // mode; zero values are omitted from ToString()).
  uint64_t orderer_rebroadcasts = 0;    ///< failovers to another replica
  uint64_t orderer_broadcast_drops = 0; ///< rebroadcast budget exhausted
  uint64_t orderer_elections = 0;       ///< Raft elections started
  uint64_t orderer_leader_changes = 0;  ///< distinct leader takeovers

  // Overload-protection section (src/admission). Only populated —
  // and only printed — when the run had an enabled AdmissionConfig;
  // unprotected runs produce byte-identical reports.
  bool has_admission = false;
  uint64_t admission_shed = 0;             ///< proposals shed at endorsers
  uint64_t admission_cancelled = 0;        ///< dead siblings husked early
  uint64_t deadline_expired_endorse = 0;   ///< TTL passed at the endorser
  uint64_t deadline_expired_order = 0;     ///< TTL passed at orderer ingress
  uint64_t deadline_expired_commit = 0;    ///< TTL passed at validation
  uint64_t orderer_throttled = 0;          ///< bounded-ingress rejections
  uint64_t breaker_rejected = 0;           ///< submissions suppressed open
  uint64_t breaker_opens = 0;              ///< closed->open transitions
  uint64_t retry_budget_denials = 0;       ///< retries skipped, empty bucket
  double endorse_sojourn_p50_ms = 0;       ///< endorse-queue wait quantiles
  double endorse_sojourn_p99_ms = 0;
  double endorse_depth_mean = 0;           ///< queue depth at arrival
  double endorse_depth_max = 0;

  // Percentages of ledger transactions.
  double total_failure_pct = 0;
  double endorsement_pct = 0;
  double mvcc_intra_pct = 0;
  double mvcc_inter_pct = 0;
  double mvcc_pct = 0;
  double phantom_pct = 0;
  double reorder_abort_pct = 0;
  /// Early aborts as a percentage of submitted transactions.
  double early_abort_pct = 0;

  // Latency in seconds, over all ledger transactions.
  double avg_latency_s = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;

  // Throughput in tps over the load duration.
  double committed_throughput_tps = 0;  ///< ledger txs / duration
  double valid_throughput_tps = 0;      ///< valid txs / duration

  /// Largest gap between consecutive block cut times on the ledger, in
  /// seconds. Under a leader crash this is the ordering-unavailability
  /// window (detection + election + takeover); in healthy runs it
  /// tracks the batch timeout. Zero when fewer than two blocks.
  double max_interblock_gap_s = 0;

  /// Per-phase latency breakdown (execute / order / validate+commit),
  /// only populated when the run had lifecycle tracing enabled. The
  /// three phases telescope: endorse + ordering + commit = total.
  bool has_phase_breakdown = false;
  double endorse_avg_s = 0;
  double endorse_p99_s = 0;
  double ordering_avg_s = 0;
  double ordering_p99_s = 0;
  double commit_avg_s = 0;
  double commit_p99_s = 0;

  /// Per-channel slices, one entry per channel, in channel order.
  /// Empty for single-channel runs — their report (and its ToString())
  /// is byte-identical to the pre-channel simulator's.
  std::vector<ChannelFailureBreakdown> per_channel;

  /// Element-wise mean of several runs (the paper's >=3 repetitions).
  static FailureReport Average(const std::vector<FailureReport>& reports);

  /// Field-by-field equality, per-channel slices included. A run is a
  /// deterministic function of (config, seed), so two runs of one pair
  /// compare equal.
  bool operator==(const FailureReport&) const = default;

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

/// Builds the report from the run's commit-time fold
/// (FabricNetwork::ledger_stats()) plus the client-side counters.
/// `load_duration` is the length of the submission phase. Counts,
/// percentages, mean latency and throughput are exact; p50/p99 are
/// within QuantileSketch::kRelativeError of the true order statistic.
/// A non-null `tracer` (run had tracing enabled) adds the per-phase
/// latency breakdown; a non-null `admission` adds the
/// overload-protection section. Null for either leaves the report
/// exactly as without that subsystem.
FailureReport BuildFailureReport(const StreamingLedgerStats& ledger_stats,
                                 const RunStats& stats,
                                 SimTime load_duration,
                                 const Tracer* tracer = nullptr,
                                 const AdmissionStats* admission = nullptr);

/// Adapter for retained ledgers: folds `ledgers[i]` into slot i (never
/// by its blocks' channel ids), counting commits up to `load_duration`
/// as in-window, and builds the report above from that fold. More than
/// one ledger adds one per-channel slice per slot.
FailureReport BuildFailureReport(const std::vector<const BlockStore*>& ledgers,
                                 const RunStats& stats,
                                 SimTime load_duration,
                                 const Tracer* tracer = nullptr,
                                 const AdmissionStats* admission = nullptr);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_FAILURE_REPORT_H_
