#include "src/core/failure_report.h"

#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/ledger/ledger_stats.h"
#include "src/obs/tracer.h"

namespace fabricsim {

namespace {

/// Counts, failure percentages, stats-side counters and valid
/// throughput: a pure function of (summary, stats, window length).
void FillFromSummary(FailureReport& report, const LedgerSummary& summary,
                     const RunStats& stats, double seconds) {
  report.ledger_txs = summary.total;
  report.valid_txs = summary.valid;
  report.endorsement_failures = summary.endorsement_policy_failures;
  report.mvcc_intra = summary.mvcc_intra_block;
  report.mvcc_inter = summary.mvcc_inter_block;
  report.phantom = summary.phantom_read_conflicts;
  // Fabric++ aborts in the ordering phase; they normally never reach
  // the ledger, but blocks pre-marked by custom processors may still
  // carry them — count both sources.
  report.reorder_aborts =
      summary.reordering_aborts + stats.early_aborts_by_reordering;
  report.early_aborts = stats.early_aborts_not_serializable;
  report.submitted_txs = stats.txs_submitted;
  report.app_errors = stats.app_errors;
  report.dropped_no_endorsers = stats.txs_dropped_no_endorsers;
  report.endorse_retries = stats.endorse_retries;
  report.endorse_timeouts = stats.endorse_timeouts;
  report.resubmissions = stats.resubmissions;
  report.orderer_rebroadcasts = stats.orderer_rebroadcasts;
  report.orderer_broadcast_drops = stats.orderer_broadcast_drops;
  report.orderer_elections = stats.orderer_elections;
  report.orderer_leader_changes = stats.orderer_leader_changes;
  // Commit-phase deadline expirations live on the chain like any other
  // validation failure; nonzero only when deadlines were enabled.
  report.deadline_expired_commit = summary.deadline_expired;

  if (summary.total > 0) {
    double n = static_cast<double>(summary.total);
    report.total_failure_pct =
        100.0 * static_cast<double>(summary.failed()) / n;
    report.endorsement_pct =
        100.0 * static_cast<double>(summary.endorsement_policy_failures) / n;
    report.mvcc_intra_pct =
        100.0 * static_cast<double>(summary.mvcc_intra_block) / n;
    report.mvcc_inter_pct =
        100.0 * static_cast<double>(summary.mvcc_inter_block) / n;
    report.mvcc_pct = report.mvcc_intra_pct + report.mvcc_inter_pct;
    report.phantom_pct =
        100.0 * static_cast<double>(summary.phantom_read_conflicts) / n;
  }
  if (stats.txs_submitted > 0) {
    report.early_abort_pct =
        100.0 * static_cast<double>(stats.early_aborts_not_serializable) /
        static_cast<double>(stats.txs_submitted);
    report.reorder_abort_pct =
        100.0 *
        (static_cast<double>(summary.reordering_aborts) +
         static_cast<double>(stats.early_aborts_by_reordering)) /
        static_cast<double>(stats.txs_submitted);
  }
  if (seconds > 0) {
    report.valid_throughput_tps =
        static_cast<double>(summary.valid) / seconds;
  }
}

/// Per-phase breakdown from the tracer's sketches.
void FillPhases(FailureReport& report, const Tracer* tracer) {
  if (tracer == nullptr || tracer->phases().total.count() == 0) return;
  const PhaseSketches& phases = tracer->phases();
  report.has_phase_breakdown = true;
  report.endorse_avg_s = phases.endorse.mean() / 1000.0;
  report.endorse_p99_s = phases.endorse.Percentile(0.99) / 1000.0;
  report.ordering_avg_s = phases.ordering.mean() / 1000.0;
  report.ordering_p99_s = phases.ordering.Percentile(0.99) / 1000.0;
  report.commit_avg_s = phases.commit.mean() / 1000.0;
  report.commit_p99_s = phases.commit.Percentile(0.99) / 1000.0;
}

/// Overload-protection section. A null `admission` — every
/// unprotected run — leaves the report untouched.
void FillAdmission(FailureReport& report, const AdmissionStats* admission) {
  if (admission == nullptr) return;
  report.has_admission = true;
  report.admission_shed = admission->endorse_shed;
  report.admission_cancelled = admission->endorse_cancelled;
  report.deadline_expired_endorse = admission->deadline_expired_endorse;
  report.deadline_expired_order = admission->deadline_expired_order;
  report.orderer_throttled = admission->orderer_throttled;
  report.breaker_rejected = admission->breaker_rejected;
  report.breaker_opens = admission->breaker_opens;
  report.retry_budget_denials = admission->retry_budget_denials;
  if (admission->endorse_sojourn_ms.count() > 0) {
    report.endorse_sojourn_p50_ms = admission->endorse_sojourn_ms.Percentile(0.5);
    report.endorse_sojourn_p99_ms = admission->endorse_sojourn_ms.Percentile(0.99);
  }
  if (admission->endorse_depth.count() > 0) {
    report.endorse_depth_mean = admission->endorse_depth.mean();
    report.endorse_depth_max = admission->endorse_depth.max();
  }
}

}  // namespace

FailureReport BuildFailureReport(const StreamingLedgerStats& ledger_stats,
                                 const RunStats& stats,
                                 SimTime load_duration,
                                 const Tracer* tracer,
                                 const AdmissionStats* admission) {
  FailureReport report;
  double seconds = ToSeconds(load_duration);
  FillFromSummary(report, ledger_stats.summary(), stats, seconds);
  report.max_interblock_gap_s = ledger_stats.max_interblock_gap_s();

  const QuantileSketch& latencies = ledger_stats.latency_ms();
  if (latencies.count() > 0) {
    report.avg_latency_s = latencies.mean() / 1000.0;
    report.p50_latency_s = latencies.Percentile(0.5) / 1000.0;
    report.p99_latency_s = latencies.Percentile(0.99) / 1000.0;
  }
  if (seconds > 0) {
    report.committed_throughput_tps =
        static_cast<double>(ledger_stats.committed_in_window()) / seconds;
  }

  if (ledger_stats.num_channels() > 1) {
    for (int c = 0; c < ledger_stats.num_channels(); ++c) {
      const LedgerSummary& channel_summary = ledger_stats.channel_summary(c);
      ChannelFailureBreakdown slice;
      slice.channel = c;
      slice.ledger_txs = channel_summary.total;
      slice.valid_txs = channel_summary.valid;
      slice.endorsement_failures = channel_summary.endorsement_policy_failures;
      slice.mvcc_intra = channel_summary.mvcc_intra_block;
      slice.mvcc_inter = channel_summary.mvcc_inter_block;
      slice.phantom = channel_summary.phantom_read_conflicts;
      if (channel_summary.total > 0) {
        double n = static_cast<double>(channel_summary.total);
        slice.total_failure_pct =
            100.0 * static_cast<double>(channel_summary.failed()) / n;
        slice.mvcc_pct =
            100.0 * static_cast<double>(channel_summary.mvcc_total()) / n;
      }
      if (seconds > 0) {
        slice.committed_throughput_tps =
            static_cast<double>(ledger_stats.committed_in_window(c)) / seconds;
      }
      report.per_channel.push_back(slice);
    }
  }

  FillPhases(report, tracer);
  FillAdmission(report, admission);
  return report;
}

FailureReport BuildFailureReport(const std::vector<const BlockStore*>& ledgers,
                                 const RunStats& stats,
                                 SimTime load_duration,
                                 const Tracer* tracer,
                                 const AdmissionStats* admission) {
  StreamingLedgerStats ledger_stats(static_cast<int>(ledgers.size()));
  ledger_stats.set_window_end(load_duration);
  for (size_t c = 0; c < ledgers.size(); ++c) {
    for (const Block& block : ledgers[c]->blocks()) {
      // Every transaction of a stored block shares its commit time.
      SimTime commit_time =
          block.txs.empty() ? 0 : block.txs.front().committed_time;
      ledger_stats.OnBlockCommitted(static_cast<ChannelId>(c), block,
                                    block.results, commit_time);
    }
  }
  return BuildFailureReport(ledger_stats, stats, load_duration, tracer,
                            admission);
}

FailureReport FailureReport::Average(
    const std::vector<FailureReport>& reports) {
  FailureReport mean;
  if (reports.empty()) return mean;
  double n = static_cast<double>(reports.size());
  auto avg_u = [&](auto getter) {
    double sum = 0;
    for (const FailureReport& r : reports) {
      sum += static_cast<double>(getter(r));
    }
    return static_cast<uint64_t>(sum / n + 0.5);
  };
  auto avg_d = [&](auto getter) {
    double sum = 0;
    for (const FailureReport& r : reports) sum += getter(r);
    return sum / n;
  };
  mean.ledger_txs = avg_u([](const auto& r) { return r.ledger_txs; });
  mean.valid_txs = avg_u([](const auto& r) { return r.valid_txs; });
  mean.endorsement_failures =
      avg_u([](const auto& r) { return r.endorsement_failures; });
  mean.mvcc_intra = avg_u([](const auto& r) { return r.mvcc_intra; });
  mean.mvcc_inter = avg_u([](const auto& r) { return r.mvcc_inter; });
  mean.phantom = avg_u([](const auto& r) { return r.phantom; });
  mean.reorder_aborts = avg_u([](const auto& r) { return r.reorder_aborts; });
  mean.early_aborts = avg_u([](const auto& r) { return r.early_aborts; });
  mean.submitted_txs = avg_u([](const auto& r) { return r.submitted_txs; });
  mean.app_errors = avg_u([](const auto& r) { return r.app_errors; });
  mean.dropped_no_endorsers =
      avg_u([](const auto& r) { return r.dropped_no_endorsers; });
  mean.endorse_retries = avg_u([](const auto& r) { return r.endorse_retries; });
  mean.endorse_timeouts =
      avg_u([](const auto& r) { return r.endorse_timeouts; });
  mean.resubmissions = avg_u([](const auto& r) { return r.resubmissions; });
  mean.orderer_rebroadcasts =
      avg_u([](const auto& r) { return r.orderer_rebroadcasts; });
  mean.orderer_broadcast_drops =
      avg_u([](const auto& r) { return r.orderer_broadcast_drops; });
  mean.orderer_elections =
      avg_u([](const auto& r) { return r.orderer_elections; });
  mean.orderer_leader_changes =
      avg_u([](const auto& r) { return r.orderer_leader_changes; });
  bool all_admission = true;
  for (const FailureReport& r : reports) all_admission &= r.has_admission;
  if (all_admission) {
    mean.has_admission = true;
    mean.admission_shed = avg_u([](const auto& r) { return r.admission_shed; });
    mean.admission_cancelled =
        avg_u([](const auto& r) { return r.admission_cancelled; });
    mean.deadline_expired_endorse =
        avg_u([](const auto& r) { return r.deadline_expired_endorse; });
    mean.deadline_expired_order =
        avg_u([](const auto& r) { return r.deadline_expired_order; });
    mean.deadline_expired_commit =
        avg_u([](const auto& r) { return r.deadline_expired_commit; });
    mean.orderer_throttled =
        avg_u([](const auto& r) { return r.orderer_throttled; });
    mean.breaker_rejected =
        avg_u([](const auto& r) { return r.breaker_rejected; });
    mean.breaker_opens = avg_u([](const auto& r) { return r.breaker_opens; });
    mean.retry_budget_denials =
        avg_u([](const auto& r) { return r.retry_budget_denials; });
    mean.endorse_sojourn_p50_ms =
        avg_d([](const auto& r) { return r.endorse_sojourn_p50_ms; });
    mean.endorse_sojourn_p99_ms =
        avg_d([](const auto& r) { return r.endorse_sojourn_p99_ms; });
    mean.endorse_depth_mean =
        avg_d([](const auto& r) { return r.endorse_depth_mean; });
    mean.endorse_depth_max =
        avg_d([](const auto& r) { return r.endorse_depth_max; });
  }
  mean.total_failure_pct =
      avg_d([](const auto& r) { return r.total_failure_pct; });
  mean.endorsement_pct = avg_d([](const auto& r) { return r.endorsement_pct; });
  mean.mvcc_intra_pct = avg_d([](const auto& r) { return r.mvcc_intra_pct; });
  mean.mvcc_inter_pct = avg_d([](const auto& r) { return r.mvcc_inter_pct; });
  mean.mvcc_pct = avg_d([](const auto& r) { return r.mvcc_pct; });
  mean.phantom_pct = avg_d([](const auto& r) { return r.phantom_pct; });
  mean.reorder_abort_pct =
      avg_d([](const auto& r) { return r.reorder_abort_pct; });
  mean.early_abort_pct = avg_d([](const auto& r) { return r.early_abort_pct; });
  mean.avg_latency_s = avg_d([](const auto& r) { return r.avg_latency_s; });
  mean.p50_latency_s = avg_d([](const auto& r) { return r.p50_latency_s; });
  mean.p99_latency_s = avg_d([](const auto& r) { return r.p99_latency_s; });
  mean.committed_throughput_tps =
      avg_d([](const auto& r) { return r.committed_throughput_tps; });
  mean.valid_throughput_tps =
      avg_d([](const auto& r) { return r.valid_throughput_tps; });
  mean.max_interblock_gap_s =
      avg_d([](const auto& r) { return r.max_interblock_gap_s; });
  bool all_phases = true;
  for (const FailureReport& r : reports) all_phases &= r.has_phase_breakdown;
  if (all_phases) {
    mean.has_phase_breakdown = true;
    mean.endorse_avg_s = avg_d([](const auto& r) { return r.endorse_avg_s; });
    mean.endorse_p99_s = avg_d([](const auto& r) { return r.endorse_p99_s; });
    mean.ordering_avg_s = avg_d([](const auto& r) { return r.ordering_avg_s; });
    mean.ordering_p99_s = avg_d([](const auto& r) { return r.ordering_p99_s; });
    mean.commit_avg_s = avg_d([](const auto& r) { return r.commit_avg_s; });
    mean.commit_p99_s = avg_d([](const auto& r) { return r.commit_p99_s; });
  }
  // Per-channel slices average element-wise when every repetition saw
  // the same channel layout (they always do — the layout is part of
  // the config); mismatched shapes leave the mean's slices empty.
  bool same_channels = true;
  for (const FailureReport& r : reports) {
    same_channels &= r.per_channel.size() == reports[0].per_channel.size();
  }
  if (same_channels && !reports[0].per_channel.empty()) {
    for (size_t c = 0; c < reports[0].per_channel.size(); ++c) {
      ChannelFailureBreakdown slice;
      slice.channel = reports[0].per_channel[c].channel;
      auto cavg_u = [&](auto getter) {
        double sum = 0;
        for (const FailureReport& r : reports) {
          sum += static_cast<double>(getter(r.per_channel[c]));
        }
        return static_cast<uint64_t>(sum / n + 0.5);
      };
      auto cavg_d = [&](auto getter) {
        double sum = 0;
        for (const FailureReport& r : reports) sum += getter(r.per_channel[c]);
        return sum / n;
      };
      slice.ledger_txs = cavg_u([](const auto& s) { return s.ledger_txs; });
      slice.valid_txs = cavg_u([](const auto& s) { return s.valid_txs; });
      slice.endorsement_failures =
          cavg_u([](const auto& s) { return s.endorsement_failures; });
      slice.mvcc_intra = cavg_u([](const auto& s) { return s.mvcc_intra; });
      slice.mvcc_inter = cavg_u([](const auto& s) { return s.mvcc_inter; });
      slice.phantom = cavg_u([](const auto& s) { return s.phantom; });
      slice.total_failure_pct =
          cavg_d([](const auto& s) { return s.total_failure_pct; });
      slice.mvcc_pct = cavg_d([](const auto& s) { return s.mvcc_pct; });
      slice.committed_throughput_tps =
          cavg_d([](const auto& s) { return s.committed_throughput_tps; });
      mean.per_channel.push_back(slice);
    }
  }
  return mean;
}

std::string FailureReport::ToString() const {
  std::string out;
  out += StrFormat(
      "ledger txs: %llu (valid %llu) | submitted %llu | app errors %llu\n",
      static_cast<unsigned long long>(ledger_txs),
      static_cast<unsigned long long>(valid_txs),
      static_cast<unsigned long long>(submitted_txs),
      static_cast<unsigned long long>(app_errors));
  out += StrFormat(
      "failures: total %.2f%% | endorsement %.2f%% | mvcc %.2f%% "
      "(intra %.2f%%, inter %.2f%%) | phantom %.2f%%",
      total_failure_pct, endorsement_pct, mvcc_pct, mvcc_intra_pct,
      mvcc_inter_pct, phantom_pct);
  if (reorder_aborts > 0) {
    out += StrFormat(" | reorder-aborts %.2f%%", reorder_abort_pct);
  }
  if (early_aborts > 0) {
    out += StrFormat(" | early-aborts %.2f%% of submitted", early_abort_pct);
  }
  out += StrFormat(
      "\nlatency: avg %.3fs p50 %.3fs p99 %.3fs | throughput: %.1f tps "
      "committed, %.1f tps valid\n",
      avg_latency_s, p50_latency_s, p99_latency_s, committed_throughput_tps,
      valid_throughput_tps);
  if (dropped_no_endorsers > 0 || endorse_retries > 0 ||
      endorse_timeouts > 0 || resubmissions > 0) {
    out += StrFormat(
        "client: retries %llu | timeouts %llu | resubmissions %llu | "
        "no-endorsers %llu\n",
        static_cast<unsigned long long>(endorse_retries),
        static_cast<unsigned long long>(endorse_timeouts),
        static_cast<unsigned long long>(resubmissions),
        static_cast<unsigned long long>(dropped_no_endorsers));
  }
  if (orderer_rebroadcasts > 0 || orderer_broadcast_drops > 0 ||
      orderer_elections > 0 || orderer_leader_changes > 0) {
    out += StrFormat(
        "ordering: elections %llu | leader changes %llu | rebroadcasts %llu "
        "| drops %llu | max gap %.3fs\n",
        static_cast<unsigned long long>(orderer_elections),
        static_cast<unsigned long long>(orderer_leader_changes),
        static_cast<unsigned long long>(orderer_rebroadcasts),
        static_cast<unsigned long long>(orderer_broadcast_drops),
        max_interblock_gap_s);
  }
  if (has_phase_breakdown) {
    out += StrFormat(
        "phases: endorse avg %.3fs p99 %.3fs | ordering avg %.3fs p99 %.3fs "
        "| commit avg %.3fs p99 %.3fs\n",
        endorse_avg_s, endorse_p99_s, ordering_avg_s, ordering_p99_s,
        commit_avg_s, commit_p99_s);
  }
  if (has_admission) {
    out += StrFormat(
        "admission: shed %llu (cancelled %llu) | expired "
        "endorse/order/commit %llu/%llu/%llu "
        "| throttled %llu | breaker rejects %llu (opens %llu) | budget "
        "denials %llu\n",
        static_cast<unsigned long long>(admission_shed),
        static_cast<unsigned long long>(admission_cancelled),
        static_cast<unsigned long long>(deadline_expired_endorse),
        static_cast<unsigned long long>(deadline_expired_order),
        static_cast<unsigned long long>(deadline_expired_commit),
        static_cast<unsigned long long>(orderer_throttled),
        static_cast<unsigned long long>(breaker_rejected),
        static_cast<unsigned long long>(breaker_opens),
        static_cast<unsigned long long>(retry_budget_denials));
    out += StrFormat(
        "admission queue: sojourn p50 %.1fms p99 %.1fms | depth mean %.1f "
        "max %.0f\n",
        endorse_sojourn_p50_ms, endorse_sojourn_p99_ms, endorse_depth_mean,
        endorse_depth_max);
  }
  for (const ChannelFailureBreakdown& slice : per_channel) {
    out += StrFormat(
        "channel %d: ledger %llu (valid %llu) | failures %.2f%% "
        "(mvcc %.2f%%) | %.1f tps committed\n",
        slice.channel, static_cast<unsigned long long>(slice.ledger_txs),
        static_cast<unsigned long long>(slice.valid_txs),
        slice.total_failure_pct, slice.mvcc_pct,
        slice.committed_throughput_tps);
  }
  return out;
}

}  // namespace fabricsim
