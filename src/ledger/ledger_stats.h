#ifndef FABRICSIM_LEDGER_LEDGER_STATS_H_
#define FABRICSIM_LEDGER_LEDGER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/ledger/block.h"
#include "src/ledger/ledger_parser.h"

namespace fabricsim {

/// The commit-time fold behind every FailureReport: each block the
/// reference peer commits is folded into per-channel failure counts, a
/// latency quantile sketch, in-window commit counts and interblock-gap
/// tracking. Every run keeps one, whether or not it also retains the
/// BlockStore (FabricConfig::streaming_ledger only decides that).
/// Memory is O(channels + sketch buckets), independent of how many
/// transactions the run commits. Counts use LedgerSummary::Count and
/// are exact; latency quantiles are within
/// QuantileSketch::kRelativeError of the true order statistic.
class StreamingLedgerStats {
 public:
  explicit StreamingLedgerStats(int num_channels);

  /// End of the load window for the committed-throughput count (the
  /// paper only counts commits inside the load phase). Set by
  /// StartLoad before the first block can commit.
  void set_window_end(SimTime window_end) { window_end_ = window_end; }

  /// Folds one reference-peer-committed block into slot `channel`:
  /// `results` holds its verdicts in block order and `commit_time` is
  /// when every transaction in it committed. `block` itself is only
  /// read, so the orderer's shared copy can be passed. Blocks of one
  /// slot must arrive in chain order.
  void OnBlockCommitted(ChannelId channel, const Block& block,
                        const std::vector<TxValidationResult>& results,
                        SimTime commit_time);

  /// Aggregate failure counts across all channels.
  const LedgerSummary& summary() const { return total_; }
  const LedgerSummary& channel_summary(ChannelId channel) const {
    return channels_[static_cast<size_t>(channel)].summary;
  }
  int num_channels() const { return static_cast<int>(channels_.size()); }

  /// End-to-end latency over all ledger transactions, in milliseconds.
  const QuantileSketch& latency_ms() const { return latency_ms_; }

  uint64_t committed_in_window() const;
  uint64_t committed_in_window(ChannelId channel) const {
    return channels_[static_cast<size_t>(channel)].committed_in_window;
  }

  /// Widest silence between consecutive block cuts on any channel, in
  /// seconds (the report's ordering-availability proxy).
  double max_interblock_gap_s() const { return max_interblock_gap_s_; }

 private:
  struct ChannelAgg {
    LedgerSummary summary;
    uint64_t committed_in_window = 0;
    SimTime prev_cut = kSimTimeNever;
  };

  std::vector<ChannelAgg> channels_;
  LedgerSummary total_;
  QuantileSketch latency_ms_;
  double max_interblock_gap_s_ = 0.0;
  SimTime window_end_ = kSimTimeNever;
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_LEDGER_STATS_H_
