#include "src/ledger/ledger_stats.h"

namespace fabricsim {

StreamingLedgerStats::StreamingLedgerStats(int num_channels)
    : channels_(static_cast<size_t>(num_channels < 1 ? 1 : num_channels)) {}

void StreamingLedgerStats::OnBlockCommitted(
    ChannelId channel, const Block& block,
    const std::vector<TxValidationResult>& results, SimTime commit_time) {
  ChannelAgg& agg = channels_[static_cast<size_t>(channel)];
  // Gap between consecutive cut times on one channel's chain.
  if (agg.prev_cut != kSimTimeNever && block.cut_time > agg.prev_cut) {
    double gap = ToSeconds(block.cut_time - agg.prev_cut);
    if (gap > max_interblock_gap_s_) max_interblock_gap_s_ = gap;
  }
  agg.prev_cut = block.cut_time;
  for (size_t i = 0; i < block.txs.size(); ++i) {
    const TxValidationResult& res = results[i];
    agg.summary.Count(res);
    total_.Count(res);
    latency_ms_.Add(ToMillis(commit_time - block.txs[i].client_submit_time));
  }
  if (commit_time <= window_end_) {
    agg.committed_in_window += block.txs.size();
  }
}

uint64_t StreamingLedgerStats::committed_in_window() const {
  uint64_t n = 0;
  for (const ChannelAgg& agg : channels_) n += agg.committed_in_window;
  return n;
}

}  // namespace fabricsim
