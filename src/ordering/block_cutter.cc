#include "src/ordering/block_cutter.h"

#include <utility>

namespace fabricsim {

std::vector<BlockCutter::Batch> BlockCutter::AddTransaction(Transaction tx) {
  std::vector<Batch> batches;
  if (config_.streaming) {
    // Streamchain: no batching — every transaction streams through as
    // its own unit.
    batches.push_back(Batch{{}, BlockCutReason::kStreaming});
    batches.back().txs.push_back(std::move(tx));
    return batches;
  }
  auto emit = [&](std::vector<Transaction> txs) {
    BlockCutReason reason = txs.size() >= config_.max_count
                                ? BlockCutReason::kMaxCount
                                : BlockCutReason::kMaxBytes;
    batches.push_back(Batch{std::move(txs), reason});
  };
  uint64_t tx_bytes = tx.ByteSize();

  if (tx_bytes >= config_.max_bytes) {
    // Oversized message: flush pending, then emit the big one alone.
    if (!pending_.empty()) emit(CutPending());
    std::vector<Transaction> alone;
    alone.push_back(std::move(tx));
    emit(std::move(alone));
    return batches;
  }

  if (pending_bytes_ + tx_bytes > config_.max_bytes && !pending_.empty()) {
    emit(CutPending());
  }

  pending_.push_back(std::move(tx));
  pending_bytes_ += tx_bytes;

  if (pending_.size() >= config_.max_count) {
    emit(CutPending());
  }
  return batches;
}

std::vector<Transaction> BlockCutter::CutPending() {
  std::vector<Transaction> batch = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  return batch;
}

}  // namespace fabricsim
