#ifndef FABRICSIM_ORDERING_BLOCK_CUTTER_H_
#define FABRICSIM_ORDERING_BLOCK_CUTTER_H_

#include <cstdint>
#include <vector>

#include "src/ledger/block.h"
#include "src/ledger/transaction.h"

namespace fabricsim {

/// Pure block-cutting logic, mirroring Fabric's orderer batch cutter
/// (one for every consenter, compat or replicated): a batch is emitted
/// when (a) it reaches `max_count` transactions, (b) accumulated
/// payload reaches `max_bytes`, or (c) the batch timeout fires (driven
/// by the caller via CutPending). An oversized transaction first
/// flushes the pending batch, then goes out alone — the same corner
/// case Fabric handles. In streaming mode (Streamchain) nothing is
/// batched: every transaction is cut alone as it arrives, so nothing
/// is ever pending and no timeout is needed.
class BlockCutter {
 public:
  struct Config {
    uint32_t max_count = 100;
    uint64_t max_bytes = 100ull << 20;
    bool streaming = false;
  };

  /// A batch to cut now, and why it is cut.
  struct Batch {
    std::vector<Transaction> txs;
    BlockCutReason reason;
  };

  explicit BlockCutter(Config config) : config_(config) {}

  /// Adds a transaction; returns zero or more complete batches that
  /// must be cut now, in order. A streaming batch is kStreaming; any
  /// other is kMaxCount when it holds `max_count` transactions or
  /// more, else kMaxBytes.
  std::vector<Batch> AddTransaction(Transaction tx);

  /// Cuts whatever is pending (timeout path). May be empty.
  std::vector<Transaction> CutPending();

  bool HasPending() const { return !pending_.empty(); }
  size_t pending_count() const { return pending_.size(); }
  uint64_t pending_bytes() const { return pending_bytes_; }

 private:
  Config config_;
  std::vector<Transaction> pending_;
  uint64_t pending_bytes_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_ORDERING_BLOCK_CUTTER_H_
