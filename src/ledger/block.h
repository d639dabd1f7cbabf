#ifndef FABRICSIM_LEDGER_BLOCK_H_
#define FABRICSIM_LEDGER_BLOCK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/transaction.h"

namespace fabricsim {

/// Why the block cutter emitted this block.
enum class BlockCutReason : uint8_t {
  kMaxCount,   ///< reached the configured block size (tx count)
  kTimeout,    ///< block timeout elapsed with pending transactions
  kMaxBytes,   ///< accumulated payload reached the byte limit
  kStreaming,  ///< Streamchain: every transaction is its own "block"
};

/// Per-transaction validation outcome stored in the block metadata,
/// mirroring Fabric's transaction filter bitmap (extended with the
/// MVCC sub-class, the id of the conflicting writer, and — for
/// MVCC/phantom conflicts — the concrete key/version evidence, so a
/// failed transaction can be attributed without re-running
/// validation).
struct TxValidationResult {
  TxValidationCode code = TxValidationCode::kNotValidated;
  MvccClass mvcc_class = MvccClass::kNone;
  /// Transaction that performed the invalidating write (0 if n/a).
  TxId conflicting_tx = 0;
  /// MVCC/phantom: the first key whose version check failed (empty for
  /// other failure classes).
  std::string conflicting_key;
  /// Version the endorser recorded for conflicting_key; read_found is
  /// false when the endorser read a key that did not exist.
  bool read_found = false;
  Version read_version;
  /// Version found at validation time; observed_found is false when
  /// the key had been deleted/never existed. Its (block_num, tx_num)
  /// name the invalidating write.
  bool observed_found = false;
  Version observed_version;
};

/// Deterministic outcome of validating one block against a given
/// world state. Identical on every peer, since validation is a pure
/// function of (committed state, block content).
struct ValidationOutcome {
  /// One result per transaction, in block order.
  std::vector<TxValidationResult> results;
  /// Write set of the valid transactions, in order, each tagged with
  /// its commit version. Applying these to the state database
  /// finalizes the block.
  std::vector<std::pair<WriteItem, Version>> state_updates;
  /// Number of valid (committed) transactions.
  size_t valid_count = 0;
};

/// A block as delivered by the ordering service and annotated by the
/// validators. Both committed and aborted transactions stay in the
/// block, exactly as in Fabric: the ledger is the full history.
struct Block {
  uint64_t number = 0;
  /// Channel whose block cutter emitted this block. Block numbers are
  /// dense *per channel* (each channel is its own chain), so (channel,
  /// number) is the globally unique block identity. Deliberately not
  /// part of BlockContentHash: chains are audited per channel, and the
  /// single-channel hash stream must stay byte-identical.
  ChannelId channel = 0;
  SimTime cut_time = 0;
  BlockCutReason cut_reason = BlockCutReason::kMaxCount;
  std::vector<Transaction> txs;
  std::vector<TxValidationResult> results;

  uint64_t ByteSize() const {
    uint64_t bytes = 128;
    for (const Transaction& tx : txs) bytes += tx.ByteSize();
    return bytes;
  }
};

/// FNV offset basis — the hash of the empty chain (block 0's "previous
/// hash" in every channel's hash chain).
constexpr uint64_t kChainHashSeed = 14695981039346656037ull;

/// Content digest of a committed block: number, cut reason, each
/// transaction's identity/read-write set, and each validation verdict.
/// Deliberately excludes every timestamp (cut/ordered/committed times
/// differ between the orderer's copy and a peer's committed copy), so
/// the canonical ledger block and a peer's local commit of the same
/// block hash identically.
uint64_t BlockContentHash(const Block& block,
                          const std::vector<TxValidationResult>& results);

/// Chains a block's content hash onto the running chain hash
/// (prev == kChainHashSeed for the first block).
uint64_t MixChainHash(uint64_t prev, uint64_t content);

/// One link of a channel's committed hash chain: computed once, at the
/// block's first commit (ChannelState::Commit), and copied to every
/// peer that commits the block.
struct PeerChainRecord {
  uint64_t number = 0;
  uint64_t content_hash = 0;
  uint64_t chain_hash = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_BLOCK_H_
