#ifndef FABRICSIM_EXT_FABRICSHARP_DEPENDENCY_TRACKER_H_
#define FABRICSIM_EXT_FABRICSHARP_DEPENDENCY_TRACKER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ledger/block.h"
#include "src/ledger/transaction.h"

namespace fabricsim {

/// FabricSharp's cross-block transaction dependency state (Ruan et
/// al., SIGMOD'20): the ordering service tracks, per key, the version
/// that the last *cut* block installed. An incoming transaction is
/// checked against this view before ordering:
///
///  * a read of the current committed version is always serializable —
///    even if the current batch holds a pending write, the reader is
///    ordered before the writer when the block is serialized;
///  * a read of any other version is hopeless (the invalidating write
///    is already cut into an earlier block) and is aborted *before*
///    ordering — it never reaches the ledger.
///
/// Range queries are not supported by FabricSharp and are rejected.
class DependencyTracker {
 public:
  enum class Decision {
    kAdmit,
    kStaleRead,   ///< read version no longer current — unserializable
    kRangeQuery,  ///< range queries are unsupported by FabricSharp
  };

  /// Checks the transaction against the tracked state. On admission
  /// the write keys gain a pending (in-batch) marker.
  Decision Admit(const Transaction& tx);

  /// Re-checks a transaction's reads at block-cut time. Catches the
  /// batch-boundary race where the invalidating write was cut into an
  /// earlier block after this transaction was admitted.
  bool StillSerializable(const Transaction& tx) const;

  /// Finalizes the versions installed by a freshly cut block:
  /// key -> (block number, tx index). Releases the pending markers of
  /// every transaction in `block` plus `aborted_at_cut` (admitted but
  /// dropped while cutting, e.g. cycle members).
  void OnBlockCut(const Block& block,
                  const std::vector<Transaction>& aborted_at_cut = {});

 private:
  struct KeyState {
    Version committed;
    bool exists = true;
    /// Whether a committed version has been observed/installed yet.
    bool known = false;
    /// Number of admitted-but-not-yet-cut writes to this key.
    int pending = 0;
  };

  void ReleasePending(const Transaction& tx);

  std::unordered_map<std::string, KeyState> keys_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_EXT_FABRICSHARP_DEPENDENCY_TRACKER_H_
