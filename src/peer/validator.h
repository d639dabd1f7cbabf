#ifndef FABRICSIM_PEER_VALIDATOR_H_
#define FABRICSIM_PEER_VALIDATOR_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ledger/block.h"
#include "src/policy/endorsement_policy.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

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

/// VSCC core check: true when the set of organizations whose
/// endorsements verify over the transaction's attached rw-set
/// satisfies the policy. Used by the validator and by FabricSharp's
/// orderer (which must know which transactions will actually commit).
bool EndorsementSatisfiesPolicy(const Transaction& tx,
                                const EndorsementPolicy& policy);

/// Implements the validation phase (transaction flow steps 6–7):
/// VSCC endorsement-policy check, MVCC read-set check with
/// intra/inter-block classification, and phantom-read re-scans for
/// range queries.
class Validator {
 public:
  explicit Validator(EndorsementPolicy policy);

  /// Validates `block` against `db` (the state as of the previous
  /// block). Writes of earlier valid transactions in the same block
  /// are visible to later MVCC checks, exactly as in Fabric's
  /// committer — that visibility is what creates intra-block
  /// conflicts.
  ValidationOutcome ValidateBlock(const StateDatabase& db,
                                  const Block& block) const;

  const EndorsementPolicy& policy() const { return policy_; }

 private:
  /// State of one key inside the block-local overlay.
  struct OverlayEntry {
    Version version;
    bool deleted = false;
    uint32_t writer_index = 0;  // tx index within the block
  };
  using Overlay = std::unordered_map<std::string, OverlayEntry>;

  TxValidationResult ValidateTx(const StateDatabase& db,
                                const Overlay& overlay, const Block& block,
                                const Transaction& tx) const;
  bool CheckVscc(const Transaction& tx) const;

  EndorsementPolicy policy_;
};

/// Memoizes per-block validation outcomes across replicas. Validation
/// is a pure function of (pre-block state, block content), and every
/// peer processes the same blocks in the same order from the same
/// bootstrap, so all replicas compute identical outcomes. The
/// simulation therefore computes each block once and shares the
/// result — purely a simulator-performance optimization: the timing
/// model still charges every peer its own (jittered) service time.
/// Entries are dropped once every consumer has fetched them.
class ValidationOutcomeCache {
 public:
  /// `consumers` = number of peers that will request each block.
  explicit ValidationOutcomeCache(int consumers) : consumers_(consumers) {}

  /// Returns the memoized outcome for `block_number`, invoking
  /// `compute` only on the first request.
  std::shared_ptr<const ValidationOutcome> GetOrCompute(
      uint64_t block_number,
      const std::function<ValidationOutcome()>& compute);

  size_t live_entries() const { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const ValidationOutcome> outcome;
    int remaining;
  };
  int consumers_;
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_PEER_VALIDATOR_H_
