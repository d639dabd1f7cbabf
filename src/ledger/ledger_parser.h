#ifndef FABRICSIM_LEDGER_LEDGER_PARSER_H_
#define FABRICSIM_LEDGER_LEDGER_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/block_store.h"

namespace fabricsim {

/// Flattened view of one ledger transaction, produced by parsing the
/// blockchain after a run — the paper collects all its metrics this
/// way so that measurement never perturbs the experiment.
struct TxRecord {
  TxId id = 0;
  uint64_t block_number = 0;
  uint32_t tx_index = 0;
  std::string chaincode;
  std::string function;
  TxValidationCode code = TxValidationCode::kNotValidated;
  MvccClass mvcc_class = MvccClass::kNone;
  TxId conflicting_tx = 0;
  bool read_only = false;
  SimTime submit_time = 0;
  SimTime endorsed_time = 0;  ///< all endorsements collected at the client
  SimTime ordered_time = 0;   ///< cut into a block by the ordering service
  SimTime committed_time = 0;

  /// End-to-end latency over all three E-O-V phases.
  SimTime TotalLatency() const { return committed_time - submit_time; }
};

/// Aggregate failure counts for one ledger.
struct LedgerSummary {
  uint64_t total = 0;
  uint64_t valid = 0;
  uint64_t endorsement_policy_failures = 0;
  uint64_t mvcc_intra_block = 0;
  uint64_t mvcc_inter_block = 0;
  uint64_t phantom_read_conflicts = 0;
  uint64_t reordering_aborts = 0;  // Fabric++ in-ordering aborts
  /// Marked invalid because the client deadline had passed by the
  /// block's cut time (overload protection; kDeadlineExpiredCommit).
  uint64_t deadline_expired = 0;

  uint64_t mvcc_total() const { return mvcc_intra_block + mvcc_inter_block; }
  uint64_t failed() const { return total - valid; }

  /// Classifies one validation verdict into the counters (the
  /// commit-time fold in StreamingLedgerStats calls it once per
  /// ledger transaction).
  void Count(const TxValidationResult& result);
};

/// Walks a block store and extracts per-transaction records.
class LedgerParser {
 public:
  static std::vector<TxRecord> Parse(const BlockStore& store);
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_LEDGER_PARSER_H_
