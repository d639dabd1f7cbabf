#ifndef FABRICSIM_PEER_VALIDATOR_H_
#define FABRICSIM_PEER_VALIDATOR_H_

#include <string>
#include <unordered_map>

#include "src/ledger/block.h"
#include "src/policy/endorsement_policy.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

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

}  // namespace fabricsim

#endif  // FABRICSIM_PEER_VALIDATOR_H_
