#ifndef FABRICSIM_PEER_ENDORSER_H_
#define FABRICSIM_PEER_ENDORSER_H_

#include "src/chaincode/chaincode.h"
#include "src/ledger/rwset.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

/// Executes the chaincode against the endorser's world-state view,
/// producing the read/write set (transaction flow step 2). Pure
/// data-plane: the caller charges the database/signing costs.
EndorsementResult SimulateProposal(const StateDatabase& view,
                                   const Chaincode& chaincode,
                                   const Invocation& invocation,
                                   bool rich_queries_supported);

}  // namespace fabricsim

#endif  // FABRICSIM_PEER_ENDORSER_H_
