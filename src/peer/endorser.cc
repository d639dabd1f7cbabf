#include "src/peer/endorser.h"

#include "src/chaincode/stub.h"

namespace fabricsim {

EndorsementResult SimulateProposal(const StateDatabase& view,
                                   const Chaincode& chaincode,
                                   const Invocation& invocation,
                                   bool rich_queries_supported) {
  EndorsementResult result;
  ChaincodeStub stub(view, rich_queries_supported);
  result.app_status = chaincode.Invoke(stub, invocation);
  result.rwset = stub.TakeRwset();
  return result;
}

}  // namespace fabricsim
