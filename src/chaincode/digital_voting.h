#ifndef FABRICSIM_CHAINCODE_DIGITAL_VOTING_H_
#define FABRICSIM_CHAINCODE_DIGITAL_VOTING_H_

#include "src/chaincode/chaincode.h"

namespace fabricsim {

/// Digital Voting chaincode (paper §4.3, Table 2), after Yavuz et al.
///
/// 1000 voters (keys "VOTER<nnnn>") and 12 parties (keys "PARTY<nn>")
/// are bootstrapped. `vote` range-reads all voters and all parties
/// (the paper: "the vote function queries all 1000 voters"), which is
/// why DV shows the highest phantom-read rates of all chaincodes.
///
/// Function → operation footprint (Table 2):
///   initLedger   3xW
///   vote         1xR, 2xRR, 2xW
///   closeElctn   1xR, 1xW
///   qryParties   1xR, 1xRR
///   seeResults   1xR, 1xRR
class DigitalVotingChaincode : public Chaincode {
 public:
  DigitalVotingChaincode(int num_voters = 1000, int num_parties = 12);

  std::string name() const override { return "dv"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  int num_voters() const { return num_voters_; }
  int num_parties() const { return num_parties_; }

  static std::string VoterKey(int index);
  static std::string PartyKey(int index);

 private:
  int num_voters_;
  int num_parties_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_DIGITAL_VOTING_H_
