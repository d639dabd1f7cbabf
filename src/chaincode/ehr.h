#ifndef FABRICSIM_CHAINCODE_EHR_H_
#define FABRICSIM_CHAINCODE_EHR_H_

#include "src/chaincode/chaincode.h"

namespace fabricsim {

/// Electronic Health Records chaincode (paper §4.3, Table 2).
///
/// Manages access credentials for patient profiles and health records;
/// the records themselves live off-chain. The world state is
/// bootstrapped with `num_patients` profiles (keys "PROF<nnnn>") and
/// the same number of health records (keys "EHR<nnnn>"), 100 each by
/// default — intentionally small to induce conflicts.
///
/// Function → operation footprint (Table 2):
///   initLedger            2xW      addEhr               2xR, 2xW
///   grantProfileAccess    1xR,1xW  readProfile          1xR
///   revokeProfileAccess   1xR,1xW  viewPartialProfile   1xR
///   revokeEhrAccess       2xR,2xW  viewEHR              1xR
///   grantEhrAccess        2xR,2xW  queryEHR             1xR
class EhrChaincode : public Chaincode {
 public:
  explicit EhrChaincode(int num_patients = 100);

  std::string name() const override { return "ehr"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  int num_patients() const { return num_patients_; }

  /// Key helpers shared with the workload generator.
  static std::string ProfileKey(int index);
  static std::string RecordKey(int index);

 private:
  int num_patients_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_EHR_H_
