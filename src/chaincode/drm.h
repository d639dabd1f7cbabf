#ifndef FABRICSIM_CHAINCODE_DRM_H_
#define FABRICSIM_CHAINCODE_DRM_H_

#include "src/chaincode/chaincode.h"

namespace fabricsim {

/// Digital Rights Management chaincode (paper §4.3, Table 2).
///
/// 200 artworks (keys "ART<nnnn>", metadata in a dot-blockchain-media-
/// style document) and 200 right holders ("RH<nnnn>", industry-
/// standard IPI-like ids). Royalty metadata lives on chain; revenue of
/// a right holder is computed with a rich query over their artworks
/// (calcRevenue — not phantom-checked, per the shim caveat).
///
/// Function → operation footprint (Table 2):
///   initLedger    2xW        create       1xR, 2xW
///   play          2xR, 1xW   queryRghts   2xR
///   viewMetaData  1xR        calcRevenue  1xRR* (rich)
class DrmChaincode : public Chaincode {
 public:
  DrmChaincode(int num_artworks = 200, int num_right_holders = 200);

  std::string name() const override { return "drm"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  int num_artworks() const { return num_artworks_; }
  int num_right_holders() const { return num_right_holders_; }

  static std::string ArtworkKey(int index);
  static std::string RightsKey(int index);
  static std::string HolderKey(int index);
  static std::string HolderId(int index);

 private:
  int num_artworks_;
  int num_right_holders_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_DRM_H_
