#ifndef FABRICSIM_CHAINCODE_ASSET_TRANSFER_H_
#define FABRICSIM_CHAINCODE_ASSET_TRANSFER_H_

#include "src/chaincode/chaincode.h"
#include "src/workload/workload_spec.h"

namespace fabricsim {

/// Composite-key asset-transfer chaincode (scenario packs in
/// examples/), after Fabric's asset-transfer-basic sample grown to the
/// patterns the application-requirements literature actually exercises:
/// a secondary index and account rows.
///
/// State layout (all composite keys, src/chaincode/composite_key.h):
///   ("ASSET", {id})         -> {owner, value}       the asset record
///   ("OWNED", {owner, id})  -> {}                   ownership index
///   ("ACCT",  {account})    -> {balance}            cash accounts
///
/// The OWNED index is the interesting part: transferAsset moves an
/// index entry between two owners' subtrees, and queryByOwner is a
/// phantom-checked partial-composite scan over one subtree — so a
/// transfer committing between a query's endorsement and validation
/// fails the query with PHANTOM_READ_CONFLICT even though the two
/// transactions touch no common key. That is the abort class the
/// composite-key scenario pack provokes on purpose.
///
/// credit/debit exist for the cross-channel pack: each channel's
/// ledger holds its own ACCT rows and a client-side two-leg transfer
/// debits on one channel and credits on the other (atomicity is the
/// client's problem — exactly as on real Fabric, where cross-channel
/// invocations are not transactional).
///
/// Function → operation footprint:
///   createAsset   1xR, 2xW     transferAsset  1xR, 3xW
///   readAsset     1xR          queryByOwner   1xRR (phantom-checked)
///   credit        1xR, 1xW     debit          1xR, 1xW
class AssetTransferChaincode : public Chaincode {
 public:
  explicit AssetTransferChaincode(AssetTransferConfig config = {});

  std::string name() const override { return "asset"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  const AssetTransferConfig& config() const { return config_; }

  static std::string AssetKey(int asset);
  static std::string OwnedKey(int owner, int asset);
  static std::string AccountKey(int account);
  static std::string OwnerName(int owner);

 private:
  AssetTransferConfig config_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_ASSET_TRANSFER_H_
