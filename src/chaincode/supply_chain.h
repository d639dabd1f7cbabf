#ifndef FABRICSIM_CHAINCODE_SUPPLY_CHAIN_H_
#define FABRICSIM_CHAINCODE_SUPPLY_CHAIN_H_

#include "src/chaincode/chaincode.h"

namespace fabricsim {

/// Supply Chain Management chaincode (paper §4.3, Table 2), after
/// Perboli et al.
///
/// Five logistic service providers (LSPs): LSP0..LSP3 hold 400
/// logistic units each, LSP4 holds 800. Units are keyed
/// "UNIT<lsp>_<gtin>" so a range read over the "UNIT<lsp>_" prefix
/// retrieves every unit currently at an LSP (the queryASN query —
/// 400 to 800 keys, which is what breaks Fabric++'s reordering).
/// Shipping moves a unit between prefixes (delete + insert), so it
/// perturbs two LSP ranges at once.
///
/// Function → operation footprint (Table 2):
///   initLedger  2xW         pushASN     1xW
///   Ship        2xR, 2xW    Unload      2xR, 2xW
///   queryASN    1xRR        queryStock  1xRR*  (rich; no phantom check)
class SupplyChainChaincode : public Chaincode {
 public:
  /// `unit_counts[l]` is the number of bootstrapped units at LSP l.
  SupplyChainChaincode(std::vector<int> unit_counts = {400, 400, 400, 400,
                                                       800});

  std::string name() const override { return "scm"; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  int num_lsps() const { return static_cast<int>(unit_counts_.size()); }
  const std::vector<int>& unit_counts() const { return unit_counts_; }

  static std::string LspKey(int lsp);
  static std::string UnitKey(int lsp, int gtin);
  static std::string UnitPrefix(int lsp);
  static std::string AsnKey(int asn);

 private:
  std::vector<int> unit_counts_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_SUPPLY_CHAIN_H_
