#include "src/chaincode/supply_chain.h"

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

SupplyChainChaincode::SupplyChainChaincode(std::vector<int> unit_counts)
    : unit_counts_(std::move(unit_counts)) {}

std::string SupplyChainChaincode::LspKey(int lsp) {
  return StrFormat("LSP%d", lsp);
}

std::string SupplyChainChaincode::UnitPrefix(int lsp) {
  return StrFormat("UNIT%d_", lsp);
}

std::string SupplyChainChaincode::UnitKey(int lsp, int gtin) {
  return UnitPrefix(lsp) + PadKey(static_cast<uint64_t>(gtin), 5);
}

std::string SupplyChainChaincode::AsnKey(int asn) {
  return "ASN" + PadKey(static_cast<uint64_t>(asn), 6);
}

std::vector<WriteItem> SupplyChainChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  int gtin = 0;
  for (int lsp = 0; lsp < num_lsps(); ++lsp) {
    writes.push_back(WriteItem{
        LspKey(lsp),
        JsonObject({{"docType", "lsp"},
                    {"units", std::to_string(unit_counts_[lsp])}}),
        false});
    for (int u = 0; u < unit_counts_[lsp]; ++u, ++gtin) {
      writes.push_back(WriteItem{
          UnitKey(lsp, gtin),
          JsonObject({{"docType", "unit"},
                      {"lsp", "LSP" + std::to_string(lsp)},
                      {"gtin", PadKey(static_cast<uint64_t>(gtin), 5)},
                      {"sscc", "S" + PadKey(static_cast<uint64_t>(gtin), 8)}}),
          false});
    }
  }
  return writes;
}

std::vector<std::string> SupplyChainChaincode::Functions() const {
  return {"initLedger", "pushASN", "Ship", "Unload", "queryASN", "queryStock"};
}

Status SupplyChainChaincode::Invoke(ChaincodeStub& stub,
                                    const Invocation& inv) const {
  const auto& args = inv.args;
  auto need = [&](size_t n) -> Status {
    if (args.size() < n) {
      return Status::InvalidArgument(inv.function + ": expected " +
                                     std::to_string(n) + " args");
    }
    return Status::OK();
  };

  if (inv.function == "initLedger") {
    stub.PutState("SCM_META", JsonObject({{"docType", "meta"},
                                          {"lsps",
                                           std::to_string(num_lsps())}}));
    stub.PutState("SCM_ASN_SEQ",
                  JsonObject({{"docType", "meta"}, {"next", "0"}}));
    return Status::OK();
  }
  if (inv.function == "pushASN") {
    FABRICSIM_RETURN_NOT_OK(need(3));  // asn key, from lsp, to lsp
    stub.PutState(args[0], JsonObject({{"docType", "asn"},
                                       {"from", args[1]},
                                       {"to", args[2]}}));
    return Status::OK();
  }
  if (inv.function == "Ship") {
    // args: asn key, unit key at origin, unit key at destination
    FABRICSIM_RETURN_NOT_OK(need(3));
    std::optional<std::string> asn = stub.GetState(args[0]);
    std::optional<std::string> unit = stub.GetState(args[1]);
    // A missing unit (moved by a concurrent shipment) is shipped as a
    // pass-through unit: the reads above already recorded the
    // dependency, and keeping the 2xR/2xW footprint stable is what the
    // study's workload requires.
    std::string to_lsp =
        asn.has_value() ? ExtractJsonField(*asn, "to").value_or("") : "";
    std::string gtin =
        unit.has_value() ? ExtractJsonField(*unit, "gtin").value_or("") : "";
    std::string sscc =
        unit.has_value() ? ExtractJsonField(*unit, "sscc").value_or("") : "";
    // Moving between prefixes: remove at origin, insert at destination.
    stub.DelState(args[1]);
    stub.PutState(args[2], JsonObject({{"docType", "unit"},
                                       {"lsp", to_lsp},
                                       {"gtin", gtin},
                                       {"sscc", sscc}}));
    return Status::OK();
  }
  if (inv.function == "Unload") {
    // args: unit key, lsp key
    FABRICSIM_RETURN_NOT_OK(need(2));
    std::optional<std::string> unit = stub.GetState(args[0]);
    std::optional<std::string> lsp = stub.GetState(args[1]);
    if (!lsp.has_value()) {
      return Status::NotFound("missing lsp " + args[1]);
    }
    // Missing units are tolerated (see Ship above); the delete below
    // is then a no-op write that keeps the footprint stable.
    long long units =
        std::stoll(ExtractJsonField(*lsp, "units").value_or("0"));
    if (units > 0) --units;
    stub.DelState(args[0]);  // extract the embedded trade items
    stub.PutState(args[1], JsonObject({{"docType", "lsp"},
                                       {"units", std::to_string(units)}}));
    return Status::OK();
  }
  if (inv.function == "queryASN") {
    // args: lsp index as string — scan all units of that LSP.
    FABRICSIM_RETURN_NOT_OK(need(1));
    int lsp = std::stoi(args[0]);
    stub.GetStateByRange(UnitPrefix(lsp), UnitPrefix(lsp) + "~");
    return Status::OK();
  }
  if (inv.function == "queryStock") {
    // Rich query (CouchDB only); not phantom-checked by Fabric.
    FABRICSIM_RETURN_NOT_OK(need(1));
    Result<std::vector<StateEntryRef>> result =
        stub.GetQueryResult("docType==unit&lsp==LSP" + args[0]);
    if (!result.ok()) return result.status();
    return Status::OK();
  }
  return Status::InvalidArgument("scm: unknown function " + inv.function);
}

}  // namespace fabricsim
