#include "src/chaincode/asset_transfer.h"

#include <string>

#include "src/chaincode/composite_key.h"
#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

namespace {
constexpr char kAssetTable[] = "ASSET";
constexpr char kOwnedTable[] = "OWNED";
constexpr char kAcctTable[] = "ACCT";

std::string AssetDoc(const std::string& owner, long long value) {
  return JsonObject({{"docType", "asset"},
                     {"owner", owner},
                     {"value", std::to_string(value)}});
}
}  // namespace

AssetTransferChaincode::AssetTransferChaincode(AssetTransferConfig config)
    : config_(config) {}

std::string AssetTransferChaincode::AssetKey(int asset) {
  return MakeCompositeKey(kAssetTable,
                          {PadKey(static_cast<uint64_t>(asset), 6)});
}

std::string AssetTransferChaincode::OwnerName(int owner) {
  return "owner" + PadKey(static_cast<uint64_t>(owner), 3);
}

std::string AssetTransferChaincode::OwnedKey(int owner, int asset) {
  return MakeCompositeKey(
      kOwnedTable, {OwnerName(owner), PadKey(static_cast<uint64_t>(asset), 6)});
}

std::string AssetTransferChaincode::AccountKey(int account) {
  return MakeCompositeKey(kAcctTable,
                          {PadKey(static_cast<uint64_t>(account), 4)});
}

std::vector<WriteItem> AssetTransferChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  int owners = config_.owners < 1 ? 1 : config_.owners;
  for (int a = 0; a < config_.assets; ++a) {
    int owner = a % owners;
    writes.push_back(WriteItem{
        AssetKey(a), AssetDoc(OwnerName(owner), 100 + (a * 17) % 900), false});
    writes.push_back(WriteItem{
        OwnedKey(owner, a), JsonObject({{"docType", "owned"}}), false});
  }
  for (int acct = 0; acct < owners; ++acct) {
    writes.push_back(WriteItem{
        AccountKey(acct),
        JsonObject({{"docType", "acct"}, {"balance", "1000000"}}), false});
  }
  return writes;
}

std::vector<std::string> AssetTransferChaincode::Functions() const {
  return {"createAsset", "transferAsset", "readAsset", "queryByOwner",
          "credit",      "debit"};
}

Status AssetTransferChaincode::Invoke(ChaincodeStub& stub,
                                      const Invocation& inv) const {
  const auto& args = inv.args;
  auto need = [&](size_t n) -> Status {
    if (args.size() < n) {
      return Status::InvalidArgument(inv.function + ": expected " +
                                     std::to_string(n) + " args");
    }
    return Status::OK();
  };

  if (inv.function == "createAsset") {
    // args: asset id, owner index, value
    FABRICSIM_RETURN_NOT_OK(need(3));
    int asset = std::stoi(args[0]);
    int owner = std::stoi(args[1]);
    std::optional<std::string> existing = stub.GetState(AssetKey(asset));
    if (existing.has_value()) {
      return Status::InvalidArgument(
          StrFormat("createAsset: asset %d already exists", asset));
    }
    stub.PutState(AssetKey(asset),
                  AssetDoc(OwnerName(owner), std::stoll(args[2])));
    stub.PutState(OwnedKey(owner, asset),
                  JsonObject({{"docType", "owned"}}));
    return Status::OK();
  }
  if (inv.function == "transferAsset") {
    // args: asset id, new owner index
    FABRICSIM_RETURN_NOT_OK(need(2));
    int asset = std::stoi(args[0]);
    int to = std::stoi(args[1]);
    std::optional<std::string> doc = stub.GetState(AssetKey(asset));
    if (!doc.has_value()) {
      return Status::NotFound(
          StrFormat("transferAsset: no asset %d", asset));
    }
    std::string from = ExtractJsonField(*doc, "owner").value_or("");
    long long value =
        std::stoll(ExtractJsonField(*doc, "value").value_or("0"));
    // Moving the index entry between subtrees is what perturbs the two
    // owners' queryByOwner ranges (delete from one, insert into the
    // other) — the phantom source.
    stub.DelState(MakeCompositeKey(
        kOwnedTable, {from, PadKey(static_cast<uint64_t>(asset), 6)}));
    stub.PutState(OwnedKey(to, asset), JsonObject({{"docType", "owned"}}));
    stub.PutState(AssetKey(asset), AssetDoc(OwnerName(to), value));
    return Status::OK();
  }
  if (inv.function == "readAsset") {
    FABRICSIM_RETURN_NOT_OK(need(1));
    stub.GetState(AssetKey(std::stoi(args[0])));
    return Status::OK();
  }
  if (inv.function == "queryByOwner") {
    // args: owner index — phantom-checked scan of one owner's subtree.
    FABRICSIM_RETURN_NOT_OK(need(1));
    stub.GetStateByPartialCompositeKey(kOwnedTable,
                                       {OwnerName(std::stoi(args[0]))});
    return Status::OK();
  }
  if (inv.function == "credit" || inv.function == "debit") {
    // args: account index, amount_cents. Overdrafts are allowed: the
    // cross-channel pack needs the second leg to be retryable forever,
    // so balance checks live with the client, not the contract.
    FABRICSIM_RETURN_NOT_OK(need(2));
    int acct = std::stoi(args[0]);
    long long amount = std::stoll(args[1]);
    std::optional<std::string> doc = stub.GetState(AccountKey(acct));
    if (!doc.has_value()) {
      return Status::NotFound(StrFormat("%s: no account %d",
                                        inv.function.c_str(), acct));
    }
    long long balance =
        std::stoll(ExtractJsonField(*doc, "balance").value_or("0"));
    balance += inv.function == "credit" ? amount : -amount;
    stub.PutState(AccountKey(acct),
                  JsonObject({{"docType", "acct"},
                              {"balance", std::to_string(balance)}}));
    return Status::OK();
  }
  return Status::InvalidArgument("asset: unknown function " + inv.function);
}

}  // namespace fabricsim
