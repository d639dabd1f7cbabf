#include "src/chaincode/drm.h"

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

DrmChaincode::DrmChaincode(int num_artworks, int num_right_holders)
    : num_artworks_(num_artworks), num_right_holders_(num_right_holders) {}

std::string DrmChaincode::ArtworkKey(int index) {
  return "ART" + PadKey(static_cast<uint64_t>(index), 4);
}

std::string DrmChaincode::RightsKey(int index) {
  return "RIGHTS" + PadKey(static_cast<uint64_t>(index), 4);
}

std::string DrmChaincode::HolderKey(int index) {
  return "RH" + PadKey(static_cast<uint64_t>(index), 4);
}

std::string DrmChaincode::HolderId(int index) {
  // IPI-style 11-digit "interested party information" number.
  return "I" + PadKey(static_cast<uint64_t>(index) + 10000000000ULL, 11);
}

std::vector<WriteItem> DrmChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  for (int i = 0; i < num_right_holders_; ++i) {
    writes.push_back(WriteItem{
        HolderKey(i),
        JsonObject({{"docType", "holder"},
                    {"ipi", HolderId(i)},
                    {"revenue", "0"}}),
        false});
  }
  for (int i = 0; i < num_artworks_; ++i) {
    int holder = i % num_right_holders_;
    writes.push_back(WriteItem{
        ArtworkKey(i),
        JsonObject({{"docType", "art"},
                    {"format", "dotBC"},
                    {"artist", HolderKey(holder)},
                    {"plays", "0"}}),
        false});
    writes.push_back(WriteItem{
        RightsKey(i),
        JsonObject({{"docType", "rights"},
                    {"art", ArtworkKey(i)},
                    {"holder", HolderKey(holder)}}),
        false});
  }
  return writes;
}

std::vector<std::string> DrmChaincode::Functions() const {
  return {"initLedger",  "create",      "play",
          "queryRghts",  "viewMetaData", "calcRevenue"};
}

Status DrmChaincode::Invoke(ChaincodeStub& stub,
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
    stub.PutState("DRM_META", JsonObject({{"docType", "meta"},
                                          {"format", "dotBC"}}));
    stub.PutState("DRM_SEQ",
                  JsonObject({{"docType", "meta"},
                              {"artworks", std::to_string(num_artworks_)}}));
    return Status::OK();
  }
  if (inv.function == "create") {
    // args: artwork key, rights key, holder key
    FABRICSIM_RETURN_NOT_OK(need(3));
    std::optional<std::string> holder = stub.GetState(args[2]);
    if (!holder.has_value()) return Status::NotFound("no holder " + args[2]);
    stub.PutState(args[0], JsonObject({{"docType", "art"},
                                       {"format", "dotBC"},
                                       {"artist", args[2]},
                                       {"plays", "0"}}));
    stub.PutState(args[1], JsonObject({{"docType", "rights"},
                                       {"art", args[0]},
                                       {"holder", args[2]}}));
    return Status::OK();
  }
  if (inv.function == "play") {
    // args: artwork key, rights key
    FABRICSIM_RETURN_NOT_OK(need(2));
    std::optional<std::string> art = stub.GetState(args[0]);
    std::optional<std::string> rights = stub.GetState(args[1]);
    if (!art.has_value() || !rights.has_value()) {
      return Status::NotFound("missing artwork or rights");
    }
    long long plays =
        std::stoll(ExtractJsonField(*art, "plays").value_or("0")) + 1;
    std::string artist = ExtractJsonField(*art, "artist").value_or("");
    stub.PutState(args[0], JsonObject({{"docType", "art"},
                                       {"format", "dotBC"},
                                       {"artist", artist},
                                       {"plays", std::to_string(plays)}}));
    return Status::OK();
  }
  if (inv.function == "queryRghts") {
    FABRICSIM_RETURN_NOT_OK(need(2));
    stub.GetState(args[0]);
    stub.GetState(args[1]);
    return Status::OK();
  }
  if (inv.function == "viewMetaData") {
    FABRICSIM_RETURN_NOT_OK(need(1));
    stub.GetState(args[0]);
    return Status::OK();
  }
  if (inv.function == "calcRevenue") {
    // args: holder key. Rich query over the holder's artworks.
    FABRICSIM_RETURN_NOT_OK(need(1));
    Result<std::vector<StateEntryRef>> result =
        stub.GetQueryResult("docType==art&artist==" + args[0]);
    if (!result.ok()) return result.status();
    return Status::OK();
  }
  return Status::InvalidArgument("drm: unknown function " + inv.function);
}

}  // namespace fabricsim
