#include "src/chaincode/ehr.h"

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

EhrChaincode::EhrChaincode(int num_patients) : num_patients_(num_patients) {}

std::string EhrChaincode::ProfileKey(int index) {
  return "PROF" + PadKey(static_cast<uint64_t>(index), 4);
}

std::string EhrChaincode::RecordKey(int index) {
  return "EHR" + PadKey(static_cast<uint64_t>(index), 4);
}

std::vector<WriteItem> EhrChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  for (int i = 0; i < num_patients_; ++i) {
    writes.push_back(WriteItem{
        ProfileKey(i),
        JsonObject({{"docType", "profile"},
                    {"patient", "P" + PadKey(static_cast<uint64_t>(i), 4)},
                    {"access", ""}}),
        false});
    writes.push_back(WriteItem{
        RecordKey(i),
        JsonObject({{"docType", "ehr"},
                    {"patient", "P" + PadKey(static_cast<uint64_t>(i), 4)},
                    {"access", ""},
                    {"entries", "0"}}),
        false});
  }
  return writes;
}

std::vector<std::string> EhrChaincode::Functions() const {
  return {"initLedger",      "grantProfileAccess", "revokeProfileAccess",
          "revokeEhrAccess", "grantEhrAccess",     "addEhr",
          "readProfile",     "viewPartialProfile", "viewEHR",
          "queryEHR"};
}

namespace {

// Rewrites the "access" field of a profile/record document.
std::string WithAccess(const std::string& doc, const std::string& actor) {
  std::string patient = ExtractJsonField(doc, "patient").value_or("");
  std::string doc_type = ExtractJsonField(doc, "docType").value_or("");
  return JsonObject(
      {{"docType", doc_type}, {"patient", patient}, {"access", actor}});
}

}  // namespace

Status EhrChaincode::Invoke(ChaincodeStub& stub,
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
    stub.PutState("EHR_META", JsonObject({{"docType", "meta"},
                                          {"version", "1"}}));
    stub.PutState("EHR_COUNT",
                  JsonObject({{"docType", "meta"},
                              {"patients", std::to_string(num_patients_)}}));
    return Status::OK();
  }
  if (inv.function == "grantProfileAccess" ||
      inv.function == "revokeProfileAccess") {
    FABRICSIM_RETURN_NOT_OK(need(2));  // profile key, actor id
    std::optional<std::string> doc = stub.GetState(args[0]);
    if (!doc.has_value()) {
      return Status::NotFound("no profile " + args[0]);
    }
    const std::string actor =
        inv.function == "grantProfileAccess" ? args[1] : "";
    stub.PutState(args[0], WithAccess(*doc, actor));
    return Status::OK();
  }
  if (inv.function == "grantEhrAccess" || inv.function == "revokeEhrAccess") {
    FABRICSIM_RETURN_NOT_OK(need(3));  // record key, profile key, actor
    std::optional<std::string> record = stub.GetState(args[0]);
    std::optional<std::string> profile = stub.GetState(args[1]);
    if (!record.has_value() || !profile.has_value()) {
      return Status::NotFound("missing record or profile");
    }
    const std::string actor = inv.function == "grantEhrAccess" ? args[2] : "";
    stub.PutState(args[0], WithAccess(*record, actor));
    stub.PutState(args[1], WithAccess(*profile, actor));
    return Status::OK();
  }
  if (inv.function == "addEhr") {
    FABRICSIM_RETURN_NOT_OK(need(3));  // record key, profile key, payload
    std::optional<std::string> record = stub.GetState(args[0]);
    std::optional<std::string> profile = stub.GetState(args[1]);
    if (!profile.has_value()) {
      return Status::NotFound("no profile " + args[1]);
    }
    std::string entries = "1";
    if (record.has_value()) {
      entries = std::to_string(
          std::stoll(ExtractJsonField(*record, "entries").value_or("0")) + 1);
    }
    std::string patient = ExtractJsonField(*profile, "patient").value_or("");
    stub.PutState(args[0], JsonObject({{"docType", "ehr"},
                                       {"patient", patient},
                                       {"access", ""},
                                       {"entries", entries},
                                       {"payload", args[2]}}));
    stub.PutState(args[1], WithAccess(*profile, "provider"));
    return Status::OK();
  }
  if (inv.function == "readProfile" || inv.function == "viewPartialProfile") {
    FABRICSIM_RETURN_NOT_OK(need(1));
    stub.GetState(args[0]);
    return Status::OK();
  }
  if (inv.function == "viewEHR" || inv.function == "queryEHR") {
    FABRICSIM_RETURN_NOT_OK(need(1));
    stub.GetState(args[0]);
    return Status::OK();
  }
  return Status::InvalidArgument("ehr: unknown function " + inv.function);
}

}  // namespace fabricsim
