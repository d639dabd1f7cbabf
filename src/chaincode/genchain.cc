#include "src/chaincode/genchain.h"

#include <set>

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

GenChaincodeSpec GenChaincodeSpec::PaperDefault(uint64_t initial_keys) {
  GenChaincodeSpec spec;
  spec.initial_keys = initial_keys;
  spec.functions = {
      GenFunctionSpec{"readKeys", 1, 0, 0, 0, 0, false},
      GenFunctionSpec{"insertKeys", 0, 1, 0, 0, 0, false},
      GenFunctionSpec{"updateKeys", 0, 0, 1, 0, 0, false},
      GenFunctionSpec{"deleteKeys", 0, 0, 0, 1, 0, false},
      GenFunctionSpec{"rangeReadKeys", 0, 0, 0, 0, 1, false},
  };
  return spec;
}

Status GenChaincodeSpec::Validate() const {
  if (functions.empty()) {
    return Status::InvalidArgument("spec has no functions");
  }
  std::set<std::string> names;
  for (const GenFunctionSpec& f : functions) {
    if (f.name.empty()) {
      return Status::InvalidArgument("function with empty name");
    }
    if (!names.insert(f.name).second) {
      return Status::AlreadyExists("duplicate function " + f.name);
    }
    if (f.reads < 0 || f.inserts < 0 || f.updates < 0 || f.deletes < 0 ||
        f.range_reads < 0) {
      return Status::InvalidArgument("negative action count in " + f.name);
    }
    if (f.ArgCount() == 0) {
      return Status::InvalidArgument("function " + f.name + " does nothing");
    }
  }
  return Status::OK();
}

GenChaincode::GenChaincode(GenChaincodeSpec spec) : spec_(std::move(spec)) {}

std::string GenChaincode::Key(uint64_t index) {
  return "GK" + PadKey(index, 8);
}

std::vector<WriteItem> GenChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  writes.reserve(spec_.initial_keys);
  for (uint64_t i = 0; i < spec_.initial_keys; ++i) {
    writes.push_back(WriteItem{
        Key(i),
        JsonObject({{"docType", "gk"}, {"payload", PadKey(i, 16)}}),
        false});
  }
  return writes;
}

std::vector<std::string> GenChaincode::Functions() const {
  std::vector<std::string> names;
  names.reserve(spec_.functions.size());
  for (const GenFunctionSpec& f : spec_.functions) names.push_back(f.name);
  return names;
}

Status GenChaincode::Invoke(ChaincodeStub& stub,
                           const Invocation& inv) const {
  const GenFunctionSpec* fn = nullptr;
  for (const GenFunctionSpec& f : spec_.functions) {
    if (f.name == inv.function) {
      fn = &f;
      break;
    }
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("genchain: unknown function " +
                                   inv.function);
  }
  if (static_cast<int>(inv.args.size()) < fn->ArgCount()) {
    return Status::InvalidArgument(
        StrFormat("genchain %s: need %d args, got %zu", fn->name.c_str(),
                  fn->ArgCount(), inv.args.size()));
  }
  size_t arg = 0;
  for (int i = 0; i < fn->reads; ++i) {
    stub.GetState(inv.args[arg++]);
  }
  for (int i = 0; i < fn->inserts; ++i) {
    // Blind write of a fresh key: no read dependency, so inserts never
    // suffer MVCC conflicts — the effect the paper measures for
    // insert-heavy workloads.
    const std::string& key = inv.args[arg++];
    stub.PutState(key, JsonObject({{"docType", "gk"}, {"payload", key}}));
  }
  for (int i = 0; i < fn->updates; ++i) {
    // Read-modify-write: this is the conflict-prone action.
    const std::string& key = inv.args[arg++];
    std::optional<std::string> value = stub.GetState(key);
    std::string payload =
        value.has_value() ? ExtractJsonField(*value, "payload").value_or("")
                          : "";
    stub.PutState(key, JsonObject({{"docType", "gk"},
                                   {"payload", payload + "u"}}));
  }
  for (int i = 0; i < fn->deletes; ++i) {
    const std::string& key = inv.args[arg++];
    stub.DelState(key);
  }
  for (int i = 0; i < fn->range_reads; ++i) {
    const std::string& start = inv.args[arg++];
    const std::string& end = inv.args[arg++];
    if (fn->use_rich_query) {
      Result<std::vector<StateEntryRef>> result =
          stub.GetQueryResult("docType==gk");
      if (!result.ok()) return result.status();
    } else {
      stub.GetStateByRange(start, end);
    }
  }
  return Status::OK();
}

}  // namespace fabricsim
