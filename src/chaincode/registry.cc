#include "src/chaincode/registry.h"

#include <map>
#include <mutex>
#include <utility>

#include "src/chaincode/asset_transfer.h"
#include "src/chaincode/digital_voting.h"
#include "src/chaincode/drm.h"
#include "src/chaincode/ehr.h"
#include "src/chaincode/genchain.h"
#include "src/chaincode/supply_chain.h"
#include "src/chaincode/tpcc/tpcc_chaincode.h"
#include "src/workload/tpcc_workload.h"

namespace fabricsim {

namespace {

struct Catalog {
  std::mutex mu;
  std::map<std::string, ChaincodeFactory> entries;
};

// Built-ins are written straight into the map (not through
// RegisterChaincodeFactory, which would re-enter the function-local
// static below mid-initialisation).
void RegisterBuiltins(std::map<std::string, ChaincodeFactory>& entries) {
  entries["ehr"] = {[](const WorkloadConfig&) {
                      return std::make_shared<EhrChaincode>();
                    },
                    {}};
  entries["dv"] = {[](const WorkloadConfig&) {
                     return std::make_shared<DigitalVotingChaincode>();
                   },
                   {}};
  entries["scm"] = {[](const WorkloadConfig&) {
                      return std::make_shared<SupplyChainChaincode>();
                    },
                    {}};
  entries["drm"] = {[](const WorkloadConfig&) {
                      return std::make_shared<DrmChaincode>();
                    },
                    {}};
  entries["genchain"] = {[](const WorkloadConfig& config) {
                           return std::make_shared<GenChaincode>(
                               GenChaincodeSpec::PaperDefault(
                                   config.genchain_initial_keys));
                         },
                         {}};
  // The four paper chaincodes keep their generators inside
  // MakeWorkload()'s switch (their mixes predate the catalog); tpcc
  // and asset register the full pair, exercising the same path a
  // user-added chaincode would.
  entries["tpcc"] = {[](const WorkloadConfig& config) {
                       return std::make_shared<TpccChaincode>(config.tpcc);
                     },
                     [](const WorkloadConfig& config, bool) {
                       return MakeTpccWorkload(config);
                     }};
  entries["asset"] = {[](const WorkloadConfig& config) {
                        return std::make_shared<AssetTransferChaincode>(
                            config.asset);
                      },
                      [](const WorkloadConfig& config, bool) {
                        return MakeAssetTransferWorkload(config);
                      }};
}

Catalog& GetCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    RegisterBuiltins(c->entries);
    return c;
  }();
  return *catalog;
}

}  // namespace

Status RegisterChaincodeFactory(const std::string& name,
                                ChaincodeFactory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("chaincode factory name must be non-empty");
  }
  if (!factory.make_chaincode) {
    return Status::InvalidArgument("chaincode factory for " + name +
                                   " has no make_chaincode");
  }
  Catalog& catalog = GetCatalog();
  std::lock_guard<std::mutex> lock(catalog.mu);
  if (!catalog.entries.emplace(name, std::move(factory)).second) {
    return Status::AlreadyExists("chaincode factory already registered: " +
                                 name);
  }
  return Status::OK();
}

Status UnregisterChaincodeFactory(const std::string& name) {
  Catalog& catalog = GetCatalog();
  std::lock_guard<std::mutex> lock(catalog.mu);
  if (catalog.entries.erase(name) == 0) {
    return Status::NotFound("no chaincode factory registered: " + name);
  }
  return Status::OK();
}

std::vector<std::string> RegisteredChaincodeNames() {
  Catalog& catalog = GetCatalog();
  std::lock_guard<std::mutex> lock(catalog.mu);
  std::vector<std::string> names;
  names.reserve(catalog.entries.size());
  for (const auto& [name, factory] : catalog.entries) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::optional<ChaincodeFactory> FindChaincodeFactory(const std::string& name) {
  Catalog& catalog = GetCatalog();
  std::lock_guard<std::mutex> lock(catalog.mu);
  auto it = catalog.entries.find(name == "genChain" ? "genchain" : name);
  if (it == catalog.entries.end()) return std::nullopt;
  return it->second;
}

std::string UnknownChaincodeError(const std::string& name) {
  std::string message = "unknown chaincode: " + name + " (available: ";
  bool first = true;
  for (const std::string& available : RegisteredChaincodeNames()) {
    if (!first) message += ", ";
    message += available;
    first = false;
  }
  return message + ")";
}

}  // namespace fabricsim
