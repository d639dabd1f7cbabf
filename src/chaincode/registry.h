#ifndef FABRICSIM_CHAINCODE_REGISTRY_H_
#define FABRICSIM_CHAINCODE_REGISTRY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chaincode/chaincode.h"
#include "src/common/status.h"
#include "src/workload/workload_spec.h"

namespace fabricsim {

class WorkloadGenerator;

/// How a named chaincode — and optionally its canned workload — is
/// built from a WorkloadConfig. Registered factories are first-class
/// citizens of the name-based plumbing: MakeChaincodeFor() /
/// MakeWorkload() resolve them, and the unknown-name diagnostic lists
/// them. Adding a chaincode therefore means one
/// RegisterChaincodeFactory() call, not edits to every factory switch.
struct ChaincodeFactory {
  /// Builds the contract (required).
  std::function<std::shared_ptr<Chaincode>(const WorkloadConfig&)>
      make_chaincode;
  /// Builds the workload generator; may be empty for chaincodes driven
  /// only by hand-built generators (MakeWorkload() then rejects the
  /// name). The bool is rich_queries_supported.
  std::function<std::unique_ptr<WorkloadGenerator>(const WorkloadConfig&,
                                                   bool)>
      make_workload;
};

/// Registers a factory under `name`. Thread-safe; fails on duplicate
/// names (the seven built-ins are pre-registered).
Status RegisterChaincodeFactory(const std::string& name,
                                ChaincodeFactory factory);

/// Removes a registered factory (test teardown hook — built-ins can be
/// removed too, so tests must restore what they take). Fails when
/// `name` is not registered.
Status UnregisterChaincodeFactory(const std::string& name);

/// Sorted names of every registered factory.
std::vector<std::string> RegisteredChaincodeNames();

/// Looks up a factory by name ("genChain" is accepted as an alias of
/// "genchain"); nullopt when unknown. Returns a copy so the caller
/// holds no reference into the catalog.
std::optional<ChaincodeFactory> FindChaincodeFactory(
    const std::string& name);

/// Diagnostic for an unknown chaincode name, listing what is
/// available: "unknown chaincode: x (available: asset, dv, ...)".
std::string UnknownChaincodeError(const std::string& name);

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_REGISTRY_H_
