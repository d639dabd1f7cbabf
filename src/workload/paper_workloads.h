#ifndef FABRICSIM_WORKLOAD_PAPER_WORKLOADS_H_
#define FABRICSIM_WORKLOAD_PAPER_WORKLOADS_H_

#include <memory>

#include "src/chaincode/chaincode.h"
#include "src/common/status.h"
#include "src/workload/workload_generator.h"
#include "src/workload/workload_spec.h"

namespace fabricsim {

// Both builders below read one constant table, with a row per chaincode
// name: asset, drm, dv, ehr, genchain ("genChain" is an alias), scm and
// tpcc. An unknown name is InvalidArgument, and its message lists those
// names in that order.

/// Instantiates the chaincode the workload refers to, with key-space
/// parameters taken from the workload config (genChain, tpcc, asset) or
/// the paper's defaults (the use-case chaincodes).
Result<std::shared_ptr<Chaincode>> MakeChaincodeFor(
    const WorkloadConfig& workload);

/// Builds the workload generator for a WorkloadConfig, reproducing the
/// paper's workloads:
///  * EHR / DV / SCM / DRM: uniform (or read-shifted) mixes over the
///    Table 2 functions, keys drawn with the configured Zipfian skew
///    over the intentionally small bootstrapped key spaces.
///  * genChain: the five synthetic transaction types with x-heavy
///    mixes (80% / 5%·4) and range sizes {2,4,8}.
/// tpcc and asset get the mixes in tpcc_workload.h.
///
/// `rich_queries_supported` must reflect the configured database type;
/// on LevelDB the rich-query functions (queryStock, calcRevenue) are
/// excluded from the mix, since the shim rejects them.
Result<std::unique_ptr<WorkloadGenerator>> MakeWorkload(
    const WorkloadConfig& config, bool rich_queries_supported);

}  // namespace fabricsim

#endif  // FABRICSIM_WORKLOAD_PAPER_WORKLOADS_H_
