#ifndef FABRICSIM_WORKLOAD_WORKLOAD_SPEC_H_
#define FABRICSIM_WORKLOAD_WORKLOAD_SPEC_H_

#include <string>
#include <vector>

#include "src/channels/channel_types.h"

namespace fabricsim {

/// Transaction-mix presets (paper §4.4/§4.5). For genChain, an
/// "x-heavy" workload is 80% x-transactions with the remaining types
/// uniformly sharing the other 20%. For the use-case chaincodes,
/// kReadHeavy / kReadWriteHeavy shift weight toward the read-only /
/// read-write functions; kUniform weighs every function equally.
enum class WorkloadMix {
  kUniform,
  kReadHeavy,
  kInsertHeavy,
  kUpdateHeavy,
  kDeleteHeavy,
  kRangeHeavy,
  kReadWriteHeavy,
};

const char* WorkloadMixToString(WorkloadMix mix);

/// Scale parameters of the TPC-C chaincode (src/chaincode/tpcc),
/// after Klenik & Kocsis's "TPC-C on Hyperledger Fabric". Defaults are
/// simulator-scale (the spec's 3000 customers and 100k items shrink to
/// keep bootstrap fast); the *ratios* that create the district hotspot
/// are preserved exactly — every warehouse has 10 districts and every
/// NewOrder/Payment funnels through one district row.
struct TpccConfig {
  int warehouses = 2;
  int districts_per_warehouse = 10;
  int customers_per_district = 30;
  int items = 100;
  /// TPC-C §2.4.1.5: this fraction of NewOrder transactions names an
  /// unused item id and must roll back (chaincode error, endorsement
  /// drops it client-side).
  double invalid_item_rate = 0.01;
};

/// Scale parameters of the composite-key asset-transfer scenario pack
/// (src/chaincode/asset_transfer), after the requirement patterns in
/// Ben Toumia et al.'s application-requirements study.
struct AssetTransferConfig {
  int assets = 400;
  int owners = 20;
};

/// Declarative workload description consumed by MakeWorkload().
struct WorkloadConfig {
  /// Target chaincode: "ehr", "dv", "scm", "drm", "genchain" (or
  /// "genChain"), "tpcc" or "asset".
  std::string chaincode = "ehr";
  WorkloadMix mix = WorkloadMix::kUniform;
  /// Zipfian skew of key accesses (0 = uniform).
  double zipf_skew = 1.0;
  /// genChain only: sizes of range reads, chosen uniformly (paper: 2,
  /// 4 or 8 keys). MakeWorkload refuses a size below 0 or above
  /// genchain_initial_keys while range reads are included.
  std::vector<int> range_sizes = {2, 4, 8};
  /// genChain only: number of bootstrapped keys.
  uint64_t genchain_initial_keys = 100000;
  /// genChain only: include range-read transactions in the mix. The
  /// runner disables this for FabricSharp, which does not support
  /// range queries (paper §5.4.3).
  bool include_range_reads = true;
  /// genChain only: include insertKeys/deleteKeys in the mix. Inserts
  /// mint fresh keys forever and deletes stop removing once the
  /// bootstrap range is consumed, so a long mutating run grows every
  /// peer's world state without bound. Disable for endurance runs
  /// (e.g. bench_scale_ceiling) that need a static key space where
  /// memory growth measures simulator bookkeeping, not application
  /// state.
  bool genchain_mutations = true;
  /// tpcc only: schema scale (warehouse count is the sweep knob).
  TpccConfig tpcc;
  /// asset only: scenario-pack scale.
  AssetTransferConfig asset;
  /// How clients spread submissions across channels (multi-channel
  /// networks only; inert when fabric.num_channels == 1). skew is the
  /// Zipf exponent of channel popularity, channels_per_client pins
  /// each client to a subset of channels.
  ChannelAffinityConfig channel_affinity;
};

}  // namespace fabricsim

#endif  // FABRICSIM_WORKLOAD_WORKLOAD_SPEC_H_
