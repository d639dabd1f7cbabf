#ifndef FABRICSIM_EXT_STREAMCHAIN_STREAMCHAIN_H_
#define FABRICSIM_EXT_STREAMCHAIN_STREAMCHAIN_H_

#include "src/fabric/network_config.h"

namespace fabricsim {

/// Streamchain (István et al., SERIAL'18) trades blocks for a stream:
/// the ordering service forwards transactions one-by-one, the
/// validation pipeline is parallelized/pipelined, and ledger + world
/// state live on a RAM disk. This header centralizes the model
/// constants; the wiring happens in FabricNetwork.
struct StreamchainModel {
  /// Speed-up of the per-transaction validation path from signature
  /// parallelization and pipelining (§5.3: "parallel validation of
  /// signatures and pipelining are implemented").
  static constexpr double kValidationCostFactor = 0.55;

  /// Whether the configuration requests the prototype's RAM disk
  /// (§5.3.3). Without it, commit costs use the normal disk profile
  /// and the system destabilizes beyond ~50 tps.
  static bool UsesRamDisk(const FabricConfig& config) {
    return config.variant == FabricVariant::kStreamchain &&
           config.streamchain_ram_disk;
  }
};

}  // namespace fabricsim

#endif  // FABRICSIM_EXT_STREAMCHAIN_STREAMCHAIN_H_
