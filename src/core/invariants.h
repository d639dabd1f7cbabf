#ifndef FABRICSIM_CORE_INVARIANTS_H_
#define FABRICSIM_CORE_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/statedb/channel_state.h"

namespace fabricsim {

class FabricNetwork;

/// Result of the chain-integrity audit. `violations` is empty on a
/// clean run; each entry is a human-readable description of one broken
/// invariant.
struct ChainIntegrityReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// Violations joined into one line ("" when clean).
  std::string Summary() const;
};

/// Audits one channel. The channel's commit record checked each block
/// as it first committed — no transaction id committed twice, every
/// rw-set's digest recomputed from its content equal to its sealed
/// digest — and every later commit of it against the recorded block;
/// this adds what it found to one check: every client-acked
/// transaction id (replicated-ordering mode) was committed on the
/// channel, so no acked transaction was lost.
ChainIntegrityReport CheckChannel(const ChannelState& channel,
                                  const std::vector<TxId>& acked_txs);

/// Audits every channel of `network` with CheckChannel. Violations on
/// channels other than the default are prefixed with the channel id.
/// Pure observation and cheap: the per-block work already happened
/// during the run, so every run is audited, streaming runs included.
ChainIntegrityReport CheckChainIntegrity(const FabricNetwork& network);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_INVARIANTS_H_
