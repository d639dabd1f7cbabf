#ifndef FABRICSIM_CORE_INVARIANTS_H_
#define FABRICSIM_CORE_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/ledger/block.h"
#include "src/ledger/block_store.h"

namespace fabricsim {

class FabricNetwork;

/// One peer's committed hash chain, as seen by the checker.
struct PeerChainView {
  PeerId peer = 0;
  const std::vector<PeerChainRecord>* records = nullptr;
};

/// Result of the chain-integrity audit. `violations` is empty on a
/// clean run; each entry is a human-readable description of one broken
/// invariant.
struct ChainIntegrityReport {
  std::vector<std::string> violations;
  uint64_t canonical_height = 0;
  int peers_checked = 0;

  bool ok() const { return violations.empty(); }
  /// Violations joined into one line ("" when clean).
  std::string Summary() const;
};

/// Audits the run-ending state of the ledger and every peer's
/// committed hash chain:
///  * the canonical ledger is dense (blocks 1..height, no gaps, no
///    renumbering) and no transaction id appears in two blocks
///    (double commit);
///  * every canonical transaction's rw-set digest, recomputed from its
///    content, equals its sealed digest (the value every chain hash
///    mixed);
///  * every peer's chain is a dense prefix-or-extension of the same
///    hash chain — byte-identical content at every height two chains
///    share (a crashed peer may stop early; a peer may also run ahead
///    of the recorded ledger when the reference peer itself crashed);
///  * every client-acked transaction id (replicated-ordering mode) is
///    on the ledger exactly once — an acked transaction was never
///    lost. Ids beyond a behind-the-peers ledger head are only checked
///    when the ledger is the longest chain available.
///
/// Pure observation: reads committed state only, never touches the
/// simulation. Cheap enough to run unconditionally after every run.
ChainIntegrityReport CheckChainRecords(
    const BlockStore& ledger, const std::vector<PeerChainView>& peers,
    const std::vector<TxId>* acked_txs);

/// Convenience wrapper: audits every channel of `network` — each
/// channel's canonical ledger, every peer's chain for that channel,
/// and the channel's acked-transaction record. Violations on channels
/// other than the default are prefixed with the channel id.
ChainIntegrityReport CheckChainIntegrity(const FabricNetwork& network);

}  // namespace fabricsim

#endif  // FABRICSIM_CORE_INVARIANTS_H_
