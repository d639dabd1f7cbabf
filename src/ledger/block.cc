#include "src/ledger/block.h"

#include "src/common/strings.h"

namespace fabricsim {

uint64_t BlockContentHash(const Block& block,
                          const std::vector<TxValidationResult>& results) {
  uint64_t hash = kChainHashSeed;
  hash = MixWord(hash, block.number);
  hash = MixWord(hash, static_cast<uint64_t>(block.cut_reason));
  hash = MixWord(hash, block.txs.size());
  for (const Transaction& tx : block.txs) {
    hash = MixWord(hash, tx.id);
    hash = MixWord(hash, tx.read_only ? 1 : 0);
    hash = MixWord(hash, tx.rwset.Digest());
  }
  hash = MixWord(hash, results.size());
  for (const TxValidationResult& result : results) {
    hash = MixWord(hash, static_cast<uint64_t>(result.code));
    hash = MixWord(hash, static_cast<uint64_t>(result.mvcc_class));
    hash = MixWord(hash, result.conflicting_tx);
  }
  return hash;
}

uint64_t MixChainHash(uint64_t prev, uint64_t content) {
  uint64_t hash = MixWord(prev, content);
  // MixWord(h, h) is 0; keep the chain off that fixed point.
  return hash == 0 ? kChainHashSeed : hash;
}

}  // namespace fabricsim
