#include "src/core/invariants.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/strings.h"
#include "src/fabric/fabric_network.h"

namespace fabricsim {

std::string ChainIntegrityReport::Summary() const {
  std::string out;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out += "; ";
    out += violations[i];
  }
  return out;
}

namespace {

/// Rebuilds the hash chain the reference peer's recorded ledger
/// implies, so it can be audited like any peer chain.
std::vector<PeerChainRecord> LedgerChainRecords(const BlockStore& ledger) {
  std::vector<PeerChainRecord> records;
  records.reserve(ledger.blocks().size());
  uint64_t prev = kChainHashSeed;
  for (const Block& block : ledger.blocks()) {
    uint64_t content = BlockContentHash(block, block.results);
    uint64_t chain = MixChainHash(prev, content);
    records.push_back(PeerChainRecord{block.number, content, chain});
    prev = chain;
  }
  return records;
}

void CheckOneChain(const char* who, const std::vector<PeerChainRecord>& chain,
                   ChainIntegrityReport* report) {
  uint64_t prev = kChainHashSeed;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].number != i + 1) {
      report->violations.push_back(StrFormat(
          "%s: block numbers not dense: position %zu holds block %llu", who,
          i, static_cast<unsigned long long>(chain[i].number)));
      return;  // everything downstream would re-report the same gap
    }
    uint64_t expected = MixChainHash(prev, chain[i].content_hash);
    if (chain[i].chain_hash != expected) {
      report->violations.push_back(StrFormat(
          "%s: chain hash broken at block %llu", who,
          static_cast<unsigned long long>(chain[i].number)));
      return;
    }
    prev = chain[i].chain_hash;
  }
}

}  // namespace

ChainIntegrityReport CheckChainRecords(const BlockStore& ledger,
                                       const std::vector<PeerChainView>& peers,
                                       const std::vector<TxId>* acked_txs) {
  ChainIntegrityReport report;
  report.canonical_height = ledger.height();
  report.peers_checked = static_cast<int>(peers.size());

  // 1. The canonical ledger itself: dense numbering, internally
  //    consistent hash chain, no transaction committed twice, and
  //    every rw-set still matching the digest sealed at endorsement
  //    (the chain hashes mix the sealed value, so only a recomputation
  //    from content catches a set mutated after sealing).
  std::vector<PeerChainRecord> ledger_chain = LedgerChainRecords(ledger);
  CheckOneChain("ledger", ledger_chain, &report);
  std::unordered_set<TxId> ledger_tx_ids;
  for (const Block& block : ledger.blocks()) {
    for (const Transaction& tx : block.txs) {
      if (!ledger_tx_ids.insert(tx.id).second) {
        report.violations.push_back(StrFormat(
            "tx %llu committed twice (second time in block %llu)",
            static_cast<unsigned long long>(tx.id),
            static_cast<unsigned long long>(block.number)));
      }
      if (tx.rwset.ComputeDigest() != tx.rwset.Digest()) {
        report.violations.push_back(StrFormat(
            "channel %d block %llu tx %llu: rw-set content differs from "
            "its sealed digest",
            block.channel, static_cast<unsigned long long>(block.number),
            static_cast<unsigned long long>(tx.id)));
      }
    }
  }

  // 2. Reference chain = the longest chain available. Normally that is
  //    the ledger; when the reference peer crashed mid-run, surviving
  //    peers may have committed past the recorded ledger head, and
  //    their agreement beyond it is still checkable.
  const std::vector<PeerChainRecord>* reference = &ledger_chain;
  const char* reference_name = "ledger";
  for (const PeerChainView& view : peers) {
    if (view.records != nullptr && view.records->size() > reference->size()) {
      reference = view.records;
      reference_name = "peer";
    }
  }
  (void)reference_name;

  // 3. Every chain (ledger included) must be byte-identical to the
  //    reference at every height the two share. Crashed peers stop
  //    early — a shorter chain is fine, divergence is not.
  auto check_against_reference =
      [&](const char* who, const std::vector<PeerChainRecord>& chain) {
        size_t shared = std::min(chain.size(), reference->size());
        for (size_t i = 0; i < shared; ++i) {
          if (chain[i].content_hash != (*reference)[i].content_hash ||
              chain[i].chain_hash != (*reference)[i].chain_hash) {
            report.violations.push_back(StrFormat(
                "%s diverges from the reference chain at block %llu", who,
                static_cast<unsigned long long>(i + 1)));
            return;
          }
        }
      };
  check_against_reference("ledger", ledger_chain);
  for (const PeerChainView& view : peers) {
    if (view.records == nullptr) continue;
    CheckOneChain(StrFormat("peer %d", view.peer).c_str(), *view.records,
                  &report);
    check_against_reference(StrFormat("peer %d", view.peer).c_str(),
                            *view.records);
  }

  // 4. No client-acked transaction may be lost. The ack fires at
  //    quorum commit, so the transaction must reach the ledger —
  //    unless the recorded ledger itself stopped short of the
  //    reference chain (reference-peer crash), in which case ids
  //    beyond its head are unverifiable from here.
  if (acked_txs != nullptr && ledger_chain.size() == reference->size()) {
    for (TxId id : *acked_txs) {
      if (ledger_tx_ids.count(id) == 0) {
        report.violations.push_back(
            StrFormat("acked tx %llu never committed (lost across failover)",
                      static_cast<unsigned long long>(id)));
      }
    }
  }
  return report;
}

ChainIntegrityReport CheckChainIntegrity(const FabricNetwork& network) {
  // Every channel's chain is audited independently — a violation names
  // its channel. canonical_height/peers_checked keep their legacy
  // single-channel meaning (channel 0).
  ChainIntegrityReport combined;
  for (int c = 0; c < network.num_channels(); ++c) {
    std::vector<PeerChainView> views;
    views.reserve(network.peers().size());
    for (const auto& peer : network.peers()) {
      views.push_back(PeerChainView{peer->id(), &peer->chain_records(c)});
    }
    ChainIntegrityReport report =
        CheckChainRecords(network.ledger(c), views, &network.acked_txs(c));
    if (c == 0) {
      combined = std::move(report);
      continue;
    }
    for (std::string& violation : report.violations) {
      combined.violations.push_back(StrFormat("channel %d: ", c) + violation);
    }
  }
  return combined;
}

}  // namespace fabricsim
