// Chain-integrity checker unit tests over synthetic corruptions: the
// checker must catch diverging content, broken hash links, numbering
// gaps, double-committed transactions, rw-sets altered after sealing,
// and lost acked transactions —
// and must accept honest prefixes (crashed peers) and peers that ran
// ahead of a crashed reference peer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/ledger/block.h"
#include "src/ledger/block_store.h"

namespace fabricsim {
namespace {

Block MakeBlock(uint64_t number, std::vector<TxId> tx_ids) {
  Block block;
  block.number = number;
  for (TxId id : tx_ids) {
    Transaction tx;
    tx.id = id;
    block.txs.push_back(std::move(tx));
  }
  block.results.assign(block.txs.size(), TxValidationResult{});
  return block;
}

// A well-formed ledger of `n` blocks with one transaction each
// (tx id == block number) plus the matching peer chain records.
struct Fixture {
  BlockStore ledger;
  std::vector<PeerChainRecord> records;

  explicit Fixture(uint64_t n) {
    uint64_t prev = kChainHashSeed;
    for (uint64_t i = 1; i <= n; ++i) {
      Block block = MakeBlock(i, {static_cast<TxId>(i)});
      uint64_t content = BlockContentHash(block, block.results);
      uint64_t chain = MixChainHash(prev, content);
      records.push_back(PeerChainRecord{i, content, chain});
      prev = chain;
      EXPECT_TRUE(ledger.Append(std::move(block)).ok());
    }
  }
};

std::vector<PeerChainView> Views(const std::vector<PeerChainRecord>& a,
                                 const std::vector<PeerChainRecord>& b) {
  return {PeerChainView{0, &a}, PeerChainView{1, &b}};
}

TEST(InvariantsTest, CleanRunPasses) {
  Fixture f(5);
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, f.records), nullptr);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.canonical_height, 5u);
  EXPECT_EQ(report.peers_checked, 2);
}

TEST(InvariantsTest, HonestPrefixOfACrashedPeerPasses) {
  Fixture f(5);
  std::vector<PeerChainRecord> prefix(f.records.begin(),
                                      f.records.begin() + 3);
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, prefix), nullptr);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(InvariantsTest, DivergingContentHashIsCaught) {
  Fixture f(4);
  std::vector<PeerChainRecord> forged = f.records;
  forged[2].content_hash ^= 1;  // different block content at height 3
  forged[2].chain_hash = MixChainHash(forged[1].chain_hash,
                                      forged[2].content_hash);
  forged[3].chain_hash = MixChainHash(forged[2].chain_hash,
                                      forged[3].content_hash);
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, forged), nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("diverges"), std::string::npos)
      << report.Summary();
  EXPECT_NE(report.Summary().find("block 3"), std::string::npos);
}

TEST(InvariantsTest, BrokenHashLinkIsCaught) {
  Fixture f(4);
  std::vector<PeerChainRecord> broken = f.records;
  broken[1].chain_hash ^= 1;  // link no longer derives from block 1
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, broken), nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("chain hash broken"), std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, NumberingGapIsCaught) {
  Fixture f(4);
  std::vector<PeerChainRecord> gappy = f.records;
  gappy.erase(gappy.begin() + 1);  // peer skipped block 2
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, gappy), nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("not dense"), std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, DoubleCommittedTransactionIsCaught) {
  BlockStore ledger;
  ASSERT_TRUE(ledger.Append(MakeBlock(1, {10, 11})).ok());
  ASSERT_TRUE(ledger.Append(MakeBlock(2, {12, 10})).ok());  // tx 10 again
  ChainIntegrityReport report = CheckChainRecords(ledger, {}, nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("tx 10 committed twice"), std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, RwSetChangedAfterSealingIsCaught) {
  // Peers chain-hash the digest sealed at endorsement, so their chains
  // still agree with the ledger; only the audit's recomputation from
  // content notices the altered write.
  Block block = MakeBlock(1, {7});
  block.channel = 3;
  block.txs[0].rwset.writes.push_back(WriteItem{"k", "v", false});
  block.txs[0].rwset.Seal();
  uint64_t content = BlockContentHash(block, block.results);
  std::vector<PeerChainRecord> records = {
      PeerChainRecord{1, content, MixChainHash(kChainHashSeed, content)}};
  block.txs[0].rwset.writes[0].value = "forged";
  BlockStore ledger;
  ASSERT_TRUE(ledger.Append(std::move(block)).ok());
  ChainIntegrityReport report =
      CheckChainRecords(ledger, Views(records, records), nullptr);
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("channel 3 block 1 tx 7"), std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, LostAckedTransactionIsCaught) {
  Fixture f(3);  // commits tx ids 1..3
  std::vector<TxId> acked = {1, 2, 3, 99};  // 99 was acked, never committed
  ChainIntegrityReport report =
      CheckChainRecords(f.ledger, Views(f.records, f.records), &acked);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("acked tx 99 never committed"),
            std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, AckedCheckSkippedWhenLedgerIsBehindThePeers) {
  // Reference-peer crash: the recorded ledger stops at height 2 while
  // live peers carry 4 blocks. Acked ids beyond the ledger head are
  // unverifiable and must not raise false positives; the peers' longer
  // agreement is still audited.
  Fixture f(4);
  BlockStore short_ledger;
  ASSERT_TRUE(short_ledger.Append(MakeBlock(1, {1})).ok());
  ASSERT_TRUE(short_ledger.Append(MakeBlock(2, {2})).ok());
  std::vector<TxId> acked = {1, 2, 3, 4};
  ChainIntegrityReport report =
      CheckChainRecords(short_ledger, Views(f.records, f.records), &acked);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace fabricsim
