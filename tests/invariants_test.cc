// Chain-integrity audit unit tests over synthetic corruptions fed
// through one channel's commit record: the audit must catch a block
// that repeats a committed transaction id, an rw-set altered after
// sealing, a delivery that differs from the recorded block, and a lost
// acked transaction — and must accept a clean chain, the honest prefix
// of a crashed peer, and acked ids only peers past the reference peer
// committed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/ledger/block.h"
#include "src/statedb/channel_state.h"

namespace fabricsim {
namespace {

std::shared_ptr<const Block> MakeBlock(uint64_t number,
                                       std::vector<TxId> tx_ids) {
  auto block = std::make_shared<Block>();
  block->number = number;
  for (TxId id : tx_ids) {
    Transaction tx;
    tx.id = id;
    block->txs.push_back(std::move(tx));
  }
  return block;
}

// Validates and commits `block` for `reader` the way a peer does, and
// returns the block's link in the channel's hash chain.
PeerChainRecord CommitAs(ChannelState& state, StateView* reader,
                         const std::shared_ptr<const Block>& block) {
  EXPECT_NE(state.Validate(reader, block,
                           [&](const StateDatabase&) {
                             ValidationOutcome outcome;
                             outcome.results.resize(block->txs.size());
                             return outcome;
                           }),
            nullptr);
  Result<PeerChainRecord> link = state.Commit(reader, block);
  EXPECT_TRUE(link.ok()) << link.status().ToString();
  return link.ok() ? link.value() : PeerChainRecord{};
}

// A channel of `n` blocks with one transaction each (tx id == block
// number), and the hash chain they must produce.
struct Fixture {
  ChannelState state;
  std::vector<std::shared_ptr<const Block>> blocks;
  std::vector<PeerChainRecord> chain;

  explicit Fixture(uint64_t n) {
    uint64_t prev = kChainHashSeed;
    for (uint64_t i = 1; i <= n; ++i) {
      blocks.push_back(MakeBlock(i, {static_cast<TxId>(i)}));
      uint64_t content = BlockContentHash(
          *blocks.back(), std::vector<TxValidationResult>(1));
      prev = MixChainHash(prev, content);
      chain.push_back(PeerChainRecord{i, content, prev});
    }
  }

  // Commits blocks 1..height for `reader`, returning its links.
  std::vector<PeerChainRecord> CommitUpTo(StateView* reader,
                                          uint64_t height) {
    std::vector<PeerChainRecord> links;
    for (uint64_t b = reader->height() + 1; b <= height; ++b) {
      links.push_back(CommitAs(state, reader, blocks[b - 1]));
    }
    return links;
  }
};

void ExpectSameChain(const std::vector<PeerChainRecord>& got,
                     const std::vector<PeerChainRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].number, want[i].number);
    EXPECT_EQ(got[i].content_hash, want[i].content_hash) << "block " << i + 1;
    EXPECT_EQ(got[i].chain_hash, want[i].chain_hash) << "block " << i + 1;
  }
}

TEST(InvariantsTest, CleanRunPasses) {
  Fixture f(5);
  StateView* a = f.state.AddReader();
  StateView* b = f.state.AddReader();
  std::vector<PeerChainRecord> links_a = f.CommitUpTo(a, 5);
  std::vector<PeerChainRecord> links_b = f.CommitUpTo(b, 5);
  ChainIntegrityReport report = CheckChannel(f.state, {});
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(f.state.height(), 5u);
  // Both peers copy the one chain the record hashed.
  ExpectSameChain(links_a, f.chain);
  ExpectSameChain(links_b, f.chain);
}

TEST(InvariantsTest, HonestPrefixOfACrashedPeerPasses) {
  Fixture f(5);
  StateView* live = f.state.AddReader();
  StateView* crashed = f.state.AddReader();
  std::vector<PeerChainRecord> prefix = f.CommitUpTo(crashed, 3);
  f.CommitUpTo(live, 5);
  ChainIntegrityReport report = CheckChannel(f.state, {});
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectSameChain(prefix, std::vector<PeerChainRecord>(f.chain.begin(),
                                                       f.chain.begin() + 3));
  // The crashed peer pins the records above its height: its catch-up
  // replays the recorded blocks themselves.
  EXPECT_EQ(f.state.undo_records(), 2u);
  EXPECT_EQ(f.state.block(3), nullptr);
  EXPECT_EQ(f.state.block(4), f.blocks[3]);
  EXPECT_EQ(f.state.block(5), f.blocks[4]);
  ExpectSameChain(f.CommitUpTo(crashed, 5),
                  std::vector<PeerChainRecord>(f.chain.begin() + 3,
                                               f.chain.end()));
  EXPECT_TRUE(CheckChannel(f.state, {}).ok());
}

TEST(InvariantsTest, DivergingContentHashIsCaught) {
  Fixture f(4);
  StateView* a = f.state.AddReader();
  StateView* b = f.state.AddReader();
  f.CommitUpTo(a, 4);
  f.CommitUpTo(b, 2);
  // Peer b is handed a different block 3 than the one recorded.
  CommitAs(f.state, b, MakeBlock(3, {30}));
  f.CommitUpTo(b, 4);
  ChainIntegrityReport report = CheckChannel(f.state, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("diverges"), std::string::npos)
      << report.Summary();
  EXPECT_NE(report.Summary().find("block 3"), std::string::npos);
  // A copy of the recorded block is the recorded block.
  Fixture g(2);
  StateView* c = g.state.AddReader();
  StateView* d = g.state.AddReader();
  g.CommitUpTo(c, 2);
  CommitAs(g.state, d, std::make_shared<const Block>(*g.blocks[0]));
  CommitAs(g.state, d, g.blocks[1]);
  EXPECT_TRUE(CheckChannel(g.state, {}).ok());
}

TEST(InvariantsTest, DoubleCommittedTransactionIsCaught) {
  ChannelState state;
  StateView* reader = state.AddReader();
  CommitAs(state, reader, MakeBlock(1, {10, 11}));
  CommitAs(state, reader, MakeBlock(2, {12, 10}));  // tx 10 again
  ChainIntegrityReport report = CheckChannel(state, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("tx 10 committed twice (second time in "
                                  "block 2)"),
            std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, RwSetChangedAfterSealingIsCaught) {
  // The chain hash mixes the digest sealed at endorsement, so only the
  // audit's recomputation from content notices the altered write.
  auto block = std::make_shared<Block>();
  block->number = 1;
  block->channel = 3;
  Transaction tx;
  tx.id = 7;
  tx.rwset.writes.push_back(WriteItem{"k", "v", false});
  tx.rwset.Seal();
  tx.rwset.writes[0].value = "forged";
  block->txs.push_back(std::move(tx));
  ChannelState state;
  CommitAs(state, state.AddReader(), block);
  ChainIntegrityReport report = CheckChannel(state, {});
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("channel 3 block 1 tx 7"), std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, LostAckedTransactionIsCaught) {
  Fixture f(3);  // commits tx ids 1..3
  f.CommitUpTo(f.state.AddReader(), 3);
  // 99 was acked, never committed.
  ChainIntegrityReport report = CheckChannel(f.state, {1, 2, 3, 99});
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("acked tx 99 never committed"),
            std::string::npos)
      << report.Summary();
}

TEST(InvariantsTest, AckedCheckCoversBlocksPastTheReferencePeer) {
  // Reference-peer crash: the peer whose commits feed the report stops
  // at height 2 while another carries 4 blocks. Every committed id
  // counts, whichever peer committed it first, so acked ids past the
  // reference's height are still checked.
  Fixture f(4);
  StateView* reference = f.state.AddReader();
  StateView* survivor = f.state.AddReader();
  f.CommitUpTo(reference, 2);
  f.CommitUpTo(survivor, 4);
  EXPECT_TRUE(CheckChannel(f.state, {1, 2, 3, 4}).ok());
  ChainIntegrityReport report = CheckChannel(f.state, {1, 2, 3, 4, 5});
  ASSERT_EQ(report.violations.size(), 1u) << report.Summary();
  EXPECT_NE(report.Summary().find("acked tx 5 never committed"),
            std::string::npos)
      << report.Summary();
}

}  // namespace
}  // namespace fabricsim
