#include <gtest/gtest.h>

#include "src/ordering/block_cutter.h"
#include "src/ordering/consensus.h"

namespace fabricsim {
namespace {

Transaction SmallTx(TxId id) {
  Transaction tx;
  tx.id = id;
  tx.rwset.writes.push_back(WriteItem{"key", "value", false});
  return tx;
}

TEST(BlockCutterTest, CutsAtMaxCount) {
  BlockCutter cutter(BlockCutter::Config{3, 1 << 20});
  EXPECT_TRUE(cutter.AddTransaction(SmallTx(1)).empty());
  EXPECT_TRUE(cutter.AddTransaction(SmallTx(2)).empty());
  auto batches = cutter.AddTransaction(SmallTx(3));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].txs.size(), 3u);
  EXPECT_EQ(batches[0].reason, BlockCutReason::kMaxCount);
  EXPECT_FALSE(cutter.HasPending());
}

TEST(BlockCutterTest, TimeoutCutTakesPending) {
  BlockCutter cutter(BlockCutter::Config{100, 1 << 20});
  cutter.AddTransaction(SmallTx(1));
  cutter.AddTransaction(SmallTx(2));
  EXPECT_EQ(cutter.pending_count(), 2u);
  auto batch = cutter.CutPending();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(cutter.HasPending());
  EXPECT_TRUE(cutter.CutPending().empty());
}

TEST(BlockCutterTest, CutsAtMaxBytes) {
  uint64_t tx_bytes = SmallTx(1).ByteSize();
  BlockCutter cutter(
      BlockCutter::Config{1000, tx_bytes * 3 + tx_bytes / 2});
  cutter.AddTransaction(SmallTx(1));
  cutter.AddTransaction(SmallTx(2));
  cutter.AddTransaction(SmallTx(3));
  // The 4th transaction would exceed the byte limit: the pending three
  // go out first.
  auto batches = cutter.AddTransaction(SmallTx(4));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].txs.size(), 3u);
  EXPECT_EQ(batches[0].reason, BlockCutReason::kMaxBytes);
  EXPECT_EQ(cutter.pending_count(), 1u);
}

TEST(BlockCutterTest, OversizedTxGoesAlone) {
  Transaction big;
  big.id = 99;
  for (int i = 0; i < 100; ++i) {
    big.rwset.writes.push_back(
        WriteItem{"key" + std::to_string(i), std::string(100, 'x'), false});
  }
  BlockCutter cutter(BlockCutter::Config{1000, 512});
  cutter.AddTransaction(SmallTx(1));
  auto batches = cutter.AddTransaction(std::move(big));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].txs.size(), 1u);  // flushed pending
  EXPECT_EQ(batches[1].txs.size(), 1u);  // the oversized one alone
  EXPECT_EQ(batches[1].txs[0].id, 99u);
}

TEST(BlockCutterTest, StreamingCutsEveryTransactionAlone) {
  BlockCutter cutter(BlockCutter::Config{100, 1 << 20, /*streaming=*/true});
  for (TxId id = 1; id <= 3; ++id) {
    auto batches = cutter.AddTransaction(SmallTx(id));
    ASSERT_EQ(batches.size(), 1u);
    ASSERT_EQ(batches[0].txs.size(), 1u);
    EXPECT_EQ(batches[0].txs[0].id, id);
    EXPECT_EQ(batches[0].reason, BlockCutReason::kStreaming);
    EXPECT_FALSE(cutter.HasPending());  // no timeout is ever needed
  }
}

TEST(BlockCutterTest, PendingBytesTracked) {
  BlockCutter cutter(BlockCutter::Config{100, 1 << 20});
  EXPECT_EQ(cutter.pending_bytes(), 0u);
  Transaction tx = SmallTx(1);
  uint64_t bytes = tx.ByteSize();
  cutter.AddTransaction(std::move(tx));
  EXPECT_EQ(cutter.pending_bytes(), bytes);
}

TEST(ConsensusModelTest, LatencyScalesWithReplicas) {
  Rng rng(3);
  ConsensusModel small(1, 4000), large(9, 4000);
  double sum_small = 0, sum_large = 0;
  for (int i = 0; i < 1000; ++i) {
    sum_small += static_cast<double>(small.SampleLatency(rng));
    sum_large += static_cast<double>(large.SampleLatency(rng));
  }
  EXPECT_GT(sum_large, sum_small);
}

TEST(ConsensusModelTest, JitterWithinBand) {
  Rng rng(5);
  ConsensusModel model(3, 4000);
  for (int i = 0; i < 1000; ++i) {
    SimTime latency = model.SampleLatency(rng);
    EXPECT_GE(latency, 4000 * 0.8 * 1.0);
    EXPECT_LE(latency, 4000 * 1.2 * 1.4);
  }
}

}  // namespace
}  // namespace fabricsim
