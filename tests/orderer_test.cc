// Actor-level tests for the ordering service: cut triggers, timeout
// cancellation, streaming mode, delivery, and processor integration.
#include <gtest/gtest.h>

#include <memory>

#include "src/ordering/orderer.h"

namespace fabricsim {
namespace {

Transaction SimpleTx(TxId id) {
  Transaction tx;
  tx.id = id;
  tx.rwset.writes.push_back(WriteItem{"k" + std::to_string(id), "v", false});
  return tx;
}

class OrdererTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<Environment>(5);
    net_ = std::make_unique<Network>(NetworkConfig{}, Rng(5));
  }

  Orderer::Params BaseParams(uint32_t block_size) {
    Orderer::Params params;
    params.node = 0;
    params.env = env_.get();
    params.net = net_.get();
    params.cutter = BlockCutter::Config{block_size, 1 << 20};
    params.block_timeout = 2 * kSecond;
    params.timing = TimingConfig{};
    params.consensus = ConsensusModel(3, 4000);
    params.rng = Rng(5);
    params.peers.push_back(Orderer::Params::PeerEndpoint{
        1, [this](std::shared_ptr<const Block> block) {
          delivered_.push_back(std::move(block));
        }});
    return params;
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Network> net_;
  std::vector<std::shared_ptr<const Block>> delivered_;
};

TEST_F(OrdererTest, CutsAtBlockSize) {
  Orderer orderer(BaseParams(3));
  for (TxId id = 1; id <= 7; ++id) orderer.SubmitTransaction(SimpleTx(id));
  env_->RunUntil(1 * kSecond);  // before the 2 s timeout
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->txs.size(), 3u);
  EXPECT_EQ(delivered_[0]->number, 1u);
  EXPECT_EQ(delivered_[1]->number, 2u);
  EXPECT_EQ(delivered_[0]->cut_reason, BlockCutReason::kMaxCount);
  // The 7th transaction waits for the timeout.
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 3u);
  EXPECT_EQ(delivered_[2]->txs.size(), 1u);
  EXPECT_EQ(delivered_[2]->cut_reason, BlockCutReason::kTimeout);
}

TEST_F(OrdererTest, TimeoutCancelledByFullBlock) {
  Orderer orderer(BaseParams(2));
  orderer.SubmitTransaction(SimpleTx(1));
  orderer.SubmitTransaction(SimpleTx(2));  // cuts immediately
  env_->RunAll();
  // Only one block: the timeout for the first tx must not fire an
  // empty or duplicate cut.
  EXPECT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(orderer.blocks_cut(), 1u);
}

TEST_F(OrdererTest, OrderedTimeStamped) {
  Orderer orderer(BaseParams(1));
  orderer.SubmitTransaction(SimpleTx(1));
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_GT(delivered_[0]->txs[0].ordered_time, 0);
}

TEST_F(OrdererTest, StreamingCutsEveryTransaction) {
  Orderer::Params params = BaseParams(100);
  params.cutter.streaming = true;
  Orderer orderer(std::move(params));
  for (TxId id = 1; id <= 5; ++id) orderer.SubmitTransaction(SimpleTx(id));
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 5u);
  for (const auto& block : delivered_) {
    EXPECT_EQ(block->txs.size(), 1u);
    EXPECT_EQ(block->cut_reason, BlockCutReason::kStreaming);
  }
}

TEST_F(OrdererTest, DeliveryWaitsForConsensusLatency) {
  Orderer orderer(BaseParams(1));
  orderer.SubmitTransaction(SimpleTx(1));
  // Consensus adds >= 0.8 * 4 ms * (1 + 0.3): nothing delivered after
  // only 1 ms.
  env_->RunUntil(1 * kMillisecond);
  EXPECT_TRUE(delivered_.empty());
  env_->RunAll();
  EXPECT_EQ(delivered_.size(), 1u);
}

// Processor that rejects even transaction ids and drops the rest's
// block content at cut when asked.
class RejectEvenProcessor : public BlockProcessor {
 public:
  bool Admit(const Transaction& tx, TxValidationCode* code) override {
    if (tx.id % 2 == 0) {
      *code = TxValidationCode::kAbortedNotSerializable;
      return false;
    }
    return true;
  }
};

TEST_F(OrdererTest, ProcessorAdmissionRejects) {
  Orderer::Params params = BaseParams(2);
  RejectEvenProcessor processor;
  params.processor = &processor;
  std::vector<TxId> aborted_ids;
  params.on_early_abort = [&](const Transaction& tx, TxValidationCode code) {
    EXPECT_EQ(code, TxValidationCode::kAbortedNotSerializable);
    aborted_ids.push_back(tx.id);
  };
  Orderer orderer(std::move(params));
  for (TxId id = 1; id <= 4; ++id) orderer.SubmitTransaction(SimpleTx(id));
  env_->RunAll();
  EXPECT_EQ(aborted_ids, (std::vector<TxId>{2, 4}));
  EXPECT_EQ(orderer.txs_early_aborted(), 2u);
  ASSERT_EQ(delivered_.size(), 1u);  // odd ids 1 and 3 form one block
  EXPECT_EQ(delivered_[0]->txs.size(), 2u);
}

// Processor that drops every transaction at cut time.
class DropAllProcessor : public BlockProcessor {
 public:
  SimTime OnBlockCut(Block* block,
                     std::vector<EarlyAbort>* early_aborted) override {
    for (Transaction& tx : block->txs) {
      early_aborted->emplace_back(std::move(tx),
                                  TxValidationCode::kAbortedNotSerializable);
    }
    block->txs.clear();
    block->results.clear();
    return 0;
  }
};

TEST_F(OrdererTest, FullyAbortedBlockIsNotDelivered) {
  Orderer::Params params = BaseParams(2);
  DropAllProcessor processor;
  params.processor = &processor;
  Orderer orderer(std::move(params));
  orderer.SubmitTransaction(SimpleTx(1));
  orderer.SubmitTransaction(SimpleTx(2));
  // An undelivered cut must not consume a block number.
  env_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(orderer.txs_early_aborted(), 2u);
  EXPECT_EQ(orderer.blocks_cut(), 0u);

  Orderer::Params params2 = BaseParams(2);
  params2.processor = nullptr;
  Orderer orderer2(std::move(params2));
  orderer2.SubmitTransaction(SimpleTx(3));
  orderer2.SubmitTransaction(SimpleTx(4));
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->number, 1u);
}

// Processor that drops the whole content of its Nth cut (0-based) and
// passes every other block through — the all-aborted-in-the-middle
// shape a reordering/early-abort variant can produce under contention.
class DropNthCutProcessor : public BlockProcessor {
 public:
  explicit DropNthCutProcessor(int drop_index) : drop_index_(drop_index) {}

  SimTime OnBlockCut(Block* block,
                     std::vector<EarlyAbort>* early_aborted) override {
    if (cut_index_++ != drop_index_) return 0;
    for (Transaction& tx : block->txs) {
      early_aborted->emplace_back(std::move(tx),
                                  TxValidationCode::kAbortedNotSerializable);
    }
    block->txs.clear();
    block->results.clear();
    return 0;
  }

 private:
  int drop_index_;
  int cut_index_ = 0;
};

// Regression for the block-number-reuse bug: the orderer used to stamp
// the number before the all-aborted check and roll the counter back
// afterwards, so an aborted cut in mid-stream left a stamped-but-free
// number behind. Delivered numbers must stay dense and monotone with
// an all-aborted cut between two delivered ones.
TEST_F(OrdererTest, AllAbortedCutKeepsBlockNumbersDenseAndMonotone) {
  Orderer::Params params = BaseParams(2);
  DropNthCutProcessor processor(/*drop_index=*/1);
  params.processor = &processor;
  Orderer orderer(std::move(params));
  for (TxId id = 1; id <= 6; ++id) orderer.SubmitTransaction(SimpleTx(id));
  env_->RunAll();
  EXPECT_EQ(orderer.txs_early_aborted(), 2u);
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0]->number, 1u);
  EXPECT_EQ(delivered_[1]->number, 2u);
  EXPECT_EQ(orderer.blocks_cut(), 2u);
  // The surviving cuts carry the txs around the aborted batch.
  EXPECT_EQ(delivered_[0]->txs[0].id, 1u);
  EXPECT_EQ(delivered_[1]->txs[0].id, 5u);
}

// A pause that spans an armed batch timeout swallows the firing; the
// batched transaction must not wait forever, so Resume() re-arms and
// the cut lands one full block_timeout after the resume — never at the
// stale pre-pause deadline.
TEST_F(OrdererTest, PauseSwallowsArmedTimeoutAndResumeReArms) {
  Orderer orderer(BaseParams(10));
  orderer.SubmitTransaction(SimpleTx(1));  // arms the 2 s timeout
  env_->Schedule(1 * kSecond, [&]() { orderer.Pause(); },
                 ScheduleOpts{.absolute = true});
  env_->Schedule(3 * kSecond, [&]() { orderer.Resume(); },
                 ScheduleOpts{.absolute = true});
  // The original deadline (t = 2 s) falls inside the pause: nothing may
  // be delivered before the resume.
  env_->RunUntil(2900 * kMillisecond);
  EXPECT_TRUE(delivered_.empty());
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0]->cut_reason, BlockCutReason::kTimeout);
  // Re-armed at resume: cut at ~5 s, not the swallowed 2 s deadline.
  EXPECT_GE(delivered_[0]->cut_time, 5 * kSecond);
}

// Resume() before the armed timeout's deadline must not arm a second
// timer: the original deadline stays live and fires exactly once.
TEST_F(OrdererTest, ResumeBeforeDeadlineDoesNotDoubleArm) {
  Orderer orderer(BaseParams(10));
  orderer.SubmitTransaction(SimpleTx(1));  // arms the 2 s timeout
  env_->Schedule(500 * kMillisecond, [&]() { orderer.Pause(); },
                 ScheduleOpts{.absolute = true});
  env_->Schedule(1 * kSecond, [&]() { orderer.Resume(); },
                 ScheduleOpts{.absolute = true});
  env_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(orderer.blocks_cut(), 1u);
  EXPECT_EQ(delivered_[0]->cut_reason, BlockCutReason::kTimeout);
  // The pre-pause deadline held: ~2 s, not re-armed to 3 s.
  EXPECT_GE(delivered_[0]->cut_time, 2 * kSecond);
  EXPECT_LT(delivered_[0]->cut_time, 2 * kSecond + 500 * kMillisecond);
}

// Backlog flushed at Resume() fills a block and cuts by size; the
// pre-pause timeout generation is stale by then and must not fire a
// premature cut for the remainder.
TEST_F(OrdererTest, ResumeFlushCutCancelsStaleTimeoutGeneration) {
  Orderer orderer(BaseParams(2));
  orderer.SubmitTransaction(SimpleTx(1));  // arms the 2 s timeout
  env_->Schedule(1 * kSecond, [&]() { orderer.Pause(); },
                 ScheduleOpts{.absolute = true});
  env_->Schedule(
      1200 * kMillisecond,
      [&]() {
        orderer.SubmitTransaction(SimpleTx(2));  // deferred to the backlog
        orderer.SubmitTransaction(SimpleTx(3));
      },
      ScheduleOpts{.absolute = true});
  env_->Schedule(1500 * kMillisecond, [&]() { orderer.Resume(); },
                 ScheduleOpts{.absolute = true});
  env_->RunAll();
  EXPECT_EQ(orderer.txs_deferred_while_paused(), 2u);
  ASSERT_EQ(delivered_.size(), 2u);
  // Flush cuts {1, 2} by size just after the resume.
  EXPECT_EQ(delivered_[0]->cut_reason, BlockCutReason::kMaxCount);
  EXPECT_EQ(delivered_[0]->txs.size(), 2u);
  // Tx 3 waits for a fresh timeout armed at the size cut (~3.5 s). If
  // the stale pre-pause timer (deadline 2 s) fired, the cut would land
  // a good second earlier.
  EXPECT_EQ(delivered_[1]->cut_reason, BlockCutReason::kTimeout);
  EXPECT_EQ(delivered_[1]->txs[0].id, 3u);
  EXPECT_GE(delivered_[1]->cut_time, 3400 * kMillisecond);
}

TEST_F(OrdererTest, IngressCountsTransactions) {
  Orderer orderer(BaseParams(10));
  for (TxId id = 1; id <= 4; ++id) orderer.SubmitTransaction(SimpleTx(id));
  env_->RunAll();
  EXPECT_EQ(orderer.txs_received(), 4u);
}

}  // namespace
}  // namespace fabricsim
