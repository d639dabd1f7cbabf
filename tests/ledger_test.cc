#include <gtest/gtest.h>

#include <utility>

#include "src/ledger/block_store.h"
#include "src/ledger/ledger_parser.h"
#include "src/ledger/ledger_stats.h"
#include "src/ledger/rwset.h"
#include "src/ledger/transaction.h"
#include "src/ledger/version.h"

namespace fabricsim {
namespace {

// ---------------------------------------------------------- Version

TEST(VersionTest, Ordering) {
  Version a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (Version{1, 0}));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "v1.0");
}

// ------------------------------------------------------------ RwSet

TEST(RwSetTest, DigestStableAndOrderSensitive) {
  ReadWriteSet a;
  a.reads.push_back(ReadItem{"k1", {1, 0}, true});
  a.reads.push_back(ReadItem{"k2", {1, 1}, true});
  ReadWriteSet b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  std::swap(b.reads[0], b.reads[1]);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestSensitiveToVersions) {
  ReadWriteSet a, b;
  a.reads.push_back(ReadItem{"k", {1, 0}, true});
  b.reads.push_back(ReadItem{"k", {2, 0}, true});
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestSensitiveToFoundFlag) {
  ReadWriteSet a, b;
  a.reads.push_back(ReadItem{"k", {0, 0}, true});
  b.reads.push_back(ReadItem{"k", {0, 0}, false});
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(RwSetTest, DigestCoversWritesAndRanges) {
  ReadWriteSet a;
  a.writes.push_back(WriteItem{"k", "v", false});
  ReadWriteSet b = a;
  b.writes[0].is_delete = true;
  EXPECT_NE(a.Digest(), b.Digest());

  ReadWriteSet c = a;
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.reads.push_back(ReadItem{"m", {3, 1}, true});
  c.range_queries.push_back(rq);
  EXPECT_NE(a.Digest(), c.Digest());
}

TEST(RwSetTest, DigestSeparatesAdjacentStrings) {
  // Moving a boundary between two adjacent strings must change the
  // digest: each string is hashed with its length.
  ReadWriteSet ab_c, a_bc;
  ab_c.writes.push_back(WriteItem{"ab", "c", false});
  a_bc.writes.push_back(WriteItem{"a", "bc", false});
  EXPECT_NE(ab_c.Digest(), a_bc.Digest());

  ReadWriteSet k1_k9, k_1k9;
  RangeQueryInfo rq;
  rq.start_key = "k1";
  rq.end_key = "k9";
  k1_k9.range_queries.push_back(rq);
  rq.start_key = "k";
  rq.end_key = "1k9";
  k_1k9.range_queries.push_back(rq);
  EXPECT_NE(k1_k9.Digest(), k_1k9.Digest());
}

TEST(RwSetTest, ReadOnlyAndCounts) {
  ReadWriteSet s;
  s.reads.push_back(ReadItem{"k", {0, 0}, true});
  EXPECT_TRUE(s.IsReadOnly());
  RangeQueryInfo rq;
  rq.reads.push_back(ReadItem{"a", {0, 0}, true});
  rq.reads.push_back(ReadItem{"b", {0, 0}, true});
  s.range_queries.push_back(rq);
  EXPECT_EQ(s.TotalReadCount(), 3u);
  s.writes.push_back(WriteItem{"k", "v", false});
  EXPECT_FALSE(s.IsReadOnly());
  EXPECT_GT(s.ByteSize(), 0u);
}

// ------------------------------------------------------- RwSet seal

ReadWriteSet SampleRwset() {
  ReadWriteSet s;
  s.reads.push_back(ReadItem{"k", {1, 2}, true});
  s.writes.push_back(WriteItem{"k", "v", false});
  RangeQueryInfo rq;
  rq.start_key = "a";
  rq.end_key = "z";
  rq.reads.push_back(ReadItem{"m", {3, 1}, true});
  s.range_queries.push_back(rq);
  return s;
}

TEST(RwSetSealTest, CopyKeepsTheSeal) {
  ReadWriteSet s = SampleRwset();
  s.Seal();
  ReadWriteSet copy = s;
  EXPECT_TRUE(copy.sealed());
  EXPECT_EQ(copy.Digest(), s.Digest());
  EXPECT_EQ(copy.ByteSize(), s.ByteSize());
  ReadWriteSet assigned;
  assigned = s;
  EXPECT_TRUE(assigned.sealed());
  EXPECT_EQ(assigned.Digest(), s.Digest());
}

TEST(RwSetSealTest, MovedFromSetDropsThePreMoveDigest) {
  ReadWriteSet s = SampleRwset();
  s.Seal();
  const uint64_t digest = s.Digest();
  ReadWriteSet moved = std::move(s);
  EXPECT_TRUE(moved.sealed());
  EXPECT_EQ(moved.Digest(), digest);
  EXPECT_FALSE(s.sealed());
  EXPECT_NE(s.Digest(), digest);

  ReadWriteSet source = SampleRwset();
  source.Seal();
  ReadWriteSet target;
  target = std::move(source);
  EXPECT_EQ(target.Digest(), digest);
  EXPECT_FALSE(source.sealed());
  EXPECT_NE(source.Digest(), digest);
}

TEST(RwSetSealTest, NeverSealedSetComputesOnDemand) {
  ReadWriteSet s;
  const uint64_t empty_digest = s.Digest();
  const uint64_t empty_bytes = s.ByteSize();
  s.writes.push_back(WriteItem{"k", "v", false});
  EXPECT_FALSE(s.sealed());
  EXPECT_NE(s.Digest(), empty_digest);
  EXPECT_GT(s.ByteSize(), empty_bytes);
  EXPECT_EQ(s.Digest(), s.ComputeDigest());
  EXPECT_EQ(s.ByteSize(), s.ComputeByteSize());
}

// ------------------------------------------------------- BlockStore

Block MakeBlock(uint64_t number, std::vector<TxValidationCode> codes) {
  Block block;
  block.number = number;
  for (size_t i = 0; i < codes.size(); ++i) {
    Transaction tx;
    tx.id = number * 100 + i;
    tx.client_submit_time = 10;
    tx.committed_time = 110;
    block.txs.push_back(tx);
    TxValidationResult result;
    result.code = codes[i];
    if (codes[i] == TxValidationCode::kMvccReadConflict) {
      result.mvcc_class = i % 2 == 0 ? MvccClass::kIntraBlock
                                     : MvccClass::kInterBlock;
    }
    block.results.push_back(result);
  }
  return block;
}

TEST(BlockStoreTest, AppendsContiguously) {
  BlockStore store;
  EXPECT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  EXPECT_TRUE(store.Append(MakeBlock(2, {TxValidationCode::kValid})).ok());
  EXPECT_EQ(store.height(), 2u);
  EXPECT_EQ(store.TotalTransactions(), 2u);
}

TEST(BlockStoreTest, RejectsGaps) {
  BlockStore store;
  Status st = store.Append(MakeBlock(2, {TxValidationCode::kValid}));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(BlockStoreTest, RejectsMismatchedResults) {
  BlockStore store;
  Block block = MakeBlock(1, {TxValidationCode::kValid});
  block.results.clear();
  EXPECT_EQ(store.Append(std::move(block)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockStoreTest, GetBlockBounds) {
  BlockStore store;
  ASSERT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  EXPECT_NE(store.GetBlock(1), nullptr);
  EXPECT_EQ(store.GetBlock(0), nullptr);
  EXPECT_EQ(store.GetBlock(2), nullptr);
}

// ----------------------------------------------------- LedgerParser

TEST(LedgerParserTest, SummarizesFailureTypes) {
  // LedgerSummary::Count classifies each verdict; the commit-time fold
  // applies it to the aggregate and to the block's channel slot.
  StreamingLedgerStats stats(1);
  const Block block =
      MakeBlock(1, {TxValidationCode::kValid,
                    TxValidationCode::kEndorsementPolicyFailure,
                    TxValidationCode::kMvccReadConflict,  // intra (i=2)
                    TxValidationCode::kMvccReadConflict,  // inter (i=3)
                    TxValidationCode::kPhantomReadConflict,
                    TxValidationCode::kAbortedByReordering});
  stats.OnBlockCommitted(0, block, block.results, 110);
  for (const LedgerSummary* summary :
       {&stats.summary(), &stats.channel_summary(0)}) {
    EXPECT_EQ(summary->total, 6u);
    EXPECT_EQ(summary->valid, 1u);
    EXPECT_EQ(summary->endorsement_policy_failures, 1u);
    EXPECT_EQ(summary->mvcc_intra_block, 1u);
    EXPECT_EQ(summary->mvcc_inter_block, 1u);
    EXPECT_EQ(summary->mvcc_total(), 2u);
    EXPECT_EQ(summary->phantom_read_conflicts, 1u);
    EXPECT_EQ(summary->reordering_aborts, 1u);
    EXPECT_EQ(summary->failed(), 5u);
  }
}

TEST(LedgerParserTest, RecordsCarryLatency) {
  BlockStore store;
  ASSERT_TRUE(store.Append(MakeBlock(1, {TxValidationCode::kValid})).ok());
  std::vector<TxRecord> records = LedgerParser::Parse(store);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].TotalLatency(), 100);
  EXPECT_EQ(records[0].block_number, 1u);
  EXPECT_EQ(records[0].tx_index, 0u);
}

TEST(TxValidationCodeTest, Names) {
  EXPECT_STREQ(TxValidationCodeToString(TxValidationCode::kValid), "VALID");
  EXPECT_STREQ(
      TxValidationCodeToString(TxValidationCode::kMvccReadConflict),
      "MVCC_READ_CONFLICT");
  EXPECT_STREQ(
      TxValidationCodeToString(TxValidationCode::kAbortedNotSerializable),
      "ABORTED_NOT_SERIALIZABLE");
}

}  // namespace
}  // namespace fabricsim
