#include <gtest/gtest.h>

#include "src/peer/committer.h"
#include "src/peer/validator.h"
#include "src/policy/policy_presets.h"
#include "src/statedb/memory_state_db.h"

namespace fabricsim {
namespace {

// Two-org P0 policy: both orgs must endorse.
EndorsementPolicy TwoOrgPolicy() {
  return MakePolicy(PolicyPreset::kP0AllOrgs, 2);
}

// Builds a transaction with consistent endorsements from both orgs.
Transaction MakeTx(TxId id, ReadWriteSet rwset) {
  Transaction tx;
  tx.id = id;
  tx.rwset = std::move(rwset);
  uint64_t digest = tx.rwset.Digest();
  tx.endorsements.push_back(Endorsement{0, 0, digest, true});
  tx.endorsements.push_back(Endorsement{1, 1, digest, true});
  return tx;
}

ReadWriteSet ReadWrite(const std::string& read_key, Version read_version,
                       const std::string& write_key) {
  ReadWriteSet rwset;
  rwset.reads.push_back(ReadItem{read_key, read_version, true});
  rwset.writes.push_back(WriteItem{write_key, "new", false});
  return rwset;
}

class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.ApplyWrite(WriteItem{"a", "va", false}, {0, 0});
    db_.ApplyWrite(WriteItem{"b", "vb", false}, {0, 0});
    db_.ApplyWrite(WriteItem{"c", "vc", false}, {0, 0});
  }

  Block MakeBlock(std::vector<Transaction> txs) {
    Block block;
    block.number = 1;
    block.txs = std::move(txs);
    block.results.assign(block.txs.size(), TxValidationResult{});
    return block;
  }

  MemoryStateDb db_;
  Validator validator_{TwoOrgPolicy()};
};

TEST_F(ValidatorTest, ValidTransactionCommits) {
  Block block = MakeBlock({MakeTx(1, ReadWrite("a", {0, 0}, "a"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
  EXPECT_EQ(outcome.valid_count, 1u);
  ASSERT_EQ(outcome.state_updates.size(), 1u);
  EXPECT_EQ(outcome.state_updates[0].second, (Version{1, 0}));
}

TEST_F(ValidatorTest, EndorsementPolicyFailureOnDigestMismatch) {
  // Org1's endorsement signed a different rw-set (divergent world
  // state): policy P0 can no longer be satisfied.
  Transaction tx = MakeTx(1, ReadWrite("a", {0, 0}, "a"));
  tx.endorsements[1].rwset_digest ^= 0xdead;
  Block block = MakeBlock({tx});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code,
            TxValidationCode::kEndorsementPolicyFailure);
  EXPECT_TRUE(outcome.state_updates.empty());
}

TEST_F(ValidatorTest, QuorumPolicyToleratesOneMismatch) {
  Validator quorum(MakePolicy(PolicyPreset::kP3Quorum, 3));  // needs 2 of 3
  Transaction tx;
  tx.id = 1;
  tx.rwset = ReadWrite("a", {0, 0}, "a");
  uint64_t digest = tx.rwset.Digest();
  tx.endorsements = {Endorsement{0, 0, digest, true},
                     Endorsement{1, 1, digest, true},
                     Endorsement{2, 2, digest ^ 1, true}};  // stale org
  Block block = MakeBlock({tx});
  ValidationOutcome outcome = quorum.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
}

TEST_F(ValidatorTest, InvalidSignatureDoesNotCount) {
  Transaction tx = MakeTx(1, ReadWrite("a", {0, 0}, "a"));
  tx.endorsements[0].signature_valid = false;
  Block block = MakeBlock({tx});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code,
            TxValidationCode::kEndorsementPolicyFailure);
}

TEST_F(ValidatorTest, InterBlockMvccConflict) {
  // The read version predates the current world state.
  db_.ApplyWrite(WriteItem{"a", "newer", false}, {5, 2});
  Block block = MakeBlock({MakeTx(1, ReadWrite("a", {0, 0}, "a"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kMvccReadConflict);
  EXPECT_EQ(outcome.results[0].mvcc_class, MvccClass::kInterBlock);
}

TEST_F(ValidatorTest, IntraBlockMvccConflict) {
  // Tx1 writes "a"; tx2 read "a" at the pre-block version — the
  // in-block write invalidates it (paper Eq. 3).
  Block block = MakeBlock({MakeTx(1, ReadWrite("b", {0, 0}, "a")),
                           MakeTx(2, ReadWrite("a", {0, 0}, "c"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kMvccReadConflict);
  EXPECT_EQ(outcome.results[1].mvcc_class, MvccClass::kIntraBlock);
  EXPECT_EQ(outcome.results[1].conflicting_tx, 1u);
}

TEST_F(ValidatorTest, FailedTxDoesNotPoisonLaterReads) {
  // Tx1 fails (stale read) so its write must NOT invalidate tx2.
  db_.ApplyWrite(WriteItem{"b", "newer", false}, {7, 0});
  Block block = MakeBlock({MakeTx(1, ReadWrite("b", {0, 0}, "a")),
                           MakeTx(2, ReadWrite("a", {0, 0}, "c"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kMvccReadConflict);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kValid);
}

TEST_F(ValidatorTest, ReadOfDeletedKeyFails) {
  ReadWriteSet deleter;
  deleter.writes.push_back(WriteItem{"a", "", true});
  ReadWriteSet reader;
  reader.reads.push_back(ReadItem{"a", {0, 0}, true});
  Block block = MakeBlock({MakeTx(1, deleter), MakeTx(2, reader)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kMvccReadConflict);
  EXPECT_EQ(outcome.results[1].mvcc_class, MvccClass::kIntraBlock);
}

TEST_F(ValidatorTest, ReadOfMissingKeyValidWhileStillMissing) {
  ReadWriteSet rwset;
  rwset.reads.push_back(ReadItem{"ghost", {}, false});
  Block block = MakeBlock({MakeTx(1, rwset)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
}

TEST_F(ValidatorTest, ReadOfMissingKeyFailsOnceCreated) {
  ReadWriteSet creator;
  creator.writes.push_back(WriteItem{"ghost", "now-exists", false});
  ReadWriteSet reader;
  reader.reads.push_back(ReadItem{"ghost", {}, false});
  Block block = MakeBlock({MakeTx(1, creator), MakeTx(2, reader)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kMvccReadConflict);
}

// ----------------------------------------------------- Phantom reads

ReadWriteSet RangeRead(const StateDatabase& db, const std::string& start,
                       const std::string& end) {
  ReadWriteSet rwset;
  RangeQueryInfo rq;
  rq.start_key = start;
  rq.end_key = end;
  for (const StateEntry& e : db.GetRange(start, end)) {
    rq.reads.push_back(ReadItem{e.key, e.vv.version, true});
  }
  rwset.range_queries.push_back(rq);
  return rwset;
}

TEST_F(ValidatorTest, PhantomInsertDetected) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  ReadWriteSet inserter;
  inserter.writes.push_back(WriteItem{"bb", "phantom", false});
  Block block = MakeBlock({MakeTx(1, inserter), MakeTx(2, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kPhantomReadConflict);
}

TEST_F(ValidatorTest, PhantomDeleteDetected) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  ReadWriteSet deleter;
  deleter.writes.push_back(WriteItem{"b", "", true});
  Block block = MakeBlock({MakeTx(1, deleter), MakeTx(2, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kPhantomReadConflict);
}

TEST_F(ValidatorTest, PhantomUpdateDetected) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  ReadWriteSet updater;
  updater.writes.push_back(WriteItem{"b", "changed", false});
  Block block = MakeBlock({MakeTx(1, updater), MakeTx(2, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kPhantomReadConflict);
}

TEST_F(ValidatorTest, WriteOutsideRangeDoesNotPhantom) {
  ReadWriteSet scan = RangeRead(db_, "a", "c");  // covers a, b
  ReadWriteSet writer;
  writer.writes.push_back(WriteItem{"c", "outside", false});
  Block block = MakeBlock({MakeTx(1, writer), MakeTx(2, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kValid);
}

TEST_F(ValidatorTest, RichQueryNotPhantomChecked) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  scan.range_queries[0].phantom_check = false;  // rich query
  ReadWriteSet updater;
  updater.writes.push_back(WriteItem{"b", "changed", false});
  Block block = MakeBlock({MakeTx(1, updater), MakeTx(2, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kValid);
}

TEST_F(ValidatorTest, InterBlockPhantom) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  db_.ApplyWrite(WriteItem{"ab", "inserted-later", false}, {9, 0});
  Block block = MakeBlock({MakeTx(1, scan)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kPhantomReadConflict);
}

// Phantom attribution: the first endorsed read (in key order) that
// vanished or changed version; else the first key that appeared.

TEST_F(ValidatorTest, PhantomVanishedReadAttributed) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  db_.ApplyWrite(WriteItem{"b", "", true}, {3, 0});
  Block block = MakeBlock({MakeTx(1, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[0];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "b");
  EXPECT_TRUE(r.read_found);
  EXPECT_EQ(r.read_version, (Version{0, 0}));
  EXPECT_FALSE(r.observed_found);
}

TEST_F(ValidatorTest, PhantomChangedVersionAttributed) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  db_.ApplyWrite(WriteItem{"c", "newer", false}, {4, 1});
  Block block = MakeBlock({MakeTx(1, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[0];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "c");
  EXPECT_TRUE(r.read_found);
  EXPECT_EQ(r.read_version, (Version{0, 0}));
  EXPECT_TRUE(r.observed_found);
  EXPECT_EQ(r.observed_version, (Version{4, 1}));
}

TEST_F(ValidatorTest, PhantomVanishedReadOutranksEarlierNewKey) {
  // "ab" appears before "c" vanishes in key order; the endorsed read
  // still names the conflict.
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  db_.ApplyWrite(WriteItem{"ab", "new", false}, {5, 0});
  db_.ApplyWrite(WriteItem{"c", "", true}, {5, 1});
  Block block = MakeBlock({MakeTx(1, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[0];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "c");
  EXPECT_TRUE(r.read_found);
  EXPECT_FALSE(r.observed_found);
}

TEST_F(ValidatorTest, PhantomOverlayDeleteAttributed) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  ReadWriteSet deleter;
  deleter.writes.push_back(WriteItem{"a", "", true});
  Block block = MakeBlock({MakeTx(1, deleter), MakeTx(2, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[1];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "a");
  EXPECT_TRUE(r.read_found);
  EXPECT_EQ(r.read_version, (Version{0, 0}));
  EXPECT_FALSE(r.observed_found);
}

TEST_F(ValidatorTest, PhantomOverlayInsertAttributed) {
  ReadWriteSet scan = RangeRead(db_, "a", "d");
  ReadWriteSet inserter;
  inserter.writes.push_back(WriteItem{"bb", "phantom", false});
  inserter.writes.push_back(WriteItem{"ba", "phantom", false});
  Block block = MakeBlock({MakeTx(1, inserter), MakeTx(2, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[1];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "ba");  // the first new key in key order
  EXPECT_FALSE(r.read_found);
  EXPECT_TRUE(r.observed_found);
  EXPECT_EQ(r.observed_version, (Version{1, 0}));
}

TEST_F(ValidatorTest, PhantomEmptyRange) {
  ReadWriteSet scan = RangeRead(db_, "x", "y");
  ASSERT_TRUE(scan.range_queries[0].reads.empty());
  ReadWriteSet outside;
  outside.writes.push_back(WriteItem{"b", "changed", false});
  Block block = MakeBlock({MakeTx(1, outside), MakeTx(2, scan)});
  EXPECT_EQ(validator_.ValidateBlock(db_, block).results[1].code,
            TxValidationCode::kValid);

  ReadWriteSet inside;
  inside.writes.push_back(WriteItem{"xa", "new", false});
  block = MakeBlock({MakeTx(1, inside), MakeTx(2, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[1];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "xa");
  EXPECT_EQ(r.observed_version, (Version{1, 0}));
}

TEST_F(ValidatorTest, PhantomOpenEndKey) {
  // An empty end key scans to the end of the key space.
  ReadWriteSet scan = RangeRead(db_, "b", "");
  ASSERT_EQ(scan.range_queries[0].reads.size(), 2u);
  ReadWriteSet before_start;
  before_start.writes.push_back(WriteItem{"a", "changed", false});
  Block block = MakeBlock({MakeTx(1, before_start), MakeTx(2, scan)});
  EXPECT_EQ(validator_.ValidateBlock(db_, block).results[1].code,
            TxValidationCode::kValid);

  ReadWriteSet past_last;
  past_last.writes.push_back(WriteItem{"zz", "new", false});
  block = MakeBlock({MakeTx(1, past_last), MakeTx(2, scan)});
  const TxValidationResult r = validator_.ValidateBlock(db_, block).results[1];
  EXPECT_EQ(r.code, TxValidationCode::kPhantomReadConflict);
  EXPECT_EQ(r.conflicting_key, "zz");
  EXPECT_TRUE(r.observed_found);
}

TEST_F(ValidatorTest, PreAbortedTxSkipped) {
  Block block = MakeBlock({MakeTx(1, ReadWrite("a", {0, 0}, "a"))});
  block.results[0].code = TxValidationCode::kAbortedByReordering;
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kAbortedByReordering);
  EXPECT_TRUE(outcome.state_updates.empty());
}

TEST_F(ValidatorTest, LastWriteWinsWithinBlock) {
  ReadWriteSet w1;
  w1.writes.push_back(WriteItem{"x", "first", false});
  ReadWriteSet w2;
  w2.writes.push_back(WriteItem{"x", "second", false});
  Block block = MakeBlock({MakeTx(1, w1), MakeTx(2, w2)});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kValid);
  ASSERT_TRUE(CommitStateUpdates(db_, outcome.state_updates).ok());
  EXPECT_EQ(db_.Get("x")->value, "second");
  EXPECT_EQ(db_.Get("x")->version, (Version{1, 1}));
}

TEST_F(ValidatorTest, CommitAppliesVersions) {
  Block block = MakeBlock({MakeTx(1, ReadWrite("a", {0, 0}, "a"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  ASSERT_TRUE(CommitStateUpdates(db_, outcome.state_updates).ok());
  EXPECT_EQ(db_.Get("a")->version, (Version{1, 0}));
  EXPECT_EQ(db_.Get("a")->value, "new");
}

// Serializability property: the committed transactions of a block are
// equivalent to executing them serially in block order against the
// pre-block state.
TEST_F(ValidatorTest, CommittedPrefixIsSeriallyConsistent) {
  // tx1: read a write b; tx2: read b write c (conflicts with tx1's
  // write -> must fail); tx3: read c write a (c unchanged -> valid).
  Block block = MakeBlock({MakeTx(1, ReadWrite("a", {0, 0}, "b")),
                           MakeTx(2, ReadWrite("b", {0, 0}, "c")),
                           MakeTx(3, ReadWrite("c", {0, 0}, "a"))});
  ValidationOutcome outcome = validator_.ValidateBlock(db_, block);
  EXPECT_EQ(outcome.results[0].code, TxValidationCode::kValid);
  EXPECT_EQ(outcome.results[1].code, TxValidationCode::kMvccReadConflict);
  EXPECT_EQ(outcome.results[2].code, TxValidationCode::kValid);
}

}  // namespace
}  // namespace fabricsim
