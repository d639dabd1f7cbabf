#include <gtest/gtest.h>

#include "src/chaincode/stub.h"
#include "src/core/experiment.h"
#include "src/peer/committer.h"
#include "src/peer/endorser.h"
#include "src/statedb/memory_state_db.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

class StubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.ApplyWrite(WriteItem{"k1", "v1", false}, {3, 7});
    db_.ApplyWrite(WriteItem{"k2", "v2", false}, {4, 1});
  }
  MemoryStateDb db_;
};

TEST_F(StubTest, GetStateRecordsVersion) {
  ChaincodeStub stub(db_, true);
  EXPECT_EQ(stub.GetState("k1").value_or(""), "v1");
  ASSERT_EQ(stub.rwset().reads.size(), 1u);
  EXPECT_EQ(stub.rwset().reads[0].key, "k1");
  EXPECT_EQ(stub.rwset().reads[0].version, (Version{3, 7}));
  EXPECT_TRUE(stub.rwset().reads[0].found);
}

TEST_F(StubTest, MissingKeyRecordedAsNotFound) {
  ChaincodeStub stub(db_, true);
  EXPECT_FALSE(stub.GetState("ghost").has_value());
  ASSERT_EQ(stub.rwset().reads.size(), 1u);
  EXPECT_FALSE(stub.rwset().reads[0].found);
}

TEST_F(StubTest, NoReadYourOwnWrites) {
  // Fabric semantics: writes are buffered; reads always hit committed
  // state.
  ChaincodeStub stub(db_, true);
  stub.PutState("k1", "updated");
  EXPECT_EQ(stub.GetState("k1").value_or(""), "v1");
  stub.PutState("fresh", "new");
  EXPECT_FALSE(stub.GetState("fresh").has_value());
}

TEST_F(StubTest, WritesBufferedNotApplied) {
  ChaincodeStub stub(db_, true);
  stub.PutState("k9", "v9");
  stub.DelState("k1");
  EXPECT_FALSE(db_.Get("k9").has_value());
  EXPECT_TRUE(db_.Get("k1").has_value());
  ASSERT_EQ(stub.rwset().writes.size(), 2u);
  EXPECT_FALSE(stub.rwset().writes[0].is_delete);
  EXPECT_TRUE(stub.rwset().writes[1].is_delete);
}

TEST_F(StubTest, RangeQueryRecordsFootprint) {
  ChaincodeStub stub(db_, true);
  auto entries = stub.GetStateByRange("k1", "k3");
  EXPECT_EQ(entries.size(), 2u);
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  const RangeQueryInfo& rq = stub.rwset().range_queries[0];
  EXPECT_TRUE(rq.phantom_check);
  EXPECT_EQ(rq.start_key, "k1");
  EXPECT_EQ(rq.end_key, "k3");
  ASSERT_EQ(rq.reads.size(), 2u);
  EXPECT_EQ(rq.reads[0].version, (Version{3, 7}));
  // Range footprints are not point reads.
  EXPECT_TRUE(stub.rwset().reads.empty());
}

TEST_F(StubTest, RichQueryNotPhantomChecked) {
  MemoryStateDb db;
  db.ApplyWrite(WriteItem{"d1", JsonObject({{"docType", "x"}}), false},
                {1, 0});
  ChaincodeStub stub(db, true);
  auto result = stub.GetQueryResult("docType==x");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 1u);
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  EXPECT_FALSE(stub.rwset().range_queries[0].phantom_check);
}

TEST_F(StubTest, RichQueryRequiresCouchDb) {
  ChaincodeStub stub(db_, /*rich_queries_supported=*/false);
  auto result = stub.GetQueryResult("docType==x");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(StubTest, TakeRwsetMoves) {
  ChaincodeStub stub(db_, true);
  stub.GetState("k1");
  ReadWriteSet rwset = stub.TakeRwset();
  EXPECT_EQ(rwset.reads.size(), 1u);
}

// Simulation seals every rw-set it produces: the stored digest and
// byte size must equal a fresh recomputation from the content, for
// every catalogued chaincode's generated invocations.
class SealContractTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SealContractTest, SealedValuesMatchRecomputation) {
  WorkloadConfig config;
  config.chaincode = GetParam();
  auto chaincode = MakeChaincodeFor(config);
  ASSERT_TRUE(chaincode.ok());
  auto gen = MakeWorkload(config, /*rich=*/true);
  ASSERT_TRUE(gen.ok());

  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, chaincode.value()->BootstrapState()).ok());
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    EndorsementResult result = SimulateProposal(
        db, *chaincode.value(), gen.value()->Next(rng), /*rich=*/true);
    const ReadWriteSet& rwset = result.rwset;
    ASSERT_TRUE(rwset.sealed()) << GetParam() << " invocation " << i;
    EXPECT_EQ(rwset.Digest(), rwset.ComputeDigest()) << GetParam();
    EXPECT_EQ(rwset.ByteSize(), rwset.ComputeByteSize()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllChaincodes, SealContractTest,
                         ::testing::Values("ehr", "dv", "scm", "drm",
                                           "genchain", "tpcc"));

// ---------------------------------------------------------- Catalog

TEST(CatalogTest, EveryNameBuildsItsChaincodeAndWorkload) {
  // Both builders resolve every name, and the contract and the workload
  // both answer to it ("genChain" is an alias of the genchain row).
  // Client::FinalizeTx writes the workload's name into every
  // transaction.
  for (const char* name :
       {"ehr", "dv", "scm", "drm", "genChain", "tpcc", "asset"}) {
    WorkloadConfig config;
    config.chaincode = name;
    Result<std::shared_ptr<Chaincode>> chaincode = MakeChaincodeFor(config);
    Result<std::unique_ptr<WorkloadGenerator>> workload =
        MakeWorkload(config, /*rich_queries_supported=*/true);
    ASSERT_TRUE(chaincode.ok()) << name << ": "
                                << chaincode.status().ToString();
    ASSERT_TRUE(workload.ok()) << name << ": "
                               << workload.status().ToString();
    EXPECT_EQ(chaincode.value()->name(), name);
    EXPECT_EQ(workload.value()->chaincode(), name);
  }
}

TEST(CatalogTest, UnknownNameListsEveryChaincode) {
  WorkloadConfig config;
  config.chaincode = "bogus";
  const std::string expected =
      "unknown chaincode: bogus (available: asset, drm, dv, ehr, genchain, "
      "scm, tpcc)";
  Status chaincode = MakeChaincodeFor(config).status();
  EXPECT_EQ(chaincode.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(chaincode.message(), expected);
  Status workload = MakeWorkload(config, true).status();
  EXPECT_EQ(workload.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(workload.message(), expected);
}

}  // namespace
}  // namespace fabricsim
