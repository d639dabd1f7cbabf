// Verifies the paper's Table 2: every chaincode function performs
// exactly the documented number of read (R), write (W) and range-read
// (RR) operations. This pins the conflict footprint of the workloads
// to the paper's.
#include <gtest/gtest.h>

#include <memory>

#include "src/chaincode/digital_voting.h"
#include "src/chaincode/drm.h"
#include "src/chaincode/ehr.h"
#include "src/chaincode/stub.h"
#include "src/chaincode/supply_chain.h"
#include "src/peer/committer.h"
#include "src/statedb/memory_state_db.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

struct OpsCase {
  const char* chaincode;
  const char* function;
  std::vector<std::string> args;
  size_t reads;
  size_t writes;
  size_t range_reads;
  bool needs_couchdb;  // rich-query functions
};

std::ostream& operator<<(std::ostream& os, const OpsCase& c) {
  return os << c.chaincode << "." << c.function;
}

class ChaincodeOpsTest : public ::testing::TestWithParam<OpsCase> {};

TEST_P(ChaincodeOpsTest, MatchesTable2) {
  const OpsCase& c = GetParam();
  WorkloadConfig config;
  config.chaincode = c.chaincode;
  Result<std::shared_ptr<Chaincode>> made = MakeChaincodeFor(config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const std::shared_ptr<Chaincode>& chaincode = made.value();

  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, chaincode->BootstrapState()).ok());

  ChaincodeStub stub(db, /*rich_queries_supported=*/true);
  Status st = chaincode->Invoke(stub, Invocation{c.function, c.args});
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(stub.rwset().reads.size(), c.reads) << "point reads";
  EXPECT_EQ(stub.rwset().writes.size(), c.writes) << "writes";
  EXPECT_EQ(stub.rwset().range_queries.size(), c.range_reads)
      << "range reads";
  if (c.needs_couchdb) {
    // The paper's footnote: Fabric does not detect phantoms for these
    // range reads (rich queries).
    for (const RangeQueryInfo& rq : stub.rwset().range_queries) {
      EXPECT_FALSE(rq.phantom_check);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ehr, ChaincodeOpsTest,
    ::testing::Values(
        OpsCase{"ehr", "initLedger", {}, 0, 2, 0, false},
        OpsCase{"ehr", "grantProfileAccess", {"PROF0001", "ACTOR1"}, 1, 1, 0,
                false},
        OpsCase{"ehr", "revokeProfileAccess", {"PROF0002", "ACTOR1"}, 1, 1, 0,
                false},
        OpsCase{
            "ehr", "grantEhrAccess", {"EHR0003", "PROF0003", "ACTOR2"}, 2, 2,
            0, false},
        OpsCase{
            "ehr", "revokeEhrAccess", {"EHR0004", "PROF0004", "ACTOR2"}, 2, 2,
            0, false},
        OpsCase{"ehr", "addEhr", {"EHR0005", "PROF0005", "xray"}, 2, 2, 0,
                false},
        OpsCase{"ehr", "readProfile", {"PROF0006"}, 1, 0, 0, false},
        OpsCase{"ehr", "viewPartialProfile", {"PROF0007"}, 1, 0, 0, false},
        OpsCase{"ehr", "viewEHR", {"EHR0008"}, 1, 0, 0, false},
        OpsCase{"ehr", "queryEHR", {"EHR0009"}, 1, 0, 0, false}));

INSTANTIATE_TEST_SUITE_P(
    Dv, ChaincodeOpsTest,
    ::testing::Values(
        OpsCase{"dv", "initLedger", {}, 0, 3, 0, false},
        OpsCase{"dv", "vote", {"VOTER0001", "PARTY01"}, 1, 2, 2, false},
        OpsCase{"dv", "closeElctn", {}, 1, 1, 0, false},
        OpsCase{"dv", "qryParties", {}, 1, 0, 1, false},
        OpsCase{"dv", "seeResults", {}, 1, 0, 1, false}));

INSTANTIATE_TEST_SUITE_P(
    Scm, ChaincodeOpsTest,
    ::testing::Values(
        OpsCase{"scm", "initLedger", {}, 0, 2, 0, false},
        OpsCase{"scm", "pushASN", {"ASN000000", "LSP0", "LSP1"}, 0, 1, 0,
                false},
        OpsCase{"scm",
                "Ship",
                {"ASN000000", "UNIT0_00001", "UNIT1_00001"},
                2,
                2,
                0,
                false},
        OpsCase{"scm", "Unload", {"UNIT0_00002", "LSP0"}, 2, 2, 0, false},
        OpsCase{"scm", "queryASN", {"0"}, 0, 0, 1, false},
        OpsCase{"scm", "queryStock", {"4"}, 0, 0, 1, true}));

INSTANTIATE_TEST_SUITE_P(
    Drm, ChaincodeOpsTest,
    ::testing::Values(
        OpsCase{"drm", "initLedger", {}, 0, 2, 0, false},
        OpsCase{"drm", "create", {"ART0201", "RIGHTS0201", "RH0005"}, 1, 2, 0,
                false},
        OpsCase{"drm", "play", {"ART0001", "RIGHTS0001"}, 2, 1, 0, false},
        OpsCase{"drm", "queryRghts", {"ART0002", "RIGHTS0002"}, 2, 0, 0,
                false},
        OpsCase{"drm", "viewMetaData", {"ART0003"}, 1, 0, 0, false},
        OpsCase{"drm", "calcRevenue", {"RH0002"}, 0, 0, 1, true}));

// Additional behaviour checks beyond op counts.

TEST(ChaincodeBehaviourTest, DvVoteScansFullRolls) {
  DigitalVotingChaincode dv;
  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, dv.BootstrapState()).ok());
  ChaincodeStub stub(db, true);
  ASSERT_TRUE(
      dv.Invoke(stub, Invocation{"vote", {"VOTER0500", "PARTY05"}}).ok());
  // "the vote function queries all 1000 voters" and all 12 parties.
  ASSERT_EQ(stub.rwset().range_queries.size(), 2u);
  EXPECT_EQ(stub.rwset().range_queries[0].reads.size(), 1000u);
  EXPECT_EQ(stub.rwset().range_queries[1].reads.size(), 12u);
}

TEST(ChaincodeBehaviourTest, ScmQueryAsnScansWholeLsp) {
  SupplyChainChaincode scm;
  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, scm.BootstrapState()).ok());
  ChaincodeStub stub(db, true);
  ASSERT_TRUE(scm.Invoke(stub, Invocation{"queryASN", {"4"}}).ok());
  // LSP4 hosts 800 units (paper §4.3).
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  EXPECT_EQ(stub.rwset().range_queries[0].reads.size(), 800u);
}

TEST(ChaincodeBehaviourTest, ScmShipMovesUnitBetweenPrefixes) {
  SupplyChainChaincode scm;
  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, scm.BootstrapState()).ok());
  ChaincodeStub stub(db, true);
  ASSERT_TRUE(scm.Invoke(stub, Invocation{"Ship",
                                          {"ASN000000", "UNIT0_00003",
                                           "UNIT2_00003"}})
                  .ok());
  ASSERT_EQ(stub.rwset().writes.size(), 2u);
  EXPECT_TRUE(stub.rwset().writes[0].is_delete);
  EXPECT_EQ(stub.rwset().writes[0].key, "UNIT0_00003");
  EXPECT_FALSE(stub.rwset().writes[1].is_delete);
  EXPECT_EQ(stub.rwset().writes[1].key, "UNIT2_00003");
}

TEST(ChaincodeBehaviourTest, DvVoteFailsWhenElectionClosed) {
  DigitalVotingChaincode dv;
  MemoryStateDb db;
  ASSERT_TRUE(ApplyBootstrap(db, dv.BootstrapState()).ok());
  {
    ChaincodeStub stub(db, true);
    ASSERT_TRUE(dv.Invoke(stub, Invocation{"closeElctn", {}}).ok());
    ASSERT_TRUE(CommitStateUpdates(
                    db,
                    {{stub.rwset().writes[0], Version{1, 0}}})
                    .ok());
  }
  ChaincodeStub stub(db, true);
  Status st = dv.Invoke(stub, Invocation{"vote", {"VOTER0001", "PARTY01"}});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ChaincodeBehaviourTest, BootstrapSizes) {
  EXPECT_EQ(EhrChaincode().BootstrapState().size(), 200u);  // 100 + 100
  EXPECT_EQ(DigitalVotingChaincode().BootstrapState().size(),
            1000u + 12u + 2u);
  EXPECT_EQ(SupplyChainChaincode().BootstrapState().size(),
            5u + 400u * 4 + 800u);
  EXPECT_EQ(DrmChaincode().BootstrapState().size(), 200u + 2 * 200u);
}

TEST(ChaincodeBehaviourTest, UnknownFunctionRejected) {
  EhrChaincode ehr;
  MemoryStateDb db;
  ChaincodeStub stub(db, true);
  EXPECT_EQ(ehr.Invoke(stub, Invocation{"bogus", {}}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fabricsim
