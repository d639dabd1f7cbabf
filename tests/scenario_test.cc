// Scenario-pack tests: asset-transfer contract semantics (ownership
// index moves, duplicate creation, phantom-checked owner scans),
// end-to-end phantom aborts under the asset mix, pinned-channel
// affinity (unit and integration), the tpcc district hotspot seen
// through failure attribution, and golden fingerprints proving the
// four paper chaincodes run byte-identically with tpcc/asset compiled
// in and catalogued.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/chaincode/asset_transfer.h"
#include "src/chaincode/composite_key.h"
#include "src/chaincode/tpcc/tpcc_schema.h"
#include "src/channels/channel_affinity.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"
#include "src/workload/paper_workloads.h"
#include "src/workload/tpcc_workload.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// ----------------------------------------------------- asset contract

class AssetContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const WriteItem& w : cc_.BootstrapState()) {
      db_.ApplyWrite(w, {0, 0});
    }
  }

  AssetTransferChaincode cc_;
  MemoryStateDb db_;
};

TEST_F(AssetContractTest, TransferMovesOwnershipIndexBetweenSubtrees) {
  // Asset 0 bootstraps as owner0's; move it to owner7.
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, Invocation{"transferAsset", {"0", "7"}});
  ASSERT_TRUE(status.ok()) << status.ToString();

  bool deleted_old = false, wrote_new = false, wrote_asset = false;
  for (const WriteItem& w : stub.rwset().writes) {
    if (w.key == AssetTransferChaincode::OwnedKey(0, 0) && w.is_delete) {
      deleted_old = true;
    }
    if (w.key == AssetTransferChaincode::OwnedKey(7, 0) && !w.is_delete) {
      wrote_new = true;
    }
    if (w.key == AssetTransferChaincode::AssetKey(0) && !w.is_delete) {
      wrote_asset = true;
      EXPECT_EQ(ExtractJsonField(w.value, "owner").value_or(""),
                AssetTransferChaincode::OwnerName(7));
    }
  }
  EXPECT_TRUE(deleted_old);
  EXPECT_TRUE(wrote_new);
  EXPECT_TRUE(wrote_asset);
}

TEST_F(AssetContractTest, CreateRejectsDuplicateAndMintsFreshIds) {
  ChaincodeStub dup(db_, true);
  EXPECT_EQ(cc_.Invoke(dup, Invocation{"createAsset", {"0", "1", "500"}})
                .code(),
            StatusCode::kInvalidArgument);

  ChaincodeStub fresh(db_, true);
  int next = cc_.config().assets;
  ASSERT_TRUE(cc_.Invoke(fresh, Invocation{"createAsset",
                                           {std::to_string(next), "1", "500"}})
                  .ok());
  EXPECT_EQ(fresh.rwset().writes.size(), 2u);  // asset + ownership index
}

TEST_F(AssetContractTest, QueryByOwnerIsPhantomCheckedSubtreeScan) {
  ChaincodeStub stub(db_, true);
  ASSERT_TRUE(cc_.Invoke(stub, Invocation{"queryByOwner", {"3"}}).ok());
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  const RangeQueryInfo& rq = stub.rwset().range_queries[0];
  EXPECT_TRUE(rq.phantom_check);
  // 400 assets over 20 owners: 20 per subtree.
  EXPECT_EQ(rq.reads.size(), 20u);
  for (const ReadItem& r : rq.reads) {
    EXPECT_EQ(CompositeKeyObjectType(r.key), "OWNED");
  }
}

TEST_F(AssetContractTest, CreditDebitAccountMaths) {
  ChaincodeStub stub(db_, true);
  ASSERT_TRUE(cc_.Invoke(stub, Invocation{"debit", {"2", "300"}}).ok());
  ASSERT_EQ(stub.rwset().writes.size(), 1u);
  EXPECT_EQ(ExtractJsonField(stub.rwset().writes[0].value, "balance")
                .value_or(""),
            "999700");
  db_.ApplyWrite(stub.rwset().writes[0], {1, 0});

  ChaincodeStub credit(db_, true);
  ASSERT_TRUE(cc_.Invoke(credit, Invocation{"credit", {"2", "50"}}).ok());
  EXPECT_EQ(ExtractJsonField(credit.rwset().writes[0].value, "balance")
                .value_or(""),
            "999750");
}

// ------------------------------------------------ end-to-end scenarios

TEST(ScenarioTest, AssetMixProvokesPhantomAborts) {
  // The composite-key pack's point: transferAsset perturbs owner
  // subtrees that queryByOwner range-scans, so phantom aborts must
  // appear alongside plain MVCC conflicts.
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("asset")
                                .Duration(20 * kSecond)
                                .RateTps(100)
                                .Build();
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().valid_txs, 0u);
  EXPECT_GT(r.value().phantom, 0u);
}

TEST(ScenarioTest, PinnedChannelRoutesEveryTransaction) {
  // Unit: a pinned affinity has exactly one visible channel, no draws.
  ChannelAffinityConfig pinned;
  pinned.pinned_channel = 1;
  pinned.skew = 1.5;             // must be overridden by the pin
  pinned.channels_per_client = 1;
  Rng rng(9);
  for (int client = 0; client < 4; ++client) {
    ChannelAffinity affinity(pinned, /*num_channels=*/3, client);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(affinity.Pick(rng), 1);
  }
  // A pin beyond the deployment clamps to the last real channel.
  pinned.pinned_channel = 9;
  ChannelAffinity clamped(pinned, /*num_channels=*/2, 0);
  EXPECT_EQ(clamped.Pick(rng), 1);

  // Integration: every committed transaction lands on the pinned
  // channel's ledger.
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("asset")
                                .Channels(2)
                                .PinnedChannel(1)
                                .Duration(10 * kSecond)
                                .RateTps(100)
                                .Build();
  Result<FailureReport> r = RunOnce(config, 42);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().per_channel.size(), 2u);
  EXPECT_EQ(r.value().per_channel[0].ledger_txs, 0u);
  EXPECT_GT(r.value().per_channel[1].ledger_txs, 0u);
}

TEST(ScenarioTest, TpccConflictsConcentrateOnDistrictRows) {
  // The Klenik & Kocsis headline at test scale: drive tpcc with
  // tracing on and attribute conflicts per entity — DISTRICT must
  // dominate.
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("tpcc")
                                .TpccWarehouses(1)
                                .Duration(15 * kSecond)
                                .RateTps(150)
                                .Tracing()
                                .Build();
  Result<std::shared_ptr<Chaincode>> chaincode =
      MakeChaincodeFor(config.workload);
  ASSERT_TRUE(chaincode.ok());
  Result<std::unique_ptr<WorkloadGenerator>> workload =
      MakeWorkload(config.workload, true);
  ASSERT_TRUE(workload.ok());
  Environment env(42);
  FabricNetwork network(config.fabric, &env, chaincode.value(),
                        std::shared_ptr<WorkloadGenerator>(
                            std::move(workload).value()));
  ASSERT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();

  ASSERT_NE(network.tracer(), nullptr);
  auto top = network.tracer()->TopConflictingKeys(1);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(tpcc::TableForKey(top[0].first), tpcc::kDistrictTable)
      << "top conflicting key not a district row";
}

// ------------------------------------------- paper-chaincode goldens

// Golden fingerprints of the four paper chaincodes (default C1
// config, 20 s at 100 tps, seed 42 — the channel_test.cc golden run),
// recorded with the tpcc/asset subsystems compiled in and catalogued.
// The paper chaincodes must not shift by a byte when application
// scenarios are added: the catalog is lookup-only on these paths and
// RunOnce instantiates exactly one chaincode. "ehr" deliberately
// duplicates channel_test.cc's kGoldenCompat.
struct PaperGolden {
  const char* chaincode;
  const char* fingerprint;
};

constexpr PaperGolden kPaperGoldens[] = {
    {"ehr",
     "ledger=1998 valid=889 endorse=21 mvcc_intra=808 mvcc_inter=280 "
     "phantom=0 submitted=1998 app=0\n"
     "pct=55.505505505505504/1.0510510510510511/54.454454454454456/0/0\n"
     "lat=0.79166268968969022/0.76137129816446747/2.0287067818024185 "
     "tput=95/44.450000000000003\n"},
    {"dv",
     "ledger=2024 valid=296 endorse=374 mvcc_intra=0 mvcc_inter=0 "
     "phantom=1354 submitted=2024 app=0\n"
     "pct=85.37549407114625/18.478260869565219/0/66.897233201581031/0\n"
     "lat=71.500701794466451/72.785581352633443/138.03940831036243 "
     "tput=11.65/14.800000000000001\n"},
    {"scm",
     "ledger=2012 valid=1239 endorse=64 mvcc_intra=241 mvcc_inter=97 "
     "phantom=371 submitted=2012 app=0\n"
     "pct=38.419483101391648/3.1809145129224654/16.79920477137177/"
     "18.439363817097416/0\n"
     "lat=20.541065363817115/21.062127898785992/38.378466828324754 "
     "tput=31.800000000000001/61.950000000000003\n"},
    {"drm",
     "ledger=2084 valid=1673 endorse=43 mvcc_intra=265 mvcc_inter=103 "
     "phantom=0 submitted=2084 app=0\n"
     "pct=19.72168905950096/2.0633397312859887/17.658349328214971/0/0\n"
     "lat=2.6511339966410814/2.5790124058723167/6.0947954715864725 "
     "tput=85/83.650000000000006\n"},
};

TEST(ScenarioTest, PaperChaincodesByteIdenticalWithTpccCompiledIn) {
  for (const PaperGolden& golden : kPaperGoldens) {
    ExperimentConfig config = ExperimentConfig::Builder()
                                  .Chaincode(golden.chaincode)
                                  .Duration(20 * kSecond)
                                  .RateTps(100)
                                  .Build();
    Result<FailureReport> r = RunOnce(config, 42);
    ASSERT_TRUE(r.ok()) << golden.chaincode << ": " << r.status().ToString();
    EXPECT_EQ(Fingerprint(r.value()), golden.fingerprint) << golden.chaincode;
  }
}

// The two rich-query chaincodes under FabricSharp on CouchDB, same
// config and seed as above. FabricSharp endorses against a separate
// snapshot replica whose writes arrive later through scheduled
// CommitStateUpdates, so its rich queries read a replica that lags
// the committed state; these pins cover that path.
constexpr PaperGolden kFabricSharpRichGoldens[] = {
    {"scm",
     "ledger=887 valid=883 endorse=4 mvcc_intra=0 mvcc_inter=0 phantom=0 "
     "submitted=2012 app=0\n"
     "pct=0.45095828635851182/0.45095828635851182/0/0/55.914512922465207\n"
     "lat=20.316193749718156/20.645056059206073/37.618497188159907 "
     "tput=14.699999999999999/44.149999999999999\n"},
    {"drm",
     "ledger=1440 valid=1427 endorse=13 mvcc_intra=0 mvcc_inter=0 phantom=0 "
     "submitted=2084 app=0\n"
     "pct=0.90277777777777779/0.90277777777777779/0/0/30.9021113243762\n"
     "lat=2.7826691277777766/2.6842674780434139/5.9741064523471374 "
     "tput=56.25/71.349999999999994\n"},
};

TEST(ScenarioTest, FabricSharpRichQueryChaincodesPinned) {
  for (const PaperGolden& golden : kFabricSharpRichGoldens) {
    ExperimentConfig config = ExperimentConfig::Builder()
                                  .Chaincode(golden.chaincode)
                                  .Variant(FabricVariant::kFabricSharp)
                                  .Duration(20 * kSecond)
                                  .RateTps(100)
                                  .Build();
    ASSERT_EQ(config.fabric.db_type, DatabaseType::kCouchDb);
    Result<FailureReport> r = RunOnce(config, 42);
    ASSERT_TRUE(r.ok()) << golden.chaincode << ": " << r.status().ToString();
    EXPECT_EQ(Fingerprint(r.value()), golden.fingerprint) << golden.chaincode;
  }
}

// FabricSharp with point-read chaincodes (range reads are disabled
// under FabricSharp): endorsers read a snapshot that lags the committed
// height, so these runs cover endorsements at heights below the head.
// Recorded before endorsements were shared between endorsers at one
// height.
struct FabricSharpGolden {
  const char* chaincode;
  WorkloadMix mix;
  const char* fingerprint;
};

constexpr FabricSharpGolden kFabricSharpPointReadGoldens[] = {
    {"ehr", WorkloadMix::kUniform,
     "ledger=1136 valid=1094 endorse=42 mvcc_intra=0 mvcc_inter=0 phantom=0 "
     "submitted=1998 app=0\n"
     "pct=3.6971830985915495/3.6971830985915495/0/0/43.143143143143142\n"
     "lat=0.73227328257042279/0.70283241667049501/1.5028879185236679 "
     "tput=53.049999999999997/54.700000000000003\n"},
    {"genchain", WorkloadMix::kUpdateHeavy,
     "ledger=1624 valid=1612 endorse=12 mvcc_intra=0 mvcc_inter=0 phantom=0 "
     "submitted=1960 app=0\n"
     "pct=0.73891625615763545/0.73891625615763545/0/0/17.142857142857142\n"
     "lat=0.80272058004926272/0.77675253651122433/1.4731277617212193 "
     "tput=80.400000000000006/80.599999999999994\n"},
};

TEST(ScenarioTest, FabricSharpPointReadChaincodesPinned) {
  for (const FabricSharpGolden& golden : kFabricSharpPointReadGoldens) {
    ExperimentConfig config = ExperimentConfig::Builder()
                                  .Chaincode(golden.chaincode)
                                  .Mix(golden.mix)
                                  .Variant(FabricVariant::kFabricSharp)
                                  .Duration(20 * kSecond)
                                  .RateTps(100)
                                  .Build();
    Result<FailureReport> r = RunOnce(config, 42);
    ASSERT_TRUE(r.ok()) << golden.chaincode << ": " << r.status().ToString();
    EXPECT_EQ(Fingerprint(r.value()), golden.fingerprint) << golden.chaincode;
  }
}

}  // namespace
}  // namespace fabricsim
