// TPC-C subsystem tests: contract semantics (NewOrder sequencing and
// invalid-item rollback, Payment balance maths, Delivery backlog
// consumption, read-only transactions), workload mix shape, and the
// determinism regression (bitwise-identical reports across
// FABRICSIM_JOBS 1/4).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/chaincode/tpcc/tpcc_chaincode.h"
#include "src/common/parallel.h"
#include "src/core/runner.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"
#include "src/workload/tpcc_workload.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

class TpccContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const WriteItem& w : cc_.BootstrapState()) {
      db_.ApplyWrite(w, {0, 0});
    }
  }

  /// Commits `stub`'s buffered writes into the world state (what the
  /// validation phase would do for a valid transaction).
  void Commit(ChaincodeStub& stub, Version version) {
    for (const WriteItem& w : stub.TakeRwset().writes) {
      db_.ApplyWrite(w, version);
    }
  }

  std::optional<std::string> WrittenValue(const ChaincodeStub& stub,
                                          const std::string& key) {
    for (const WriteItem& w : stub.rwset().writes) {
      if (w.key == key && !w.is_delete) return w.value;
    }
    return std::nullopt;
  }

  TpccChaincode cc_;
  MemoryStateDb db_;
};

Invocation MakeNewOrder(int w, int d, int c,
                        std::vector<std::pair<int, int>> lines) {
  Invocation inv{"NewOrder",
                 {std::to_string(w), std::to_string(d), std::to_string(c),
                  std::to_string(lines.size())}};
  for (auto [item, qty] : lines) {
    inv.args.push_back(std::to_string(item));
    inv.args.push_back(std::to_string(qty));
  }
  return inv;
}

TEST_F(TpccContractTest, NewOrderSequencesOnDistrictRow) {
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, MakeNewOrder(0, 3, 5, {{1, 3}, {2, 4}}));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // d_next_o_id read from committed state (0) and written back as 1.
  std::optional<std::string> dist =
      WrittenValue(stub, tpcc::DistrictKey(0, 3));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(ExtractJsonField(*dist, "next_o_id").value_or(""), "1");

  // Order 0 materializes: ORDER + NEWORDER + one ORDERLINE per line.
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderKey(0, 3, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::NewOrderKey(0, 3, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderLineKey(0, 3, 0, 0)).has_value());
  EXPECT_TRUE(WrittenValue(stub, tpcc::OrderLineKey(0, 3, 0, 1)).has_value());
  // Footprint: (3 + 2n) reads, (3 + 2n) writes for n lines.
  EXPECT_EQ(stub.rwset().reads.size(), 7u);
  EXPECT_EQ(stub.rwset().writes.size(), 7u);

  // The next NewOrder in the same district continues the sequence.
  Commit(stub, {1, 0});
  ChaincodeStub stub2(db_, true);
  ASSERT_TRUE(cc_.Invoke(stub2, MakeNewOrder(0, 3, 6, {{7, 1}})).ok());
  std::optional<std::string> dist2 =
      WrittenValue(stub2, tpcc::DistrictKey(0, 3));
  ASSERT_TRUE(dist2.has_value());
  EXPECT_EQ(ExtractJsonField(*dist2, "next_o_id").value_or(""), "2");
  EXPECT_TRUE(WrittenValue(stub2, tpcc::OrderKey(0, 3, 1)).has_value());
}

TEST_F(TpccContractTest, NewOrderInvalidItemRollsBack) {
  // TPC-C §2.4.1.5 / §2.4.2.3: an unused item id fails the transaction
  // after its reads — the error status fails endorsement, so no write
  // ever reaches the orderer.
  ChaincodeStub stub(db_, true);
  int invalid = cc_.config().items;  // first never-bootstrapped id
  Status status = cc_.Invoke(stub, MakeNewOrder(0, 0, 0, {{1, 2},
                                                          {invalid, 1}}));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(stub.rwset().writes.empty());
  // Both item reads happened (the second recorded as not-found).
  ASSERT_EQ(stub.rwset().reads.size(), 2u);
  EXPECT_TRUE(stub.rwset().reads[0].found);
  EXPECT_FALSE(stub.rwset().reads[1].found);
}

TEST_F(TpccContractTest, PaymentBalanceMaths) {
  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(
      stub, Invocation{"Payment", {"1", "2", "9", "250"}});
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stub.rwset().reads.size(), 3u);
  EXPECT_EQ(stub.rwset().writes.size(), 2u);

  std::optional<std::string> cust =
      WrittenValue(stub, tpcc::CustomerKey(1, 2, 9));
  ASSERT_TRUE(cust.has_value());
  EXPECT_EQ(ExtractJsonField(*cust, "balance").value_or(""), "-250");
  EXPECT_EQ(ExtractJsonField(*cust, "ytd_payment").value_or(""), "250");
  EXPECT_EQ(ExtractJsonField(*cust, "payments").value_or(""), "1");

  std::optional<std::string> dist =
      WrittenValue(stub, tpcc::DistrictKey(1, 2));
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(ExtractJsonField(*dist, "ytd").value_or(""), "250");
  // Payment must NOT touch the order sequence.
  EXPECT_EQ(ExtractJsonField(*dist, "next_o_id").value_or(""), "0");

  // The warehouse row is read but never written: ytd accounting lives
  // in the district row so the single warehouse row stays conflict-free.
  EXPECT_FALSE(WrittenValue(stub, tpcc::WarehouseKey(1)).has_value());

  // Second payment compounds on committed state.
  Commit(stub, {1, 0});
  ChaincodeStub stub2(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(stub2, Invocation{"Payment", {"1", "2", "9", "100"}}).ok());
  std::optional<std::string> cust2 =
      WrittenValue(stub2, tpcc::CustomerKey(1, 2, 9));
  ASSERT_TRUE(cust2.has_value());
  EXPECT_EQ(ExtractJsonField(*cust2, "balance").value_or(""), "-350");
  EXPECT_EQ(ExtractJsonField(*cust2, "payments").value_or(""), "2");
}

TEST_F(TpccContractTest, DeliveryConsumesBacklogAndCreditsCustomer) {
  // Commit one NewOrder, then deliver it.
  ChaincodeStub seed(db_, true);
  ASSERT_TRUE(cc_.Invoke(seed, MakeNewOrder(0, 0, 4, {{1, 2}, {2, 2}})).ok());
  Commit(seed, {1, 0});

  ChaincodeStub stub(db_, true);
  Status status = cc_.Invoke(stub, Invocation{"Delivery", {"0", "0", "7"}});
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The NEWORDER entry is deleted, the order gains its carrier, the
  // customer is credited per line.
  bool deleted = false;
  for (const WriteItem& w : stub.rwset().writes) {
    if (w.key == tpcc::NewOrderKey(0, 0, 0)) deleted = w.is_delete;
  }
  EXPECT_TRUE(deleted);
  std::optional<std::string> order = WrittenValue(stub, tpcc::OrderKey(0, 0, 0));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(ExtractJsonField(*order, "carrier").value_or(""), "7");
  std::optional<std::string> cust =
      WrittenValue(stub, tpcc::CustomerKey(0, 0, 4));
  ASSERT_TRUE(cust.has_value());
  EXPECT_EQ(ExtractJsonField(*cust, "balance").value_or(""), "1000");
  // The backlog scan is phantom-checked.
  ASSERT_EQ(stub.rwset().range_queries.size(), 1u);
  EXPECT_TRUE(stub.rwset().range_queries[0].phantom_check);

  // An empty district delivers nothing but keeps the scan footprint.
  ChaincodeStub empty(db_, true);
  ASSERT_TRUE(cc_.Invoke(empty, Invocation{"Delivery", {"1", "5", "2"}}).ok());
  EXPECT_TRUE(empty.rwset().writes.empty());
  EXPECT_EQ(empty.rwset().range_queries.size(), 1u);
}

TEST_F(TpccContractTest, ReadOnlyTransactionsWriteNothing) {
  // Commit an order so OrderStatus/StockLevel have lines to scan.
  ChaincodeStub seed(db_, true);
  ASSERT_TRUE(cc_.Invoke(seed, MakeNewOrder(0, 1, 2, {{3, 5}})).ok());
  Commit(seed, {1, 0});

  ChaincodeStub status_stub(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(status_stub, Invocation{"OrderStatus", {"0", "1", "2", "0"}})
          .ok());
  EXPECT_TRUE(status_stub.rwset().writes.empty());
  EXPECT_EQ(status_stub.rwset().reads.size(), 2u);
  ASSERT_EQ(status_stub.rwset().range_queries.size(), 1u);
  EXPECT_EQ(status_stub.rwset().range_queries[0].reads.size(), 1u);

  ChaincodeStub level_stub(db_, true);
  ASSERT_TRUE(
      cc_.Invoke(level_stub, Invocation{"StockLevel", {"0", "1", "15"}}).ok());
  EXPECT_TRUE(level_stub.rwset().writes.empty());
  // District read + one stock read for the single scanned item.
  EXPECT_EQ(level_stub.rwset().reads.size(), 2u);
  EXPECT_EQ(level_stub.rwset().range_queries.size(), 1u);
}

TEST_F(TpccContractTest, UnknownFunctionRejected) {
  ChaincodeStub stub(db_, true);
  EXPECT_EQ(cc_.Invoke(stub, Invocation{"Refund", {}}).code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ workload

TEST(TpccWorkloadTest, MixMatchesKlenikWeights) {
  WorkloadConfig config;
  config.chaincode = "tpcc";
  config.zipf_skew = 0.0;
  std::unique_ptr<WorkloadGenerator> workload = MakeTpccWorkload(config);
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->chaincode(), "tpcc");

  Rng rng(123);
  const int kDraws = 20000;
  std::map<std::string, int> counts;
  int invalid_neworders = 0;
  for (int i = 0; i < kDraws; ++i) {
    Invocation inv = workload->Next(rng);
    ++counts[inv.function];
    if (inv.function == "NewOrder") {
      // The invalid transaction names the first unused item id as its
      // last item.
      if (inv.args[inv.args.size() - 2] ==
          std::to_string(config.tpcc.items)) {
        ++invalid_neworders;
      }
    }
  }
  // 45 / 43 / 4 / 4 / 4 within sampling tolerance.
  EXPECT_NEAR(counts["NewOrder"] / static_cast<double>(kDraws), 0.45, 0.02);
  EXPECT_NEAR(counts["Payment"] / static_cast<double>(kDraws), 0.43, 0.02);
  EXPECT_NEAR(counts["Delivery"] / static_cast<double>(kDraws), 0.04, 0.01);
  EXPECT_NEAR(counts["OrderStatus"] / static_cast<double>(kDraws), 0.04, 0.01);
  EXPECT_NEAR(counts["StockLevel"] / static_cast<double>(kDraws), 0.04, 0.01);
  // ~1% of NewOrders carry the invalid item.
  EXPECT_NEAR(invalid_neworders / static_cast<double>(counts["NewOrder"]),
              0.01, 0.008);
}

TEST(TpccWorkloadTest, ArgumentsStayInSchemaBounds) {
  WorkloadConfig config;
  config.chaincode = "tpcc";
  std::unique_ptr<WorkloadGenerator> workload = MakeTpccWorkload(config);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Invocation inv = workload->Next(rng);
    ASSERT_GE(inv.args.size(), 3u);
    int w = std::stoi(inv.args[0]);
    int d = std::stoi(inv.args[1]);
    EXPECT_GE(w, 0);
    EXPECT_LT(w, config.tpcc.warehouses);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, config.tpcc.districts_per_warehouse);
    if (inv.function == "NewOrder") {
      int n = std::stoi(inv.args[3]);
      EXPECT_GE(n, 5);
      EXPECT_LE(n, 15);
      ASSERT_EQ(inv.args.size(), static_cast<size_t>(4 + 2 * n));
    }
  }
}

// --------------------------------------------------- determinism

TEST(TpccDeterminismTest, BitwiseIdenticalAcrossJobs) {
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("tpcc")
                                .Duration(10 * kSecond)
                                .RateTps(100)
                                .Repetitions(1)
                                .Seed(7)
                                .Build();
  Result<FailureReport> reference = RunOnce(config, 7);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::string golden = Fingerprint(reference.value());
  // A real mix produces failures AND successes; a degenerate run would
  // make the determinism check vacuous.
  EXPECT_GT(reference.value().valid_txs, 0u);
  EXPECT_GT(reference.value().mvcc_intra + reference.value().mvcc_inter, 0u);

  int saved_jobs = ParallelJobs();
  for (int jobs : {1, 4}) {
    SetParallelJobs(jobs);
    Result<ExperimentResult> result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Fingerprint(result.value().repetitions[0]), golden)
        << "jobs=" << jobs;
  }
  SetParallelJobs(saved_jobs);
}

// The determinism config above, pinned: the test above compares runs
// with each other only. Recorded before endorsers at one height shared
// one simulation.
TEST(TpccGoldenTest, DefaultMixPinned) {
  ExperimentConfig config = ExperimentConfig::Builder()
                                .Chaincode("tpcc")
                                .Duration(10 * kSecond)
                                .RateTps(100)
                                .Build();
  Result<FailureReport> r = RunOnce(config, 7);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Fingerprint(r.value()),
            "ledger=926 valid=253 endorse=77 mvcc_intra=416 mvcc_inter=176 "
            "phantom=4 submitted=926 app=6\n"
            "pct=72.678185745140382/8.315334773218142/63.930885529157671/"
            "0.43196544276457882/0\n"
            "lat=25.898118577753809/26.245219947121697/50.780167586817527 "
            "tput=12/25.300000000000001\n");
}

}  // namespace
}  // namespace fabricsim
