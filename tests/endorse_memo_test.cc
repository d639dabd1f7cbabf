// The endorsement memo: endorsers of one channel at one height share
// one simulation. Over every catalogued chaincode, with readers at
// mixed heights, each shared result must equal a fresh simulation at
// that reader; and a run must invoke the chaincode exactly once per
// (tx, height) its endorsers read at.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/fabric/fabric_network.h"
#include "src/peer/endorser.h"
#include "src/statedb/channel_state.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

void ExpectSameReads(const std::vector<ReadItem>& got,
                     const std::vector<ReadItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].version, want[i].version) << got[i].key;
    EXPECT_EQ(got[i].found, want[i].found) << got[i].key;
  }
}

// Content, seal, status: everything an endorsement carries.
void ExpectSameResult(const EndorsementResult& got,
                      const EndorsementResult& want) {
  EXPECT_EQ(got.app_status.code(), want.app_status.code());
  EXPECT_EQ(got.app_status.message(), want.app_status.message());
  const ReadWriteSet& a = got.rwset;
  const ReadWriteSet& b = want.rwset;
  ASSERT_TRUE(a.sealed());
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.ByteSize(), b.ByteSize());
  EXPECT_EQ(a.Digest(), a.ComputeDigest());
  ExpectSameReads(a.reads, b.reads);
  ASSERT_EQ(a.writes.size(), b.writes.size());
  for (size_t i = 0; i < a.writes.size(); ++i) {
    EXPECT_EQ(a.writes[i].key, b.writes[i].key);
    EXPECT_EQ(a.writes[i].value, b.writes[i].value) << a.writes[i].key;
    EXPECT_EQ(a.writes[i].is_delete, b.writes[i].is_delete);
  }
  ASSERT_EQ(a.range_queries.size(), b.range_queries.size());
  for (size_t i = 0; i < a.range_queries.size(); ++i) {
    const RangeQueryInfo& x = a.range_queries[i];
    const RangeQueryInfo& y = b.range_queries[i];
    EXPECT_EQ(x.start_key, y.start_key);
    EXPECT_EQ(x.end_key, y.end_key);
    EXPECT_EQ(x.phantom_check, y.phantom_check);
    EXPECT_EQ(x.rich_selector, y.rich_selector);
    ExpectSameReads(x.reads, y.reads);
  }
}

constexpr int kPeers = 4;
constexpr int kBlocks = 12;
constexpr int kTxsPerBlock = 6;

// Endorses transactions of `chaincode`'s generated mix at every reader
// of one ChannelState — peers that commit at their own pace and a
// snapshot that trails them — while the channel commits what the head
// endorsed, block by block.
void RunEndorseDifferential(const std::string& chaincode, uint64_t seed) {
  WorkloadConfig config;
  config.chaincode = chaincode;
  config.genchain_initial_keys = 2000;
  std::shared_ptr<Chaincode> cc = MakeChaincodeFor(config).value();
  std::unique_ptr<WorkloadGenerator> gen =
      MakeWorkload(config, /*rich=*/true).value();
  ChannelState state;
  ASSERT_TRUE(state.Bootstrap(cc->BootstrapState()).ok());
  std::vector<StateView*> readers;
  for (int p = 0; p < kPeers; ++p) readers.push_back(state.AddReader());
  StateView* snapshot = state.AddReader();
  readers.push_back(snapshot);

  Rng rng(seed, /*stream=*/17);
  std::vector<std::shared_ptr<const Block>> chain;
  std::vector<std::vector<std::pair<WriteItem, Version>>> updates;
  TxId next_id = 1;
  int mixed_heights = 0;  // transactions endorsed at more than one height
  for (int round = 0; round < kBlocks; ++round) {
    // Block state.height() + 1 commits the writes the head endorsed.
    const uint64_t number = state.height() + 1;
    std::vector<std::pair<WriteItem, Version>> block_updates;
    for (int t = 0; t < kTxsPerBlock; ++t) {
      const TxId id = next_id++;
      const Invocation inv = gen->Next(rng);
      int simulations = 0;
      auto simulate = [&](const StateDatabase& view) {
        ++simulations;
        return SimulateProposal(view, *cc, inv, /*rich=*/true);
      };
      std::vector<std::shared_ptr<const EndorsementResult>> results;
      std::map<uint64_t, const EndorsementResult*> by_height;
      for (StateView* reader : readers) {
        results.push_back(state.Endorse(reader, id, simulate));
        SCOPED_TRACE(StrFormat("%s tx %llu at height %llu", chaincode.c_str(),
                               static_cast<unsigned long long>(id),
                               static_cast<unsigned long long>(
                                   reader->height())));
        ASSERT_NO_FATAL_FAILURE(ExpectSameResult(
            *results.back(), SimulateProposal(*reader, *cc, inv, true)));
        auto [it, first] =
            by_height.emplace(reader->height(), results.back().get());
        // One object per height, never shared across heights.
        EXPECT_EQ(it->second, results.back().get());
        if (first) {
          for (const auto& [height, other] : by_height) {
            if (height != reader->height()) {
              EXPECT_NE(other, results.back().get());
            }
          }
        }
      }
      EXPECT_EQ(simulations, static_cast<int>(by_height.size()));
      if (by_height.size() > 1) ++mixed_heights;
      const EndorsementResult& at_head = *results[0];  // peer 0 keeps up
      if (at_head.app_status.ok()) {
        for (const WriteItem& write : at_head.rwset.writes) {
          block_updates.emplace_back(
              write, Version{number, static_cast<uint32_t>(t)});
        }
      }
      // Held results are shared; once the last holder is gone the next
      // endorsement at that height simulates again.
      const int before = simulations;
      state.Endorse(readers[0], id, simulate);
      EXPECT_EQ(simulations, before);
      results.clear();
      state.Endorse(readers[0], id, simulate);
      EXPECT_EQ(simulations, before + 1);
    }
    auto block = std::make_shared<Block>();
    block->number = number;
    chain.push_back(block);
    updates.push_back(std::move(block_updates));
    // Peers commit at their own pace; peer 0 always keeps up.
    for (int p = 0; p < kPeers; ++p) {
      StateView* peer = readers[p];
      while (peer->height() < number && (p == 0 || rng.Bernoulli(0.5))) {
        const uint64_t next = peer->height() + 1;
        state.Validate(peer, chain[next - 1], [&](const StateDatabase&) {
          ValidationOutcome outcome;
          outcome.state_updates = updates[next - 1];
          return outcome;
        });
        ASSERT_TRUE(state.Commit(peer, chain[next - 1]).ok());
      }
    }
    // The snapshot rises in lagged steps and stays below the head.
    if (rng.Bernoulli(0.4)) {
      const uint64_t room = state.height() - snapshot->height();  // >= 1
      state.Advance(snapshot, snapshot->height() + rng.UniformU64(room));
    }
  }
  EXPECT_EQ(state.height(), static_cast<uint64_t>(kBlocks));
  EXPECT_GT(mixed_heights, kBlocks * kTxsPerBlock / 2);
}

class ChannelEndorseMemoTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllChaincodes, ChannelEndorseMemoTest,
                         ::testing::Values("ehr", "dv", "scm", "drm",
                                           "genchain", "tpcc", "asset"));

TEST_P(ChannelEndorseMemoTest, SharedResultsEqualFreshSimulations) {
  for (uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    ASSERT_NO_FATAL_FAILURE(RunEndorseDifferential(GetParam(), seed));
  }
}

// Forwards to `inner` and counts its Invoke calls.
class CountingChaincode : public Chaincode {
 public:
  CountingChaincode(std::shared_ptr<Chaincode> inner, uint64_t* invokes)
      : inner_(std::move(inner)), invokes_(invokes) {}

  std::string name() const override { return inner_->name(); }
  std::vector<WriteItem> BootstrapState() const override {
    return inner_->BootstrapState();
  }
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override {
    ++*invokes_;
    return inner_->Invoke(stub, inv);
  }
  std::vector<std::string> Functions() const override {
    return inner_->Functions();
  }

 private:
  std::shared_ptr<Chaincode> inner_;
  uint64_t* invokes_;
};

// C2 (8 orgs x 4 peers, policy P0: every org endorses) with the DV
// chaincode, whose range reads make every endorser's simulation
// costly: 5 s at 100 tps, seed 42.
TEST(ChannelEndorseCountTest, DvC2SimulatesOncePerTxAndHeight) {
  ExperimentConfig config = ExperimentConfig::DefaultsC2();
  config.workload.chaincode = "dv";
  config.duration = 5 * kSecond;
  config.arrival_rate_tps = 100;
  uint64_t invokes = 0;
  auto chaincode = std::make_shared<CountingChaincode>(
      MakeChaincodeFor(config.workload).value(), &invokes);
  auto workload = std::shared_ptr<WorkloadGenerator>(
      MakeWorkload(config.workload, /*rich=*/false).value());
  Environment env(42);
  FabricNetwork network(config.fabric, &env, chaincode, workload);
  ASSERT_TRUE(network.Init().ok());
  network.StartLoad(config.arrival_rate_tps, config.duration);
  env.RunAll();
  ASSERT_EQ(network.ledger().TotalTransactions(), 469u);
  // Before endorsers at one height shared one simulation, every
  // endorser ran the chaincode: 3752 = 469 txs x 8 orgs.
  EXPECT_EQ(invokes, 542u);
}

}  // namespace
}  // namespace fabricsim
