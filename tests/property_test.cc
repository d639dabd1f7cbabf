// Parameterized property sweeps over the substrates: randomized
// inputs, structural invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/core/runner.h"
#include "src/ext/fabricpp/conflict_graph.h"
#include "src/faults/fault_plan.h"
#include "src/ordering/block_cutter.h"
#include "src/peer/committer.h"
#include "src/peer/validator.h"
#include "src/policy/policy_presets.h"
#include "src/statedb/memory_state_db.h"

namespace fabricsim {
namespace {

// ------------------------------------------------ BlockCutter sweeps

class BlockCutterPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BlockCutterPropertyTest, EveryTxCutExactlyOnceInOrder) {
  uint32_t max_count = GetParam();
  BlockCutter cutter(BlockCutter::Config{max_count, 1 << 20});
  Rng rng(max_count);
  std::vector<TxId> cut_order;
  TxId next_id = 1;
  for (int round = 0; round < 500; ++round) {
    Transaction tx;
    tx.id = next_id++;
    tx.rwset.writes.push_back(WriteItem{"k", "v", false});
    for (auto& batch : cutter.AddTransaction(std::move(tx))) {
      for (Transaction& t : batch.txs) cut_order.push_back(t.id);
    }
    if (rng.Bernoulli(0.05)) {  // random timeout fires
      for (Transaction& t : cutter.CutPending()) cut_order.push_back(t.id);
    }
  }
  for (Transaction& t : cutter.CutPending()) cut_order.push_back(t.id);
  ASSERT_EQ(cut_order.size(), 500u);
  for (size_t i = 0; i < cut_order.size(); ++i) {
    EXPECT_EQ(cut_order[i], i + 1);  // FIFO, no loss, no duplication
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockCutterPropertyTest,
                         ::testing::Values(1u, 2u, 7u, 64u, 1000u));

// --------------------------------------------- ConflictGraph sweeps

class ConflictGraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflictGraphPropertyTest, FvsAlwaysLeavesAcyclicGraph) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Transaction> txs;
    int n = 5 + static_cast<int>(rng.UniformU64(40));
    for (int t = 0; t < n; ++t) {
      Transaction tx;
      tx.id = static_cast<TxId>(t + 1);
      int ops = 1 + static_cast<int>(rng.UniformU64(3));
      for (int o = 0; o < ops; ++o) {
        std::string key = "k" + std::to_string(rng.UniformU64(8));
        if (rng.Bernoulli(0.5)) {
          tx.rwset.reads.push_back(ReadItem{key, {0, 0}, true});
        } else {
          tx.rwset.writes.push_back(WriteItem{key, "v", false});
        }
      }
      txs.push_back(std::move(tx));
    }
    uint64_t ops = 0;
    ConflictGraph graph = ConflictGraph::Build(txs, &ops);
    std::vector<uint32_t> aborted = graph.GreedyFeedbackVertexSet(&ops);
    std::vector<bool> alive(txs.size(), true);
    for (uint32_t idx : aborted) alive[idx] = false;
    size_t alive_count = 0;
    for (bool a : alive) alive_count += a ? 1 : 0;
    // A full topological order exists iff the survivors are acyclic.
    std::vector<uint32_t> order = graph.TopologicalOrder(alive, &ops);
    EXPECT_EQ(order.size(), alive_count);
    // And the order respects every surviving edge.
    std::vector<size_t> position(txs.size(), 0);
    for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    for (uint32_t u = 0; u < txs.size(); ++u) {
      if (!alive[u]) continue;
      for (uint32_t v : graph.adjacency()[u]) {
        if (!alive[v]) continue;
        EXPECT_LT(position[u], position[v]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictGraphPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------- Validator vs serial-replay sweep

class ValidatorPropertyTest : public ::testing::TestWithParam<int> {};

// For random blocks over a small key space: committing the validator's
// chosen transactions serially must yield exactly the final state the
// committer produces, and every valid transaction's reads must match
// the serial pre-state (serializability of the committed subsequence).
TEST_P(ValidatorPropertyTest, CommittedSubsequenceIsSerial) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  Validator validator(MakePolicy(PolicyPreset::kP0AllOrgs, 2));

  MemoryStateDb db;
  for (int k = 0; k < 6; ++k) {
    db.ApplyWrite(WriteItem{"k" + std::to_string(k), "init", false}, {0, 0});
  }

  // Random block: transactions read/write random keys with versions
  // sampled from {current, stale}.
  Block block;
  block.number = 1;
  for (int t = 0; t < 30; ++t) {
    Transaction tx;
    tx.id = static_cast<TxId>(t + 1);
    std::string key = "k" + std::to_string(rng.UniformU64(6));
    Version version = rng.Bernoulli(0.8) ? Version{0, 0} : Version{9, 9};
    tx.rwset.reads.push_back(ReadItem{key, version, true});
    if (rng.Bernoulli(0.7)) {
      std::string wkey = "k" + std::to_string(rng.UniformU64(6));
      tx.rwset.writes.push_back(
          WriteItem{wkey, "w" + std::to_string(t), false});
    }
    uint64_t digest = tx.rwset.Digest();
    tx.endorsements = {Endorsement{0, 0, digest, true},
                       Endorsement{1, 1, digest, true}};
    block.txs.push_back(std::move(tx));
  }
  block.results.assign(block.txs.size(), TxValidationResult{});

  ValidationOutcome outcome = validator.ValidateBlock(db, block);

  // Serial replay of the valid subsequence.
  MemoryStateDb serial;
  for (int k = 0; k < 6; ++k) {
    serial.ApplyWrite(WriteItem{"k" + std::to_string(k), "init", false},
                      {0, 0});
  }
  for (uint32_t i = 0; i < block.txs.size(); ++i) {
    if (outcome.results[i].code != TxValidationCode::kValid) continue;
    const Transaction& tx = block.txs[i];
    // Serializability: each committed read must see exactly the
    // version it was endorsed with.
    for (const ReadItem& read : tx.rwset.reads) {
      auto vv = serial.Get(read.key);
      ASSERT_TRUE(vv.has_value());
      EXPECT_EQ(vv->version, read.version) << "tx " << tx.id;
    }
    for (const WriteItem& write : tx.rwset.writes) {
      serial.ApplyWrite(write, Version{1, i});
    }
  }
  ASSERT_TRUE(CommitStateUpdates(db, outcome.state_updates).ok());
  std::vector<StateEntry> got = db.Scan();
  std::vector<StateEntry> want = serial.Scan();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vv.value, want[i].vv.value);
    EXPECT_EQ(got[i].vv.version, want[i].vv.version);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorPropertyTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------- Policy random sweeps

TEST(PolicyPropertyTest, EvaluateMatchesBruteForceSemantics) {
  // For random 2-level policies over 5 orgs, Evaluate must equal the
  // recursive definition computed independently.
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    int num_subs = 2 + static_cast<int>(rng.UniformU64(3));
    std::vector<EndorsementPolicy> subs;
    std::vector<std::set<OrgId>> sub_orgs;
    for (int s = 0; s < num_subs; ++s) {
      int num_leaves = 1 + static_cast<int>(rng.UniformU64(3));
      std::vector<EndorsementPolicy> leaves;
      std::set<OrgId> orgs;
      for (int l = 0; l < num_leaves; ++l) {
        OrgId org = static_cast<OrgId>(rng.UniformU64(5));
        leaves.push_back(EndorsementPolicy::SignedBy(org));
        orgs.insert(org);
      }
      int k = 1 + static_cast<int>(rng.UniformU64(leaves.size()));
      subs.push_back(EndorsementPolicy::NOutOf(k, leaves));
      sub_orgs.push_back(orgs);
      (void)k;
    }
    int n = 1 + static_cast<int>(rng.UniformU64(subs.size()));
    std::vector<int> sub_needs;
    for (const auto& sub : subs) sub_needs.push_back(sub.MinSignatures());
    EndorsementPolicy policy = EndorsementPolicy::NOutOf(n, subs);

    for (int mask = 0; mask < 32; ++mask) {
      std::set<OrgId> signers;
      for (int org = 0; org < 5; ++org) {
        if (mask & (1 << org)) signers.insert(org);
      }
      // Reference: count satisfied sub-policies by direct evaluation.
      int satisfied = 0;
      for (const auto& sub : subs) {
        if (sub.Evaluate(signers)) ++satisfied;
      }
      EXPECT_EQ(policy.Evaluate(signers), satisfied >= n);
    }
  }
}

// ----------------------- Chain integrity under chaos (regression)

// RunOnce audits every run with the chain-integrity checker and turns
// a violation into an Internal error, so "the run succeeded" is the
// property: no fault mix may leave diverging peer chains, non-dense
// numbering, double-committed or lost-acked transactions.
class ChaosIntegrityPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

// The PR 3 chaos mix (compat single-leader ordering): org delay, peer
// crash + restart, orderer pause, lossy client link, retries and MVCC
// resubmission all active at once.
TEST_P(ChaosIntegrityPropertyTest, CompatFaultMixKeepsTheChainSound) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 8 * kSecond;
  config.arrival_rate_tps = 60;
  config.fabric.retry.endorse_timeout = 400 * kMillisecond;
  config.fabric.retry.max_endorse_retries = 2;
  config.fabric.retry.resubmit_on_mvcc = true;
  DelayWindow window;
  window.org = 1;
  window.extra = 50 * kMillisecond;
  window.jitter = 5 * kMillisecond;
  window.from = 2 * kSecond;
  window.to = 5 * kSecond;
  LinkFaultRule lossy;  // orderer <-> first client, 5% loss mid-run
  lossy.a = 0;
  lossy.b = 5;
  lossy.drop_prob = 0.05;
  lossy.from = 2 * kSecond;
  lossy.to = 6 * kSecond;
  config.fabric.faults.Delay(window)
      .Crash(/*peer=*/1, 3 * kSecond, /*restart_at=*/5 * kSecond)
      .PauseOrderer(4 * kSecond, 4500 * kMillisecond)
      .DropLink(lossy);
  Result<FailureReport> report = RunOnce(config, GetParam());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().ledger_txs, 0u);
}

// Replicated ordering under a leader crash layered with a peer crash
// and an org-wide delay: failover plus client re-broadcasts must not
// lose or double-commit any acked transaction on any peer.
TEST_P(ChaosIntegrityPropertyTest, LeaderCrashMixKeepsTheChainSound) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 50;
  config.fabric.ordering.replicated = true;
  config.fabric.retry.resubmit_on_mvcc = true;
  DelayWindow window;
  window.org = 0;
  window.extra = 20 * kMillisecond;
  window.jitter = 2 * kMillisecond;
  window.from = 1 * kSecond;
  window.to = 6 * kSecond;
  config.fabric.faults.Delay(window)
      .Crash(/*peer=*/2, 4 * kSecond, /*restart_at=*/7 * kSecond)
      .CrashLeader(3 * kSecond, /*restart_at=*/6 * kSecond);
  Result<FailureReport> report = RunOnce(config, GetParam());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().ledger_txs, 0u);
  EXPECT_GE(report.value().orderer_elections, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosIntegrityPropertyTest,
                         ::testing::Values(1u, 11u, 23u, 42u));

}  // namespace
}  // namespace fabricsim
