// Actor-level tests for the Peer: endorsement queueing, out-of-order
// block buffering, validation shared through the channel's record, and
// the FabricSharp snapshot view.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/chaincode/genchain.h"
#include "src/peer/peer.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {
namespace {

class PeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<Environment>(7);
    net_ = std::make_unique<Network>(NetworkConfig{}, Rng(7));
    chaincode_ = std::make_unique<GenChaincode>(
        GenChaincodeSpec::PaperDefault(/*keys=*/50));
    state_ = BootstrappedState();
  }

  // A channel world state holding the chaincode's bootstrap writes.
  std::unique_ptr<ChannelState> BootstrappedState() {
    auto state = std::make_unique<ChannelState>();
    EXPECT_TRUE(state->Bootstrap(chaincode_->BootstrapState()).ok());
    return state;
  }

  // Reads `state_` unless a test gives the peer a world state of its own.
  Peer::Params BaseParams() {
    Peer::Params params;
    params.id = 0;
    params.org = 0;
    params.node = 1;
    params.env = env_.get();
    params.net = net_.get();
    params.channel_states = {state_.get()};
    params.chaincode = chaincode_.get();
    params.policy = MakePolicy(PolicyPreset::kP0AllOrgs, 2);
    params.db_profile = DbLatencyProfile::LevelDb();
    params.timing = TimingConfig{};
    params.timing.peer_service_jitter = 0;  // deterministic for tests
    params.rng = Rng(7);
    return params;
  }

  std::shared_ptr<Block> MakeWriterBlock(uint64_t number,
                                         const std::string& key) {
    auto block = std::make_shared<Block>();
    block->number = number;
    Transaction tx;
    tx.id = number;
    tx.rwset.writes.push_back(WriteItem{key, "v" + std::to_string(number),
                                        false});
    uint64_t digest = tx.rwset.Digest();
    tx.endorsements.push_back(Endorsement{0, 0, digest, true});
    tx.endorsements.push_back(Endorsement{1, 1, digest, true});
    block->txs.push_back(std::move(tx));
    block->results.assign(1, TxValidationResult{});
    return block;
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<GenChaincode> chaincode_;
  std::unique_ptr<ChannelState> state_;
};

TEST_F(PeerTest, EndorsesAgainstBootstrappedState) {
  Peer peer(BaseParams());

  ProposalResponse got;
  ProposalRequest request;
  request.tx_id = 42;
  request.invocation = Invocation{"readKeys", {GenChaincode::Key(3)}};
  request.reply = [&](const ProposalResponse& r) { got = r; };
  peer.HandleProposal(std::move(request));
  env_->RunAll();

  EXPECT_EQ(got.tx_id, 42u);
  EXPECT_TRUE(got.app_ok);
  ASSERT_EQ(got.rwset->reads.size(), 1u);
  EXPECT_TRUE(got.rwset->reads[0].found);
  EXPECT_EQ(got.rwset->reads[0].version, kBootstrapVersion);
  EXPECT_EQ(got.endorsement.org_id, 0);
  EXPECT_EQ(got.endorsement.rwset_digest, got.rwset->Digest());
}

TEST_F(PeerTest, EndorsementTakesDbAndSigningTime) {
  Peer peer(BaseParams());
  SimTime completion = -1;
  ProposalRequest request;
  request.invocation = Invocation{"readKeys", {GenChaincode::Key(0)}};
  request.reply = [&](const ProposalResponse&) { completion = env_->now(); };
  peer.HandleProposal(std::move(request));
  env_->RunAll();
  TimingConfig timing;
  SimTime expected = timing.proposal_overhead +
                     DbLatencyProfile::LevelDb().get +
                     timing.endorsement_sign_cost;
  EXPECT_EQ(completion, expected);
}

TEST_F(PeerTest, OutOfOrderBlocksAreBuffered) {
  Peer peer(BaseParams());
  std::string key = GenChaincode::Key(1);

  // Deliver block 2 before block 1 (network reordering).
  peer.HandleBlock(MakeWriterBlock(2, key));
  env_->RunAll();
  EXPECT_EQ(peer.committed_height(), 0u);  // still waiting for block 1

  peer.HandleBlock(MakeWriterBlock(1, key));
  env_->RunAll();
  EXPECT_EQ(peer.committed_height(), 2u);
  // Block 2's write won (applied last).
  EXPECT_EQ(peer.state().Get(key)->value, "v2");
  EXPECT_EQ(peer.state().Get(key)->version, (Version{2, 0}));
}

TEST_F(PeerTest, CommitCallbackFiresInOrder) {
  Peer::Params params = BaseParams();
  std::vector<uint64_t> committed;
  params.on_commit = [&](ChannelId, uint64_t number,
                         const ValidationOutcome&) {
    committed.push_back(number);
  };
  Peer peer(std::move(params));
  peer.HandleBlock(MakeWriterBlock(3, GenChaincode::Key(0)));
  peer.HandleBlock(MakeWriterBlock(1, GenChaincode::Key(0)));
  peer.HandleBlock(MakeWriterBlock(2, GenChaincode::Key(0)));
  env_->RunAll();
  EXPECT_EQ(committed, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(PeerTest, ValidationCacheSharedAcrossPeers) {
  // Two peers on one channel state: the channel's record validates the
  // block once and hands both peers the same outcome object.
  std::vector<const ValidationOutcome*> outcomes;
  auto record = [&](ChannelId, uint64_t, const ValidationOutcome& outcome) {
    outcomes.push_back(&outcome);
    EXPECT_EQ(outcome.valid_count, 1u);
  };
  Peer::Params p1 = BaseParams();
  p1.on_commit = record;
  Peer::Params p2 = BaseParams();
  p2.id = 1;
  p2.node = 2;
  p2.on_commit = record;
  Peer peer1(std::move(p1));
  Peer peer2(std::move(p2));

  auto block = MakeWriterBlock(1, GenChaincode::Key(4));
  peer1.HandleBlock(block);
  peer2.HandleBlock(block);
  env_->RunAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], outcomes[1]);
  // Each peer's own commit shows: both views moved to height 1, and
  // both peers copied the one hash-chain link.
  EXPECT_TRUE(state_->violations().empty());
  for (const Peer* peer : {&peer1, &peer2}) {
    EXPECT_EQ(peer->committed_height(), 1u);
    std::optional<VersionedValue> got = peer->state().Get(GenChaincode::Key(4));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "v1");
    EXPECT_EQ(got->version, (Version{1, 0}));
    ASSERT_EQ(peer->chain_records(0).size(), 1u);
    EXPECT_EQ(peer->chain_records(0)[0].chain_hash,
              peer1.chain_records(0)[0].chain_hash);
  }
  // No peer lags, so the record is gone.
  EXPECT_EQ(state_->undo_records(), 0u);
}

TEST_F(PeerTest, FabricSharpSnapshotViewLagsCommittedState) {
  Peer::Params params = BaseParams();
  params.variant = FabricVariant::kFabricSharp;
  params.snapshot_interval = 500 * kMillisecond;
  Peer peer(std::move(params));
  std::string key = GenChaincode::Key(9);

  peer.HandleBlock(MakeWriterBlock(1, key));
  // Run only until the validation commit completes, but before the
  // snapshot refresh (which happens up to 500 ms later).
  env_->RunUntil(90 * kMillisecond);
  ASSERT_EQ(peer.committed_height(), 1u);
  EXPECT_EQ(peer.state().Get(key)->value, "v1");
  // The endorsement view still serves the bootstrap value.
  EXPECT_NE(&peer.endorse_view(), &peer.state());
  EXPECT_EQ(peer.endorse_view().Get(key)->version, kBootstrapVersion);

  env_->RunAll();  // snapshot refresh applies
  EXPECT_EQ(peer.endorse_view().Get(key)->value, "v1");
}

TEST_F(PeerTest, VirtualBlockGroupAmortizesFixedCommitCosts) {
  // With a virtual block boundary of 2, only every second block pays
  // the fixed commit costs (state-DB batch + ledger fsync).
  Peer::Params grouped = BaseParams();
  grouped.virtual_block_group = 2;
  // Each peer commits to a world state of its own, so each commit shows.
  std::unique_ptr<ChannelState> grouped_state = BootstrappedState();
  grouped.channel_states = {grouped_state.get()};
  Peer peer_grouped(std::move(grouped));
  Peer peer_plain(BaseParams());
  for (uint64_t n = 1; n <= 4; ++n) {
    peer_grouped.HandleBlock(MakeWriterBlock(n, GenChaincode::Key(2)));
    peer_plain.HandleBlock(MakeWriterBlock(n, GenChaincode::Key(2)));
  }
  env_->RunAll();
  EXPECT_EQ(peer_grouped.committed_height(), 4u);
  EXPECT_EQ(peer_plain.committed_height(), 4u);
  // Both end in the same state, but the grouped peer spent less
  // validation service time (2 of 4 fixed charges skipped).
  for (const Peer* peer : {&peer_grouped, &peer_plain}) {
    std::optional<VersionedValue> got = peer->state().Get(GenChaincode::Key(2));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "v4");
    EXPECT_EQ(got->version, (Version{4, 0}));
  }
  EXPECT_LT(peer_grouped.validate_queue().total_service(),
            peer_plain.validate_queue().total_service());
}

TEST_F(PeerTest, StockVariantSharesEndorseView) {
  Peer peer(BaseParams());
  EXPECT_EQ(&peer.endorse_view(), &peer.state());
}

}  // namespace
}  // namespace fabricsim
