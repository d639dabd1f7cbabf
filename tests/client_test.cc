// Actor-level tests for the client: proposal fan-out to minimal
// policy-satisfying sets, digest-majority envelope assembly, app-error
// drops, and read-only skipping.
#include <gtest/gtest.h>

#include <memory>

#include "src/chaincode/genchain.h"
#include "src/client/client.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {
namespace {

// A workload that always issues the same invocation.
class FixedWorkload : public WorkloadGenerator {
 public:
  explicit FixedWorkload(Invocation inv) : inv_(std::move(inv)) {}
  Invocation Next(Rng&) override { return inv_; }
  std::string chaincode() const override { return "genChain"; }

 private:
  Invocation inv_;
};

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<Environment>(11);
    net_ = std::make_unique<Network>(NetworkConfig{}, Rng(11));
    chaincode_ = std::make_unique<GenChaincode>(
        GenChaincodeSpec::PaperDefault(/*keys=*/20));
  }

  // Builds `num_orgs` x 1 peers and an orderer; returns the client.
  void BuildNetwork(int num_orgs, EndorsementPolicy policy,
                    Invocation inv, bool submit_read_only = true) {
    policy_ = std::make_unique<EndorsementPolicy>(policy);
    state_ = std::make_unique<ChannelState>(
        FrozenState::Build(chaincode_->BootstrapState()));
    for (int org = 0; org < num_orgs; ++org) {
      Peer::Params params;
      params.id = org;
      params.org = org;
      params.node = 1 + org;
      params.env = env_.get();
      params.net = net_.get();
      params.channel_states = {state_.get()};
      params.chaincode = chaincode_.get();
      params.policy = *policy_;
      params.db_profile = DbLatencyProfile::LevelDb();
      params.timing.peer_service_jitter = 0;
      params.rng = Rng(100 + static_cast<uint64_t>(org));
      peers_.push_back(std::make_unique<Peer>(std::move(params)));
      peers_by_org_.push_back({peers_.back().get()});
    }

    Orderer::Params oparams;
    oparams.node = 0;
    oparams.env = env_.get();
    oparams.net = net_.get();
    oparams.cutter = BlockCutter::Config{1, 1 << 20};
    oparams.timing = TimingConfig{};
    oparams.rng = Rng(55);
    for (auto& peer : peers_) {
      Peer* p = peer.get();
      oparams.peers.push_back(Orderer::Params::PeerEndpoint{
          p->node(), [p](std::shared_ptr<const Block> block) {
            p->HandleBlock(std::move(block));
          }});
    }
    orderer_ = std::make_unique<Orderer>(std::move(oparams));

    Client::Params cparams;
    cparams.id = 0;
    cparams.node = 100;
    cparams.env = env_.get();
    cparams.net = net_.get();
    workload_ = std::make_unique<FixedWorkload>(std::move(inv));
    cparams.workload = workload_.get();
    cparams.policy = policy_.get();
    cparams.peers_by_org = peers_by_org_;
    cparams.orderers = {orderer_.get()};
    cparams.rng = Rng(77);
    cparams.arrivals = ArrivalProcess(arrival_rate_tps_);
    cparams.load_end_time = load_end_;
    cparams.submit_read_only = submit_read_only;
    cparams.stats = &stats_;
    cparams.tx_id_counter = &tx_counter_;
    client_ = std::make_unique<Client>(std::move(cparams));
    client_->Start();
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<GenChaincode> chaincode_;
  std::unique_ptr<EndorsementPolicy> policy_;
  /// The one world state all peers read; declared first to outlive them.
  std::unique_ptr<ChannelState> state_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<std::vector<Peer*>> peers_by_org_;
  std::unique_ptr<Orderer> orderer_;
  std::unique_ptr<WorkloadGenerator> workload_;
  std::unique_ptr<Client> client_;
  RunStats stats_;
  TxId tx_counter_ = 0;
  double arrival_rate_tps_ = 100;
  SimTime load_end_ = 200 * kMillisecond;
};

TEST_F(ClientTest, PolicyReferencingMissingOrgsDoesNotCrash) {
  // The P0 preset clamps to two orgs; on a one-org network the policy
  // then references Org1, which has no peer vector at all. The client
  // must treat it like an org with no endorsers (previously an
  // out-of-bounds read).
  BuildNetwork(1, MakePolicy(PolicyPreset::kP0AllOrgs, 1),
               Invocation{"readKeys", {GenChaincode::Key(0)}});
  env_->RunAll();
  EXPECT_GT(stats_.txs_generated, 0u);
  // Org0 answers every proposal; the unsatisfiable 2-of policy is the
  // validators' problem (ENDORSEMENT_POLICY_FAILURE), not a crash.
  EXPECT_EQ(orderer_->txs_received(), stats_.txs_submitted);
}

TEST_F(ClientTest, ArrivalClockTracksTheConfiguredRate) {
  // Regression for the interarrival truncation bug: at 200k tps the
  // mean exponential gap is 5 ticks, and float->int truncation chopped
  // ~half a tick off every gap — the measured submission rate ran ~10%
  // hot. Round-to-nearest (clamped to >= 1 tick) keeps the realized
  // rate within a few percent of nominal.
  arrival_rate_tps_ = 200000;
  load_end_ = 100 * kMillisecond;
  BuildNetwork(2, MakePolicy(PolicyPreset::kP0AllOrgs, 2),
               Invocation{"readKeys", {GenChaincode::Key(0)}});
  env_->RunAll();
  // Nominal: 20000 arrivals in the window (Poisson sd ~141). The >=1
  // clamp biases the realized rate ~2% low at this gap scale; the old
  // truncation put it ~10% HIGH (22k+), well outside this band.
  EXPECT_GT(stats_.txs_generated, 19000u);
  EXPECT_LT(stats_.txs_generated, 20500u);
}

TEST_F(ClientTest, SubmitsEndToEnd) {
  BuildNetwork(2, MakePolicy(PolicyPreset::kP0AllOrgs, 2),
               Invocation{"updateKeys", {GenChaincode::Key(1)}});
  env_->RunAll();
  EXPECT_GT(stats_.txs_generated, 10u);
  EXPECT_EQ(stats_.txs_submitted, stats_.txs_generated);
  EXPECT_EQ(stats_.app_errors, 0u);
  // Every submitted transaction was ordered and delivered.
  EXPECT_EQ(orderer_->txs_received(), stats_.txs_submitted);
  EXPECT_GT(peers_[0]->committed_height(), 0u);
}

TEST_F(ClientTest, P0TargetsAllOrgs) {
  BuildNetwork(3, MakePolicy(PolicyPreset::kP0AllOrgs, 3),
               Invocation{"readKeys", {GenChaincode::Key(0)}});
  env_->RunAll();
  // Every org's (single) peer served an endorsement for every tx.
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->endorse_queue().tasks_completed(), stats_.txs_generated);
  }
}

TEST_F(ClientTest, P1TargetsMinimalRotatingSet) {
  // P1 over 3 orgs: Org0 plus one rotating other — Org0 sees every
  // proposal, Org1/Org2 roughly half each.
  BuildNetwork(3, MakePolicy(PolicyPreset::kP1OrgZeroPlusAny, 3),
               Invocation{"readKeys", {GenChaincode::Key(0)}});
  env_->RunAll();
  uint64_t total = stats_.txs_generated;
  EXPECT_EQ(peers_[0]->endorse_queue().tasks_completed(), total);
  uint64_t org1 = peers_[1]->endorse_queue().tasks_completed();
  uint64_t org2 = peers_[2]->endorse_queue().tasks_completed();
  EXPECT_EQ(org1 + org2, total);
  EXPECT_GT(org1, 0u);
  EXPECT_GT(org2, 0u);
}

TEST_F(ClientTest, AppErrorsAreDroppedBeforeOrdering) {
  // Unknown function -> every endorsement responds with an error.
  BuildNetwork(2, MakePolicy(PolicyPreset::kP0AllOrgs, 2),
               Invocation{"noSuchFunction", {}});
  env_->RunAll();
  EXPECT_GT(stats_.app_errors, 0u);
  EXPECT_EQ(stats_.app_errors, stats_.txs_generated);
  EXPECT_EQ(stats_.txs_submitted, 0u);
  EXPECT_EQ(orderer_->txs_received(), 0u);
}

TEST_F(ClientTest, ReadOnlySkippedWhenConfigured) {
  BuildNetwork(2, MakePolicy(PolicyPreset::kP0AllOrgs, 2),
               Invocation{"readKeys", {GenChaincode::Key(2)}},
               /*submit_read_only=*/false);
  env_->RunAll();
  EXPECT_GT(stats_.read_only_skipped, 0u);
  EXPECT_EQ(stats_.read_only_skipped, stats_.txs_generated);
  EXPECT_EQ(stats_.txs_submitted, 0u);
}

TEST_F(ClientTest, ReadOnlySubmittedByDefault) {
  BuildNetwork(2, MakePolicy(PolicyPreset::kP0AllOrgs, 2),
               Invocation{"readKeys", {GenChaincode::Key(2)}});
  env_->RunAll();
  EXPECT_EQ(stats_.read_only_skipped, 0u);
  EXPECT_EQ(stats_.txs_submitted, stats_.txs_generated);
}

}  // namespace
}  // namespace fabricsim
