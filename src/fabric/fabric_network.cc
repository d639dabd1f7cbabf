#include "src/fabric/fabric_network.h"

#include <utility>

#include "src/ext/streamchain/streamchain.h"
#include "src/policy/policy_parser.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {

FabricNetwork::FabricNetwork(FabricConfig config, Environment* env,
                             std::shared_ptr<Chaincode> chaincode,
                             std::shared_ptr<WorkloadGenerator> workload)
    : config_(std::move(config)),
      env_(env),
      chaincode_(std::move(chaincode)),
      workload_(std::move(workload)) {}

FabricNetwork::~FabricNetwork() = default;

Status FabricNetwork::InstallChaincode(ChannelId channel,
                                       std::shared_ptr<Chaincode> chaincode) {
  if (initialized_) {
    return Status::FailedPrecondition("InstallChaincode must precede Init()");
  }
  if (chaincode == nullptr) {
    return Status::InvalidArgument("chaincode is required");
  }
  if (channel < 0 || channel >= num_channels()) {
    return Status::InvalidArgument("channel out of range");
  }
  // Shadows the default only when it shares the default chaincode's
  // name (Fabric's per-channel instantiation of one chaincode);
  // differently-named installations coexist in the registry.
  return chaincode_registry_.Register(channel, std::move(chaincode));
}

Chaincode* FabricNetwork::chaincode_for(ChannelId channel) const {
  Chaincode* chaincode =
      chaincode_registry_.Get(channel, chaincode_->name());
  return chaincode != nullptr ? chaincode : chaincode_.get();
}

Status FabricNetwork::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("Init() called twice");
  }
  if (chaincode_ == nullptr || workload_ == nullptr) {
    return Status::InvalidArgument("chaincode and workload are required");
  }
  if (config_.num_channels < 1) {
    return Status::InvalidArgument("num_channels must be >= 1");
  }
  const ClusterConfig& cluster = config_.cluster;
  if (cluster.num_orgs < 1 || cluster.peers_per_org < 1 ||
      cluster.num_clients < 1) {
    return Status::InvalidArgument("cluster must have orgs, peers, clients");
  }
  const int num_channels = this->num_channels();
  ledger_stats_ = std::make_unique<StreamingLedgerStats>(num_channels);

  // Every channel inherits the constructor's chaincode unless a
  // channel-specific installation shadows it.
  if (chaincode_registry_.Get(kDefaultChannel, chaincode_->name()) ==
      nullptr) {
    FABRICSIM_RETURN_NOT_OK(
        chaincode_registry_.Register(kDefaultChannel, chaincode_));
  }

  // --- Lifecycle tracing ---------------------------------------------
  if (config_.tracing || config_.streaming_obs) {
    TracerOptions trace_options;
    trace_options.streaming = config_.streaming_obs;
    tracer_ = std::make_unique<Tracer>(trace_options);
    tracer_->set_num_channels(num_channels);
    env_->set_tracer(tracer_.get());
  }

  // --- Endorsement policy -------------------------------------------
  if (config_.policy_text.empty()) {
    policy_ = std::make_unique<EndorsementPolicy>(
        MakePolicy(PolicyPreset::kP0AllOrgs, cluster.num_orgs));
  } else {
    Result<EndorsementPolicy> parsed = PolicyParser::Parse(config_.policy_text);
    if (!parsed.ok()) return parsed.status();
    policy_ = std::make_unique<EndorsementPolicy>(std::move(parsed).value());
    for (OrgId org : policy_->MentionedOrgs()) {
      if (org < 0 || org >= cluster.num_orgs) {
        return Status::InvalidArgument("policy references unknown org " +
                                       std::to_string(org));
      }
    }
  }

  // --- Network + chaos injection -------------------------------------
  net_ = std::make_unique<Network>(config_.net, env_->rng().Fork(1000));

  // Node ids: orderer(s) first, then peers, then clients. Compat mode
  // has exactly one orderer node (id 0), keeping the legacy layout —
  // and the legacy byte-identical traffic — untouched; replicated mode
  // gives each of the N replicas its own node id 0..N-1. Channels do
  // not add nodes: every channel's ordering pipeline is multiplexed
  // over the same orderer node ids, exactly as Fabric runs many
  // channels on one ordering service.
  int num_orderer_nodes =
      config_.ordering.replicated
          ? (cluster.num_orderers < 1 ? 1 : cluster.num_orderers)
          : 1;
  NodeId next_node = static_cast<NodeId>(num_orderer_nodes);
  NodeId orderer_node = 0;

  // --- Variant processor ---------------------------------------------
  BlockProcessor* processor = nullptr;
  if (config_.variant == FabricVariant::kFabricPlusPlus) {
    fabricpp_ = std::make_unique<FabricPlusPlusProcessor>();
    processor = fabricpp_.get();
  } else if (config_.variant == FabricVariant::kFabricSharp) {
    fabricsharp_ = std::make_unique<FabricSharpProcessor>(*policy_);
    processor = fabricsharp_.get();
  }

  // --- Overload protection --------------------------------------------
  // A single run-wide counter block; its absence (the default) is what
  // every actor checks to stay on the legacy pipeline.
  if (config_.admission.enabled()) {
    admission_stats_ = std::make_unique<AdmissionStats>();
  }

  // --- Peers -----------------------------------------------------------
  DbLatencyProfile db_profile = config_.MakeDbProfile();
  if (StreamchainModel::UsesRamDisk(config_)) {
    // Ledger and world state live on a RAM disk (§5.3.3).
    config_.timing.ledger_append_cost = static_cast<SimTime>(
        static_cast<double>(config_.timing.ledger_append_cost) *
        StorageProfile::RamDisk().commit_cost_factor);
  }
  double validation_factor =
      config_.variant == FabricVariant::kStreamchain
          ? StreamchainModel::kValidationCostFactor
          : 1.0;
  // --- World state: one per channel, bootstrapped once ----------------
  channels_.resize(static_cast<size_t>(num_channels));
  std::vector<ChannelState*> channel_states;
  for (int c = 0; c < num_channels; ++c) {
    ChannelRuntime& runtime = channels_[static_cast<size_t>(c)];
    runtime.state = std::make_unique<ChannelState>();
    FABRICSIM_RETURN_NOT_OK(
        runtime.state->Bootstrap(chaincode_for(c)->BootstrapState()));
    channel_states.push_back(runtime.state.get());
  }
  std::vector<Chaincode*> channel_chaincodes;
  if (num_channels > 1) {
    channel_chaincodes.reserve(static_cast<size_t>(num_channels));
    for (int c = 0; c < num_channels; ++c) {
      channel_chaincodes.push_back(chaincode_for(c));
    }
  }
  peers_by_org_.assign(static_cast<size_t>(cluster.num_orgs), {});
  for (int org = 0; org < cluster.num_orgs; ++org) {
    for (int i = 0; i < cluster.peers_per_org; ++i) {
      PeerId peer_id = static_cast<PeerId>(peers_.size());
      NodeId node = next_node++;
      Peer::Params params;
      params.id = peer_id;
      params.org = org;
      params.node = node;
      params.env = env_;
      params.net = net_.get();
      params.channel_states = channel_states;
      params.chaincode = chaincode_.get();
      params.channel_chaincodes = channel_chaincodes;
      params.policy = *policy_;
      params.db_profile = db_profile;
      params.timing = config_.timing;
      params.variant = config_.variant;
      params.validation_cost_factor = validation_factor;
      params.snapshot_interval = config_.fabricsharp_snapshot_interval;
      if (config_.variant == FabricVariant::kStreamchain) {
        params.virtual_block_group = config_.streamchain_virtual_block_size;
      }
      params.rng = env_->rng().Fork(2000 + static_cast<uint64_t>(peer_id));
      if (admission_stats_ != nullptr) {
        params.admission = &config_.admission;
        params.admission_stats = admission_stats_.get();
      }
      if (peer_id == 0) {
        params.on_commit = [this](ChannelId channel, uint64_t number,
                                  const ValidationOutcome& outcome) {
          RecordCommit(channel, number, outcome);
        };
      }
      auto peer = std::make_unique<Peer>(std::move(params));
      if (org == config_.delayed_org) {
        net_->InjectDelay(node, InjectedDelay{config_.injected_delay,
                                              config_.injected_delay_jitter});
      }
      peers_by_org_[static_cast<size_t>(org)].push_back(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  // --- Ordering service (one pipeline per channel) --------------------
  // Block dissemination follows Fabric's gossip layout: the ordering
  // service delivers to one leader peer per organization; the leader
  // forwards to its org members. A chaos-delayed org therefore pays
  // the injected delay twice on state dissemination (orderer->leader,
  // leader->member) but only once on the proposal path — its members
  // endorse on state that lags the healthy orgs. Every channel uses
  // the same gossip endpoints; the peer routes by block->channel.
  std::vector<Orderer::Params::PeerEndpoint> delivery_endpoints;
  for (const std::vector<Peer*>& org_peers : peers_by_org_) {
    if (org_peers.empty()) continue;
    Peer* leader = org_peers.front();
    std::vector<Peer*> members(org_peers.begin() + 1, org_peers.end());
    Network* net = net_.get();
    Environment* env = env_;
    delivery_endpoints.push_back(Orderer::Params::PeerEndpoint{
        leader->node(),
        [leader, members, net, env](std::shared_ptr<const Block> block) {
          leader->HandleBlock(block);
          for (Peer* member : members) {
            net->Send(*env, leader->node(), member->node(),
                      block->ByteSize(),
                      [member, block]() { member->HandleBlock(block); });
          }
        }});
  }
  auto on_block_cut = [this](std::shared_ptr<Block> block) {
    ChannelRuntime& runtime = channels_[static_cast<size_t>(block->channel)];
    runtime.canonical_blocks[block->number] = std::move(block);
  };
  auto on_early_abort = [this](const Transaction&, TxValidationCode code) {
    if (code == TxValidationCode::kAbortedNotSerializable) {
      ++stats_.early_aborts_not_serializable;
    } else if (code == TxValidationCode::kAbortedByReordering) {
      ++stats_.early_aborts_by_reordering;
    }
  };
  // RNG stream layout: channel 0 keeps the legacy stream ids (3000
  // compat / 3000+i replicated), forked at the same point in Init as
  // before channels existed, so a single-channel network draws the
  // exact legacy sequence. Additional channels fork from a disjoint id
  // range afterwards.
  for (int c = 0; c < num_channels; ++c) {
    ChannelRuntime& runtime = channels_[static_cast<size_t>(c)];
    if (config_.ordering.replicated) {
      RaftGroup::Params gparams;
      gparams.env = env_;
      gparams.net = net_.get();
      gparams.channel = c;
      gparams.num_replicas = num_orderer_nodes;
      gparams.node_base = 0;
      gparams.cutter =
          BlockCutter::Config{config_.block_size, config_.block_max_bytes};
      gparams.block_timeout = config_.block_timeout;
      gparams.timing = config_.timing;
      gparams.ordering = config_.ordering;
      gparams.streaming = config_.variant == FabricVariant::kStreamchain;
      gparams.processor = processor;
      for (int i = 0; i < num_orderer_nodes; ++i) {
        uint64_t stream =
            c == 0 ? 3000 + static_cast<uint64_t>(i)
                   : 30000 + static_cast<uint64_t>(c) * 64 +
                         static_cast<uint64_t>(i);
        gparams.replica_rngs.push_back(env_->rng().Fork(stream));
      }
      gparams.peers = delivery_endpoints;
      gparams.on_block_cut = on_block_cut;
      gparams.on_early_abort = on_early_abort;
      gparams.elections_sink = &stats_.orderer_elections;
      gparams.leader_changes_sink = &stats_.orderer_leader_changes;
      runtime.raft = std::make_unique<RaftGroup>(std::move(gparams));
    } else {
      Orderer::Params oparams;
      oparams.node = orderer_node;
      oparams.channel = c;
      oparams.env = env_;
      oparams.net = net_.get();
      oparams.cutter =
          BlockCutter::Config{config_.block_size, config_.block_max_bytes};
      oparams.block_timeout = config_.block_timeout;
      oparams.timing = config_.timing;
      oparams.consensus = ConsensusModel(config_.cluster.num_orderers,
                                         config_.timing.consensus_latency);
      oparams.rng = env_->rng().Fork(
          c == 0 ? 3000 : 30000 + static_cast<uint64_t>(c) * 64);
      oparams.streaming = config_.variant == FabricVariant::kStreamchain;
      oparams.processor = processor;
      oparams.peers = delivery_endpoints;
      oparams.on_block_cut = on_block_cut;
      oparams.on_early_abort = on_early_abort;
      if (admission_stats_ != nullptr) {
        oparams.admission = &config_.admission;
        oparams.admission_stats = admission_stats_.get();
      }
      runtime.orderer = std::make_unique<Orderer>(std::move(oparams));
    }
  }
  acked_txs_by_channel_.assign(static_cast<size_t>(num_channels), {});

  // --- Fault plan ------------------------------------------------------
  // Catch-up source for crash recovery: every peer can replay canonical
  // blocks it missed, on every channel. Wired unconditionally — it is
  // inert until a restart happens.
  for (auto& peer : peers_) {
    peer->set_block_fetcher([this](ChannelId channel, uint64_t number) {
      return FetchCanonicalBlock(channel, number);
    });
  }
  if (!config_.faults.empty()) {
    if (config_.faults.NeedsFaultRng()) {
      // Forked only when some rule draws randomness: Fork() advances
      // the parent stream, so an unconditional fork would perturb the
      // client streams and break empty-plan bitwise identity.
      net_->set_fault_rng(env_->rng().Fork(5000));
    }
    FaultInjector::Actors actors;
    actors.env = env_;
    actors.net = net_.get();
    actors.orderer = channels_[0].orderer.get();
    actors.raft = channels_[0].raft.get();
    for (ChannelRuntime& runtime : channels_) {
      if (runtime.orderer != nullptr) {
        actors.orderers.push_back(runtime.orderer.get());
      }
      if (runtime.raft != nullptr) {
        actors.rafts.push_back(runtime.raft.get());
      }
    }
    for (auto& peer : peers_) actors.peers.push_back(peer.get());
    actors.peers_by_org = peers_by_org_;
    fault_injector_ =
        std::make_unique<FaultInjector>(config_.faults, std::move(actors));
    FABRICSIM_RETURN_NOT_OK(fault_injector_->Install());
  }

  initialized_ = true;
  return Status::OK();
}

std::shared_ptr<const Block> FabricNetwork::FetchCanonicalBlock(
    ChannelId channel, uint64_t number) const {
  const ChannelRuntime& runtime = channels_[static_cast<size_t>(channel)];
  auto it = runtime.canonical_blocks.find(number);
  if (it != runtime.canonical_blocks.end()) return it->second;
  // Already reference-committed: the fetching peer is below the block,
  // so the channel's record still holds it.
  return runtime.state->block(number);
}

void FabricNetwork::StartLoad(double total_rate_tps, SimTime duration) {
  PopulationConfig population = PopulationConfig::SingleClass(
      static_cast<uint64_t>(config_.cluster.num_clients), total_rate_tps);
  // The legacy entry point always expands to per-client actors: a
  // threshold above the population size forces the expansion path,
  // whose per-user arithmetic (rate spread, node ids, RNG streams) is
  // byte-identical to the historical per-client loop.
  population.aggregation_threshold =
      static_cast<uint64_t>(config_.cluster.num_clients) + 1;
  Status st = StartLoad(population, duration);
  (void)st;  // cluster.num_clients >= 1 is enforced by Init()
}

Status FabricNetwork::StartLoad(
    const PopulationConfig& population, SimTime duration,
    std::vector<std::shared_ptr<WorkloadGenerator>> class_workloads) {
  if (!initialized_) {
    return Status::FailedPrecondition("Init() must precede StartLoad()");
  }
  FABRICSIM_RETURN_NOT_OK(population.Validate());
  if (!class_workloads.empty() &&
      class_workloads.size() != population.classes.size()) {
    return Status::InvalidArgument(
        "class_workloads must be empty or one entry per behaviour class");
  }
  class_workloads_ = std::move(class_workloads);
  ledger_stats_->set_window_end(env_->now() + duration);

  const int num_channels = this->num_channels();
  int num_orderer_nodes =
      channels_[0].raft != nullptr ? channels_[0].raft->size() : 1;
  NodeId client_node_base =
      static_cast<NodeId>(num_orderer_nodes + static_cast<int>(peers_.size()));

  // Shared parameter assembly for both per-user clients and aggregated
  // population actors. `actor_index` numbers every created actor in
  // order (node ids stay dense); when every class expands it equals
  // the legacy client index, so ids, node ids and affinity draws match
  // the historical loop exactly.
  auto make_params = [&](int actor_index, Rng rng, double rate_tps,
                         WorkloadGenerator* workload,
                         const ChannelAffinityConfig& affinity_config,
                         const ClientRetryPolicy& retry) {
    Client::Params params;
    params.id = actor_index;
    params.node = client_node_base + actor_index;
    params.env = env_;
    params.net = net_.get();
    params.workload = workload;
    params.policy = policy_.get();
    params.peers_by_org = peers_by_org_;
    params.orderer = channels_[0].orderer.get();
    params.orderer_node = 0;
    params.timing = config_.timing;
    params.rng = std::move(rng);
    params.arrival_rate_tps = rate_tps;
    params.load_end_time = env_->now() + duration;
    params.submit_read_only = config_.submit_read_only;
    params.stats = &stats_;
    params.tx_id_counter = &tx_id_counter_;
    params.retry = retry;
    if (num_channels > 1) {
      params.affinity =
          ChannelAffinity(affinity_config, num_channels, actor_index);
      if (channels_[0].raft == nullptr) {
        for (ChannelRuntime& runtime : channels_) {
          params.channel_orderers.push_back(runtime.orderer.get());
        }
      }
    }
    if (retry.resubmit_on_mvcc) {
      params.resubmit_registry = &resubmit_registry_;
    }
    if (admission_stats_ != nullptr) {
      params.admission = &config_.admission;
      params.admission_stats = admission_stats_.get();
    }
    if (channels_[0].raft != nullptr) {
      // Replicated ordering: the client broadcasts to replicas with
      // ack-timeout failover instead of the fire-and-forget submit.
      auto endpoints_for = [](RaftGroup* raft) {
        std::vector<Client::Params::OrdererEndpoint> endpoints;
        for (int r = 0; r < raft->size(); ++r) {
          OrdererReplica* replica = raft->replica(r);
          Client::Params::OrdererEndpoint endpoint;
          endpoint.node = replica->node();
          endpoint.submit = [replica](Transaction tx,
                                      std::function<void(TxId, bool)> ack) {
            replica->SubmitTransaction(std::move(tx), std::move(ack));
          };
          endpoints.push_back(std::move(endpoint));
        }
        return endpoints;
      };
      if (num_channels > 1) {
        for (ChannelRuntime& runtime : channels_) {
          params.channel_orderer_endpoints.push_back(
              endpoints_for(runtime.raft.get()));
        }
      } else {
        params.orderer_endpoints = endpoints_for(channels_[0].raft.get());
      }
      params.acked_txs_by_channel = &acked_txs_by_channel_;
      params.orderer_ack_timeout = config_.ordering.client_ack_timeout;
      params.max_orderer_rebroadcasts = config_.ordering.max_client_rebroadcasts;
    }
    return params;
  };

  int actor_index = 0;
  // Expanded users consume the legacy per-client RNG id space
  // (4000 + index, in creation order); aggregated classes draw from
  // the disjoint 4700/4800 ranges so mixing both never collides.
  uint64_t expanded_index = 0;
  for (size_t ci = 0; ci < population.classes.size(); ++ci) {
    const BehaviourClass& bc = population.classes[ci];
    WorkloadGenerator* workload =
        (ci < class_workloads_.size() && class_workloads_[ci] != nullptr)
            ? class_workloads_[ci].get()
            : workload_.get();
    const ChannelAffinityConfig& affinity_config =
        bc.affinity.has_value() ? *bc.affinity : channel_affinity_;
    ClientRetryPolicy retry = bc.retry.has_value() ? *bc.retry : config_.retry;
    // Surged classes always aggregate: the surge schedule lives in the
    // class's ArrivalProcess, which per-user actors do not have.
    if (bc.num_users < population.aggregation_threshold &&
        bc.surges.empty()) {
      for (uint64_t u = 0; u < bc.num_users; ++u) {
        Client::Params params =
            make_params(actor_index, env_->rng().Fork(4000 + expanded_index),
                        bc.per_user_tps, workload, affinity_config, retry);
        clients_.push_back(std::make_unique<Client>(std::move(params)));
        clients_.back()->Start();
        ++actor_index;
        ++expanded_index;
      }
    } else {
      // One actor stands in for the whole class: a superposed-Poisson
      // (optionally Markov-modulated) arrival process driving one
      // embedded Client through the full endorse/order/retry
      // machinery. The client RNG and the arrival RNG are separate
      // streams so arrival modulation never perturbs payload draws.
      Client::Params params =
          make_params(actor_index, env_->rng().Fork(4700 + ci),
                      bc.aggregate_rate_tps(), workload, affinity_config,
                      retry);
      ArrivalProcess arrivals(bc.aggregate_rate_tps(), bc.mmpp,
                              env_->rng().Fork(4800 + ci), bc.surges);
      populations_.push_back(std::make_unique<ClientPopulation>(
          std::move(params), std::move(arrivals)));
      populations_.back()->Start();
      ++actor_index;
    }
  }
  return Status::OK();
}

void FabricNetwork::RecordCommit(ChannelId channel, uint64_t block_number,
                                 const ValidationOutcome& outcome) {
  ChannelRuntime& runtime = channels_[static_cast<size_t>(channel)];
  auto it = runtime.canonical_blocks.find(block_number);
  if (it == runtime.canonical_blocks.end()) return;
  Block block = *it->second;  // copy: the canonical block stays shared
  runtime.canonical_blocks.erase(it);
  block.results = outcome.results;
  for (Transaction& tx : block.txs) {
    tx.committed_time = env_->now();
  }
  if (tracer_ != nullptr) {
    for (size_t i = 0; i < block.txs.size(); ++i) {
      tracer_->OnCommit(block.txs[i].id, block_number, i, block.results[i],
                        env_->now());
    }
  }
  if (!resubmit_registry_.empty()) {
    // Deliver each transaction's verdict to its client; MVCC failures
    // may come back as resubmissions.
    for (size_t i = 0; i < block.txs.size(); ++i) {
      auto rit = resubmit_registry_.find(block.txs[i].id);
      if (rit == resubmit_registry_.end()) continue;
      Client* client = rit->second;
      resubmit_registry_.erase(rit);
      client->OnCommittedResult(block.txs[i].id, block.results[i].code);
    }
  }
  ledger_stats_->OnBlockCommitted(channel, block);
  // A streaming run drops the block here; its BlockStore stays empty.
  if (!config_.streaming_ledger) runtime.ledger.Append(std::move(block));
}

}  // namespace fabricsim
