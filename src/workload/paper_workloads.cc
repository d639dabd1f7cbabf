#include "src/workload/paper_workloads.h"

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/chaincode/digital_voting.h"
#include "src/chaincode/drm.h"
#include "src/chaincode/ehr.h"
#include "src/chaincode/genchain.h"
#include "src/chaincode/registry.h"
#include "src/chaincode/supply_chain.h"
#include "src/common/strings.h"
#include "src/workload/key_distribution.h"

namespace fabricsim {
namespace {

using Entry = FunctionMixWorkload::Entry;

// ---------------------------------------------------------------- EHR

std::unique_ptr<WorkloadGenerator> MakeEhrWorkload(double skew,
                                                   WorkloadMix mix) {
  auto keys = std::make_shared<KeyDistribution>(100, skew);
  auto prof = [keys](Rng& rng) {
    return EhrChaincode::ProfileKey(static_cast<int>(keys->Sample(rng)));
  };
  auto record = [keys](Rng& rng) {
    return EhrChaincode::RecordKey(static_cast<int>(keys->Sample(rng)));
  };
  auto actor = [](Rng& rng) {
    return "ACTOR" + PadKey(rng.UniformU64(50), 3);
  };

  // Weight of the read-only vs read-write functions by mix. Uniform
  // invokes every function equally (paper default).
  double w_read = 1.0;
  double w_write = 1.0;
  if (mix == WorkloadMix::kReadHeavy) {
    w_read = 5.0;
    w_write = 0.625;  // 4 read fns * 5 : 5 write fns * 0.625 => 80:20 ratio
  } else if (mix == WorkloadMix::kReadWriteHeavy ||
             mix == WorkloadMix::kUpdateHeavy) {
    w_read = 0.4;
    w_write = 1.48;
  }

  std::vector<Entry> entries;
  entries.push_back({w_write, [prof, actor](Rng& rng) {
                       return Invocation{"grantProfileAccess",
                                         {prof(rng), actor(rng)}};
                     }});
  entries.push_back({w_write, [prof, actor](Rng& rng) {
                       return Invocation{"revokeProfileAccess",
                                         {prof(rng), actor(rng)}};
                     }});
  entries.push_back({w_write, [record, prof, actor](Rng& rng) {
                       return Invocation{"grantEhrAccess",
                                         {record(rng), prof(rng), actor(rng)}};
                     }});
  entries.push_back({w_write, [record, prof, actor](Rng& rng) {
                       return Invocation{"revokeEhrAccess",
                                         {record(rng), prof(rng), actor(rng)}};
                     }});
  entries.push_back({w_write, [record, prof](Rng& rng) {
                       return Invocation{
                           "addEhr",
                           {record(rng), prof(rng), "scan-result"}};
                     }});
  entries.push_back({w_read, [prof](Rng& rng) {
                       return Invocation{"readProfile", {prof(rng)}};
                     }});
  entries.push_back({w_read, [prof](Rng& rng) {
                       return Invocation{"viewPartialProfile", {prof(rng)}};
                     }});
  entries.push_back({w_read, [record](Rng& rng) {
                       return Invocation{"viewEHR", {record(rng)}};
                     }});
  entries.push_back({w_read, [record](Rng& rng) {
                       return Invocation{"queryEHR", {record(rng)}};
                     }});
  return std::make_unique<FunctionMixWorkload>("ehr", std::move(entries));
}

// ----------------------------------------------------------------- DV

std::unique_ptr<WorkloadGenerator> MakeDvWorkload(double skew,
                                                  WorkloadMix mix) {
  auto voters = std::make_shared<KeyDistribution>(1000, skew);
  auto parties = std::make_shared<KeyDistribution>(12, skew);
  double w_vote = 1.0;
  double w_query = 1.0;
  if (mix == WorkloadMix::kReadHeavy) {
    w_vote = 0.5;
    w_query = 2.0;
  }
  std::vector<Entry> entries;
  entries.push_back({w_vote, [voters, parties](Rng& rng) {
                       return Invocation{
                           "vote",
                           {DigitalVotingChaincode::VoterKey(
                                static_cast<int>(voters->Sample(rng))),
                            DigitalVotingChaincode::PartyKey(
                                static_cast<int>(parties->Sample(rng)))}};
                     }});
  entries.push_back({w_query, [](Rng&) {
                       return Invocation{"qryParties", {}};
                     }});
  entries.push_back({w_query, [](Rng&) {
                       return Invocation{"seeResults", {}};
                     }});
  return std::make_unique<FunctionMixWorkload>("dv", std::move(entries));
}

// ---------------------------------------------------------------- SCM

/// Tracks the workload's optimistic view of unit locations. Failed
/// transactions make the view stale, which is fine: the chaincode is
/// lenient about missing units, preserving the operation footprint.
struct ScmState {
  explicit ScmState(const std::vector<int>& counts) {
    int gtin = 0;
    for (size_t lsp = 0; lsp < counts.size(); ++lsp) {
      for (int u = 0; u < counts[lsp]; ++u, ++gtin) {
        location.push_back(static_cast<int>(lsp));
      }
    }
  }
  std::vector<int> location;  // gtin -> assumed LSP
  int asn_seq = 0;
};

std::unique_ptr<WorkloadGenerator> MakeScmWorkload(double skew,
                                                   WorkloadMix mix,
                                                   bool rich_supported) {
  const std::vector<int> counts = {400, 400, 400, 400, 800};
  auto state = std::make_shared<ScmState>(counts);
  auto gtins = std::make_shared<KeyDistribution>(state->location.size(), skew);
  int num_lsps = static_cast<int>(counts.size());

  double w_write = 1.0;
  double w_query = 1.0;
  if (mix == WorkloadMix::kReadHeavy) {
    w_write = 0.4;
    w_query = 2.0;
  }

  std::vector<Entry> entries;
  entries.push_back({w_write, [state, num_lsps](Rng& rng) {
                       int from = static_cast<int>(rng.UniformU64(
                           static_cast<uint64_t>(num_lsps)));
                       int to = (from + 1 + static_cast<int>(rng.UniformU64(
                                                static_cast<uint64_t>(
                                                    num_lsps - 1)))) %
                                num_lsps;
                       return Invocation{
                           "pushASN",
                           {SupplyChainChaincode::AsnKey(state->asn_seq++),
                            "LSP" + std::to_string(from),
                            "LSP" + std::to_string(to)}};
                     }});
  entries.push_back(
      {w_write, [state, gtins, num_lsps](Rng& rng) {
         int gtin = static_cast<int>(gtins->Sample(rng));
         int from = state->location[static_cast<size_t>(gtin)];
         int to = (from + 1 + static_cast<int>(rng.UniformU64(
                                  static_cast<uint64_t>(num_lsps - 1)))) %
                  num_lsps;
         int asn = state->asn_seq > 0
                       ? static_cast<int>(rng.UniformU64(
                             static_cast<uint64_t>(state->asn_seq)))
                       : 0;
         state->location[static_cast<size_t>(gtin)] = to;
         return Invocation{"Ship",
                           {SupplyChainChaincode::AsnKey(asn),
                            SupplyChainChaincode::UnitKey(from, gtin),
                            SupplyChainChaincode::UnitKey(to, gtin)}};
       }});
  entries.push_back({w_write, [state, gtins](Rng& rng) {
                       int gtin = static_cast<int>(gtins->Sample(rng));
                       int lsp = state->location[static_cast<size_t>(gtin)];
                       return Invocation{
                           "Unload",
                           {SupplyChainChaincode::UnitKey(lsp, gtin),
                            SupplyChainChaincode::LspKey(lsp)}};
                     }});
  entries.push_back({w_query, [num_lsps](Rng& rng) {
                       return Invocation{
                           "queryASN",
                           {std::to_string(rng.UniformU64(
                               static_cast<uint64_t>(num_lsps)))}};
                     }});
  if (rich_supported) {
    entries.push_back({w_query, [num_lsps](Rng& rng) {
                         return Invocation{
                             "queryStock",
                             {std::to_string(rng.UniformU64(
                                 static_cast<uint64_t>(num_lsps)))}};
                       }});
  }
  return std::make_unique<FunctionMixWorkload>("scm", std::move(entries));
}

// ---------------------------------------------------------------- DRM

std::unique_ptr<WorkloadGenerator> MakeDrmWorkload(double skew,
                                                   WorkloadMix mix,
                                                   bool rich_supported) {
  auto arts = std::make_shared<KeyDistribution>(200, skew);
  auto holders = std::make_shared<KeyDistribution>(200, skew);
  auto create_seq = std::make_shared<int>(200);

  double w_write = 1.0;
  double w_read = 1.0;
  if (mix == WorkloadMix::kReadHeavy) {
    w_write = 0.4;
    w_read = 2.0;
  }

  std::vector<Entry> entries;
  entries.push_back({w_write, [holders, create_seq](Rng& rng) {
                       int art = (*create_seq)++;
                       int holder = static_cast<int>(holders->Sample(rng));
                       return Invocation{
                           "create",
                           {DrmChaincode::ArtworkKey(art),
                            DrmChaincode::RightsKey(art),
                            DrmChaincode::HolderKey(holder)}};
                     }});
  entries.push_back({w_write, [arts](Rng& rng) {
                       int art = static_cast<int>(arts->Sample(rng));
                       return Invocation{"play",
                                         {DrmChaincode::ArtworkKey(art),
                                          DrmChaincode::RightsKey(art)}};
                     }});
  entries.push_back({w_read, [arts](Rng& rng) {
                       int art = static_cast<int>(arts->Sample(rng));
                       return Invocation{"queryRghts",
                                         {DrmChaincode::ArtworkKey(art),
                                          DrmChaincode::RightsKey(art)}};
                     }});
  entries.push_back({w_read, [arts](Rng& rng) {
                       return Invocation{
                           "viewMetaData",
                           {DrmChaincode::ArtworkKey(
                               static_cast<int>(arts->Sample(rng)))}};
                     }});
  if (rich_supported) {
    entries.push_back({w_read, [holders](Rng& rng) {
                         return Invocation{
                             "calcRevenue",
                             {DrmChaincode::HolderKey(
                                 static_cast<int>(holders->Sample(rng)))}};
                       }});
  }
  return std::make_unique<FunctionMixWorkload>("drm", std::move(entries));
}

// ----------------------------------------------------------- genChain

struct GenState {
  uint64_t insert_seq;
  uint64_t delete_cursor;
};

Result<std::unique_ptr<WorkloadGenerator>> MakeGenWorkload(
    const WorkloadConfig& config) {
  uint64_t n = config.genchain_initial_keys;
  auto range_sizes =
      std::make_shared<std::vector<int>>(config.range_sizes.empty()
                                             ? std::vector<int>{2, 4, 8}
                                             : config.range_sizes);
  if (config.include_range_reads) {
    for (int len : *range_sizes) {
      // A longer range would start below key 0: its start wraps around
      // and the read would be inverted.
      if (len < 0 || static_cast<uint64_t>(len) > n) {
        return Status::InvalidArgument(StrFormat(
            "genChain range size %d is outside [0, genchain_initial_keys = "
            "%llu]",
            len, static_cast<unsigned long long>(n)));
      }
    }
  }
  auto keys = std::make_shared<KeyDistribution>(n, config.zipf_skew);
  auto state = std::make_shared<GenState>(GenState{n, n});

  // Mix weights: 80% for the heavy type, 5% for each of the others
  // (paper §4.4). Uniform: 20% each.
  auto weight = [&](WorkloadMix heavy) {
    return config.mix == heavy ? 80.0
           : config.mix == WorkloadMix::kUniform ||
                   config.mix == WorkloadMix::kReadWriteHeavy
               ? 20.0
               : 5.0;
  };

  std::vector<Entry> entries;
  entries.push_back({weight(WorkloadMix::kReadHeavy), [keys](Rng& rng) {
                       return Invocation{
                           "readKeys", {GenChaincode::Key(keys->Sample(rng))}};
                     }});
  if (config.genchain_mutations) {
    entries.push_back({weight(WorkloadMix::kInsertHeavy), [state](Rng&) {
                         return Invocation{
                             "insertKeys",
                             {GenChaincode::Key(state->insert_seq++)}};
                       }});
  }
  entries.push_back({weight(WorkloadMix::kUpdateHeavy), [keys](Rng& rng) {
                       return Invocation{
                           "updateKeys",
                           {GenChaincode::Key(keys->Sample(rng))}};
                     }});
  if (config.genchain_mutations) {
    entries.push_back({weight(WorkloadMix::kDeleteHeavy), [state](Rng&) {
                         // Unique, previously untouched keys from the
                         // top of the bootstrapped range downwards.
                         uint64_t key = state->delete_cursor > 0
                                            ? --state->delete_cursor
                                            : 0;
                         return Invocation{"deleteKeys",
                                           {GenChaincode::Key(key)}};
                       }});
  }
  if (config.include_range_reads) {
    entries.push_back(
        {weight(WorkloadMix::kRangeHeavy), [keys, range_sizes, n](Rng& rng) {
           int len = (*range_sizes)[rng.UniformU64(range_sizes->size())];
           uint64_t start = keys->Sample(rng);
           if (start + static_cast<uint64_t>(len) > n && n > 0) {
             start = n - static_cast<uint64_t>(len);
           }
           return Invocation{
               "rangeReadKeys",
               {GenChaincode::Key(start),
                GenChaincode::Key(start + static_cast<uint64_t>(len))}};
         }});
  }
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<FunctionMixWorkload>("genChain", std::move(entries)));
}

}  // namespace

Result<std::unique_ptr<WorkloadGenerator>> MakeWorkload(
    const WorkloadConfig& config, bool rich_queries_supported) {
  const std::string& cc = config.chaincode;
  if (cc == "ehr") return MakeEhrWorkload(config.zipf_skew, config.mix);
  if (cc == "dv") return MakeDvWorkload(config.zipf_skew, config.mix);
  if (cc == "scm") {
    return MakeScmWorkload(config.zipf_skew, config.mix,
                           rich_queries_supported);
  }
  if (cc == "drm") {
    return MakeDrmWorkload(config.zipf_skew, config.mix,
                           rich_queries_supported);
  }
  if (cc == "genchain" || cc == "genChain") return MakeGenWorkload(config);
  // Catalogued chaincodes (tpcc, asset, anything registered through
  // RegisterChaincodeFactory) bring their own generator factory.
  std::optional<ChaincodeFactory> factory = FindChaincodeFactory(cc);
  if (factory.has_value() && factory->make_workload) {
    return factory->make_workload(config, rich_queries_supported);
  }
  return Status::InvalidArgument(UnknownChaincodeError(cc));
}

}  // namespace fabricsim
