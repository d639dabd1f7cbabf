#include "src/workload/paper_workloads.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaincode/asset_transfer.h"
#include "src/chaincode/digital_voting.h"
#include "src/chaincode/drm.h"
#include "src/chaincode/ehr.h"
#include "src/chaincode/genchain.h"
#include "src/chaincode/supply_chain.h"
#include "src/chaincode/tpcc/tpcc_chaincode.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/workload/tpcc_workload.h"

namespace fabricsim {
namespace {

using Entry = FunctionMixWorkload::Entry;
using WorkloadResult = Result<std::unique_ptr<WorkloadGenerator>>;

WorkloadResult MixOf(const char* chaincode, std::vector<Entry> entries) {
  return std::unique_ptr<WorkloadGenerator>(
      std::make_unique<FunctionMixWorkload>(chaincode, std::move(entries)));
}

// ---------------------------------------------------------------- EHR

WorkloadResult MakeEhrWorkload(const WorkloadConfig& config, bool) {
  auto keys = std::make_shared<ZipfianGenerator>(100, config.zipf_skew);
  auto prof = [keys](Rng& rng) {
    return EhrChaincode::ProfileKey(static_cast<int>(keys->Next(rng)));
  };
  auto record = [keys](Rng& rng) {
    return EhrChaincode::RecordKey(static_cast<int>(keys->Next(rng)));
  };
  auto actor = [](Rng& rng) {
    return "ACTOR" + PadKey(rng.UniformU64(50), 3);
  };

  // Weight of the read-only vs read-write functions by mix. Uniform
  // invokes every function equally (paper default).
  double w_read = 1.0;
  double w_write = 1.0;
  if (config.mix == WorkloadMix::kReadHeavy) {
    w_read = 5.0;
    w_write = 0.625;  // 4 read fns * 5 : 5 write fns * 0.625 => 80:20 ratio
  } else if (config.mix == WorkloadMix::kReadWriteHeavy ||
             config.mix == WorkloadMix::kUpdateHeavy) {
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
  return MixOf("ehr", std::move(entries));
}

// ----------------------------------------------------------------- DV

WorkloadResult MakeDvWorkload(const WorkloadConfig& config, bool) {
  auto voters = std::make_shared<ZipfianGenerator>(1000, config.zipf_skew);
  auto parties = std::make_shared<ZipfianGenerator>(12, config.zipf_skew);
  double w_vote = 1.0;
  double w_query = 1.0;
  if (config.mix == WorkloadMix::kReadHeavy) {
    w_vote = 0.5;
    w_query = 2.0;
  }
  std::vector<Entry> entries;
  entries.push_back({w_vote, [voters, parties](Rng& rng) {
                       return Invocation{
                           "vote",
                           {DigitalVotingChaincode::VoterKey(
                                static_cast<int>(voters->Next(rng))),
                            DigitalVotingChaincode::PartyKey(
                                static_cast<int>(parties->Next(rng)))}};
                     }});
  entries.push_back({w_query, [](Rng&) {
                       return Invocation{"qryParties", {}};
                     }});
  entries.push_back({w_query, [](Rng&) {
                       return Invocation{"seeResults", {}};
                     }});
  return MixOf("dv", std::move(entries));
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

WorkloadResult MakeScmWorkload(const WorkloadConfig& config,
                               bool rich_queries_supported) {
  const std::vector<int> counts = {400, 400, 400, 400, 800};
  auto state = std::make_shared<ScmState>(counts);
  auto gtins = std::make_shared<ZipfianGenerator>(state->location.size(),
                                                  config.zipf_skew);
  int num_lsps = static_cast<int>(counts.size());

  double w_write = 1.0;
  double w_query = 1.0;
  if (config.mix == WorkloadMix::kReadHeavy) {
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
         int gtin = static_cast<int>(gtins->Next(rng));
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
                       int gtin = static_cast<int>(gtins->Next(rng));
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
  if (rich_queries_supported) {
    entries.push_back({w_query, [num_lsps](Rng& rng) {
                         return Invocation{
                             "queryStock",
                             {std::to_string(rng.UniformU64(
                                 static_cast<uint64_t>(num_lsps)))}};
                       }});
  }
  return MixOf("scm", std::move(entries));
}

// ---------------------------------------------------------------- DRM

WorkloadResult MakeDrmWorkload(const WorkloadConfig& config,
                               bool rich_queries_supported) {
  auto arts = std::make_shared<ZipfianGenerator>(200, config.zipf_skew);
  auto holders = std::make_shared<ZipfianGenerator>(200, config.zipf_skew);
  auto create_seq = std::make_shared<int>(200);

  double w_write = 1.0;
  double w_read = 1.0;
  if (config.mix == WorkloadMix::kReadHeavy) {
    w_write = 0.4;
    w_read = 2.0;
  }

  std::vector<Entry> entries;
  entries.push_back({w_write, [holders, create_seq](Rng& rng) {
                       int art = (*create_seq)++;
                       int holder = static_cast<int>(holders->Next(rng));
                       return Invocation{
                           "create",
                           {DrmChaincode::ArtworkKey(art),
                            DrmChaincode::RightsKey(art),
                            DrmChaincode::HolderKey(holder)}};
                     }});
  entries.push_back({w_write, [arts](Rng& rng) {
                       int art = static_cast<int>(arts->Next(rng));
                       return Invocation{"play",
                                         {DrmChaincode::ArtworkKey(art),
                                          DrmChaincode::RightsKey(art)}};
                     }});
  entries.push_back({w_read, [arts](Rng& rng) {
                       int art = static_cast<int>(arts->Next(rng));
                       return Invocation{"queryRghts",
                                         {DrmChaincode::ArtworkKey(art),
                                          DrmChaincode::RightsKey(art)}};
                     }});
  entries.push_back({w_read, [arts](Rng& rng) {
                       return Invocation{
                           "viewMetaData",
                           {DrmChaincode::ArtworkKey(
                               static_cast<int>(arts->Next(rng)))}};
                     }});
  if (rich_queries_supported) {
    entries.push_back({w_read, [holders](Rng& rng) {
                         return Invocation{
                             "calcRevenue",
                             {DrmChaincode::HolderKey(
                                 static_cast<int>(holders->Next(rng)))}};
                       }});
  }
  return MixOf("drm", std::move(entries));
}

// ----------------------------------------------------------- genChain

struct GenState {
  uint64_t insert_seq;
  uint64_t delete_cursor;
};

WorkloadResult MakeGenWorkload(const WorkloadConfig& config, bool) {
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
  auto keys = std::make_shared<ZipfianGenerator>(n, config.zipf_skew);
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
                           "readKeys", {GenChaincode::Key(keys->Next(rng))}};
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
                           {GenChaincode::Key(keys->Next(rng))}};
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
           uint64_t start = keys->Next(rng);
           if (start + static_cast<uint64_t>(len) > n && n > 0) {
             start = n - static_cast<uint64_t>(len);
           }
           return Invocation{
               "rangeReadKeys",
               {GenChaincode::Key(start),
                GenChaincode::Key(start + static_cast<uint64_t>(len))}};
         }});
  }
  return MixOf("genChain", std::move(entries));
}

// ------------------------------------------------------------- table

// The four use-case contracts take no parameters.
template <typename T>
std::shared_ptr<Chaincode> MakeUseCase(const WorkloadConfig&) {
  return std::make_shared<T>();
}

// Every chaincode a WorkloadConfig can name, in name order: how its
// contract and its workload are built. MakeChaincodeFor and MakeWorkload
// read this table and nothing else, and the unknown-name error lists its
// names in this order. It is constant, so runner threads read it without
// a lock.
struct ChaincodeRow {
  std::string_view name;
  std::shared_ptr<Chaincode> (*make_chaincode)(const WorkloadConfig&);
  WorkloadResult (*make_workload)(const WorkloadConfig&,
                                  bool rich_queries_supported);
};

constexpr ChaincodeRow kChaincodes[] = {
    {"asset",
     [](const WorkloadConfig& config) -> std::shared_ptr<Chaincode> {
       return std::make_shared<AssetTransferChaincode>(config.asset);
     },
     [](const WorkloadConfig& config, bool) -> WorkloadResult {
       return MakeAssetTransferWorkload(config);
     }},
    {"drm", MakeUseCase<DrmChaincode>, MakeDrmWorkload},
    {"dv", MakeUseCase<DigitalVotingChaincode>, MakeDvWorkload},
    {"ehr", MakeUseCase<EhrChaincode>, MakeEhrWorkload},
    {"genchain",
     [](const WorkloadConfig& config) -> std::shared_ptr<Chaincode> {
       return std::make_shared<GenChaincode>(
           GenChaincodeSpec::PaperDefault(config.genchain_initial_keys));
     },
     MakeGenWorkload},
    {"scm", MakeUseCase<SupplyChainChaincode>, MakeScmWorkload},
    {"tpcc",
     [](const WorkloadConfig& config) -> std::shared_ptr<Chaincode> {
       return std::make_shared<TpccChaincode>(config.tpcc);
     },
     [](const WorkloadConfig& config, bool) -> WorkloadResult {
       return MakeTpccWorkload(config);
     }},
};
static_assert(std::is_sorted(std::begin(kChaincodes), std::end(kChaincodes),
                             [](const ChaincodeRow& a, const ChaincodeRow& b) {
                               return a.name < b.name;
                             }));

const ChaincodeRow* FindChaincode(std::string_view name) {
  if (name == "genChain") name = "genchain";  // the paper's spelling
  for (const ChaincodeRow& row : kChaincodes) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

Status UnknownChaincode(const std::string& name) {
  std::string message = "unknown chaincode: " + name + " (available: ";
  for (const ChaincodeRow& row : kChaincodes) {
    if (&row != kChaincodes) message += ", ";
    message += row.name;
  }
  return Status::InvalidArgument(message + ")");
}

}  // namespace

Result<std::shared_ptr<Chaincode>> MakeChaincodeFor(
    const WorkloadConfig& workload) {
  const ChaincodeRow* row = FindChaincode(workload.chaincode);
  if (row == nullptr) return UnknownChaincode(workload.chaincode);
  return row->make_chaincode(workload);
}

Result<std::unique_ptr<WorkloadGenerator>> MakeWorkload(
    const WorkloadConfig& config, bool rich_queries_supported) {
  const ChaincodeRow* row = FindChaincode(config.chaincode);
  if (row == nullptr) return UnknownChaincode(config.chaincode);
  return row->make_workload(config, rich_queries_supported);
}

}  // namespace fabricsim
