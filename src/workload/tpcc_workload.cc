#include "src/workload/tpcc_workload.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"

namespace fabricsim {
namespace {

using Entry = FunctionMixWorkload::Entry;

/// Optimistic per-district view of d_next_o_id (the generator's
/// counterpart of ScmState). The chaincode derives the real id from
/// committed state; this guess only steers OrderStatus at plausibly
/// recent orders.
struct TpccState {
  explicit TpccState(int districts) : next_o_guess(districts, 0) {}
  std::vector<long long> next_o_guess;  // (w * D + d) -> guessed next o_id
};

}  // namespace

std::unique_ptr<WorkloadGenerator> MakeTpccWorkload(
    const WorkloadConfig& config) {
  const TpccConfig& t = config.tpcc;
  int warehouses = std::max(1, t.warehouses);
  int districts = std::max(1, t.districts_per_warehouse);
  int customers = std::max(1, t.customers_per_district);
  int items = std::max(1, t.items);

  auto state = std::make_shared<TpccState>(warehouses * districts);
  // One sampler over all W x D districts: the terminal chooses its
  // district, then everything in the transaction stays district-local
  // (the TPC-C home-warehouse rule, minus remote payments).
  auto dists = std::make_shared<ZipfianGenerator>(
      static_cast<uint64_t>(warehouses * districts), config.zipf_skew);
  auto custs = std::make_shared<ZipfianGenerator>(
      static_cast<uint64_t>(customers), config.zipf_skew);
  auto item_dist = std::make_shared<ZipfianGenerator>(
      static_cast<uint64_t>(items), config.zipf_skew);
  double invalid_rate = t.invalid_item_rate;

  auto pick_district = [dists, districts](Rng& rng, int* w, int* d) {
    int wd = static_cast<int>(dists->Next(rng));
    *w = wd / districts;
    *d = wd % districts;
  };

  std::vector<Entry> entries;
  entries.push_back(
      {45.0, [state, pick_district, custs, item_dist, items, invalid_rate,
              districts](Rng& rng) {
         int w, d;
         pick_district(rng, &w, &d);
         int c = static_cast<int>(custs->Next(rng));
         int n = 5 + static_cast<int>(rng.UniformU64(11));  // 5..15 lines
         bool invalid = rng.Bernoulli(invalid_rate);
         std::vector<std::string> args = {std::to_string(w), std::to_string(d),
                                          std::to_string(c),
                                          std::to_string(n)};
         for (int l = 0; l < n; ++l) {
           // TPC-C §2.4.1.5: the invalid transaction swaps its *last*
           // item for an unused id; `items` itself is never bootstrapped.
           int item = invalid && l == n - 1
                          ? items
                          : static_cast<int>(item_dist->Next(rng));
           args.push_back(std::to_string(item));
           args.push_back(std::to_string(1 + rng.UniformU64(10)));
         }
         if (!invalid) ++state->next_o_guess[w * districts + d];
         return Invocation{"NewOrder", std::move(args)};
       }});
  entries.push_back({43.0, [pick_district, custs](Rng& rng) {
                       int w, d;
                       pick_district(rng, &w, &d);
                       return Invocation{
                           "Payment",
                           {std::to_string(w), std::to_string(d),
                            std::to_string(custs->Next(rng)),
                            std::to_string(100 + rng.UniformU64(4900))}};
                     }});
  entries.push_back({4.0, [pick_district](Rng& rng) {
                       int w, d;
                       pick_district(rng, &w, &d);
                       return Invocation{"Delivery",
                                         {std::to_string(w), std::to_string(d),
                                          std::to_string(rng.UniformU64(10))}};
                     }});
  entries.push_back(
      {4.0, [state, pick_district, custs, districts](Rng& rng) {
        int w, d;
        pick_district(rng, &w, &d);
        long long guess = state->next_o_guess[w * districts + d];
        long long o =
            guess > 0
                ? guess - 1 -
                      static_cast<long long>(rng.UniformU64(
                          static_cast<uint64_t>(std::min(guess, 10LL))))
                : 0;
        return Invocation{"OrderStatus",
                          {std::to_string(w), std::to_string(d),
                           std::to_string(custs->Next(rng)),
                           std::to_string(o)}};
      }});
  entries.push_back({4.0, [pick_district](Rng& rng) {
                       int w, d;
                       pick_district(rng, &w, &d);
                       // Threshold uniform in 10..20 (TPC-C §2.8.1.2).
                       return Invocation{
                           "StockLevel",
                           {std::to_string(w), std::to_string(d),
                            std::to_string(10 + rng.UniformU64(11))}};
                     }});
  return std::make_unique<FunctionMixWorkload>("tpcc", std::move(entries));
}

std::unique_ptr<WorkloadGenerator> MakeAssetTransferWorkload(
    const WorkloadConfig& config) {
  const AssetTransferConfig& a = config.asset;
  int owners = std::max(1, a.owners);
  auto assets = std::make_shared<ZipfianGenerator>(
      static_cast<uint64_t>(std::max(1, a.assets)), config.zipf_skew);
  // Fresh ids for createAsset, above the bootstrapped range.
  auto create_seq = std::make_shared<int>(a.assets);

  double w_write = 1.0;
  double w_read = 1.0;
  if (config.mix == WorkloadMix::kReadHeavy) {
    w_write = 0.4;
    w_read = 2.0;
  }

  std::vector<Entry> entries;
  entries.push_back({45.0 * w_write, [assets, owners](Rng& rng) {
                       return Invocation{
                           "transferAsset",
                           {std::to_string(assets->Next(rng)),
                            std::to_string(rng.UniformU64(
                                static_cast<uint64_t>(owners)))}};
                     }});
  entries.push_back({25.0 * w_read, [owners](Rng& rng) {
                       return Invocation{
                           "queryByOwner",
                           {std::to_string(rng.UniformU64(
                               static_cast<uint64_t>(owners)))}};
                     }});
  entries.push_back({20.0 * w_read, [assets](Rng& rng) {
                       return Invocation{
                           "readAsset",
                           {std::to_string(assets->Next(rng))}};
                     }});
  entries.push_back(
      {10.0 * w_write, [create_seq, owners](Rng& rng) {
        int asset = (*create_seq)++;
        return Invocation{
            "createAsset",
            {std::to_string(asset),
             std::to_string(rng.UniformU64(static_cast<uint64_t>(owners))),
             std::to_string(100 + rng.UniformU64(900))}};
      }});
  return std::make_unique<FunctionMixWorkload>("asset", std::move(entries));
}

}  // namespace fabricsim
