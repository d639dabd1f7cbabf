// Chaincode & workload generator demo (paper §4.4): define a custom
// chaincode spec, emit the equivalent Go chaincode source, run a
// custom workload against the in-process interpreter, and report the
// failure breakdown.
#include <cstdio>

#include "src/chaincode/genchain.h"
#include "src/chaincode/genchain_emitter.h"
#include "src/common/rng.h"
#include "src/core/failure_report.h"
#include "src/fabric/fabric_network.h"
#include "src/workload/workload_generator.h"

using namespace fabricsim;

int main() {
  // 1. Build a custom chaincode: a mixed function (2 reads + 1 update)
  //    and a small range scanner, over a 2000-key world state.
  GenChaincodeSpec spec;
  spec.name = "inventoryChain";
  spec.initial_keys = 2000;
  spec.functions = {
      GenFunctionSpec{"auditItem", /*reads=*/2, /*inserts=*/0,
                      /*updates=*/1, /*deletes=*/0, /*range_reads=*/0,
                      /*rich=*/false},
      GenFunctionSpec{"restock", 0, 1, 1, 0, 0, false},
      GenFunctionSpec{"scanShelf", 0, 0, 0, 0, 1, false},
  };
  Status valid = spec.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid spec: %s\n", valid.ToString().c_str());
    return 1;
  }

  // 2. Emit the Go chaincode a real Fabric deployment would install.
  std::string go_source = EmitGoChaincode(spec);
  std::printf("generated %zu bytes of Go chaincode; first lines:\n",
              go_source.size());
  size_t shown = 0;
  for (size_t pos = 0, line = 0; line < 8 && pos < go_source.size();
       ++line) {
    size_t next = go_source.find('\n', pos);
    std::printf("  | %s\n", go_source.substr(pos, next - pos).c_str());
    pos = next + 1;
    shown = pos;
  }
  std::printf("  | ... (%zu more bytes)\n\n", go_source.size() - shown);

  // 3. Run a custom workload against the interpreter on a C1 network.
  auto chaincode = std::make_shared<GenChaincode>(spec);
  auto keys = std::make_shared<ZipfianGenerator>(spec.initial_keys, 1.2);
  auto insert_seq = std::make_shared<uint64_t>(spec.initial_keys);
  std::vector<FunctionMixWorkload::Entry> entries;
  entries.push_back({3.0, [keys](Rng& rng) {
                       return Invocation{
                           "auditItem",
                           {GenChaincode::Key(keys->Next(rng)),
                            GenChaincode::Key(keys->Next(rng)),
                            GenChaincode::Key(keys->Next(rng))}};
                     }});
  entries.push_back({2.0, [keys, insert_seq](Rng& rng) {
                       return Invocation{
                           "restock",
                           {GenChaincode::Key((*insert_seq)++),
                            GenChaincode::Key(keys->Next(rng))}};
                     }});
  entries.push_back({1.0, [keys](Rng& rng) {
                       uint64_t start = keys->Next(rng) % 1900;
                       return Invocation{
                           "scanShelf",
                           {GenChaincode::Key(start),
                            GenChaincode::Key(start + 16)}};
                     }});
  auto workload = std::make_shared<FunctionMixWorkload>("inventoryChain",
                                                        std::move(entries));

  FabricConfig fabric;
  fabric.block_size = 50;
  Environment env(/*seed=*/2026);
  FabricNetwork network(fabric, &env, chaincode, workload);
  Status st = network.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  network.StartLoad(/*tps=*/80, /*duration=*/30 * kSecond);
  env.RunAll();

  FailureReport report = BuildFailureReport(*network.ledger_stats(),
                                            network.stats(), 30 * kSecond);
  std::printf("custom workload results (80 tps, 30 s):\n%s",
              report.ToString().c_str());
  return 0;
}
