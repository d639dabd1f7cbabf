#ifndef FABRICSIM_CHAINCODE_GENCHAIN_H_
#define FABRICSIM_CHAINCODE_GENCHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaincode/chaincode.h"
#include "src/common/status.h"

namespace fabricsim {

/// Specification of one generated chaincode function: how many of each
/// action type it performs, in the fixed order reads → inserts →
/// updates → deletes → range reads. This mirrors the input of the
/// paper's chaincode generator (§4.4).
struct GenFunctionSpec {
  std::string name;
  int reads = 0;
  int inserts = 0;
  int updates = 0;
  int deletes = 0;
  int range_reads = 0;
  /// When true, range reads are issued as CouchDB rich queries
  /// (GetQueryResult) instead of GetStateByRange — no phantom checks.
  bool use_rich_query = false;

  /// Number of key arguments this function consumes (see the argument
  /// convention on GenChaincode::Invoke).
  int ArgCount() const {
    return reads + inserts + updates + deletes + 2 * range_reads;
  }
};

/// Full chaincode specification: functions plus the size of the
/// bootstrapped key space.
struct GenChaincodeSpec {
  std::string name = "genChain";
  std::vector<GenFunctionSpec> functions;
  /// Keys "GK<00000000>".."GK<initial_keys-1>" are bootstrapped. The
  /// paper uses 100,000 keys to keep conflict rates low by default.
  uint64_t initial_keys = 100000;

  /// The paper's genChain: five functions, one action each —
  /// readKeys, insertKeys, updateKeys, deleteKeys, rangeReadKeys.
  static GenChaincodeSpec PaperDefault(uint64_t initial_keys = 100000);

  /// Validates that the spec is well-formed (non-empty, unique
  /// function names, non-negative action counts).
  Status Validate() const;
};

/// Interpreter for generated chaincodes: a Chaincode whose functions
/// execute the action lists of a GenChaincodeSpec.
///
/// Argument convention for Invoke: args supplies one key per read /
/// insert / update / delete action (in spec order) and a (start, end)
/// key pair per range read, appended in that order.
class GenChaincode : public Chaincode {
 public:
  explicit GenChaincode(GenChaincodeSpec spec);

  std::string name() const override { return spec_.name; }
  std::vector<WriteItem> BootstrapState() const override;
  Status Invoke(ChaincodeStub& stub, const Invocation& inv) const override;
  std::vector<std::string> Functions() const override;

  const GenChaincodeSpec& spec() const { return spec_; }

  /// Bootstrapped key for index i: "GK" + zero-padded index.
  static std::string Key(uint64_t index);

 private:
  GenChaincodeSpec spec_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_GENCHAIN_H_
