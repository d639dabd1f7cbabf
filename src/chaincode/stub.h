#ifndef FABRICSIM_CHAINCODE_STUB_H_
#define FABRICSIM_CHAINCODE_STUB_H_

#include <optional>
#include <string>
#include <vector>

#include "src/chaincode/composite_key.h"
#include "src/common/status.h"
#include "src/ledger/rwset.h"
#include "src/statedb/rich_query.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

/// The chaincode-facing API, mirroring Fabric's shim.ChaincodeStub.
///
/// Semantics copied from Fabric's transaction simulator:
///  * GetState always reads the *committed* world state — a chaincode
///    never sees its own buffered writes within one invocation.
///  * PutState/DelState only append to the write set; the world state
///    is untouched until the validation phase applies it.
///  * GetStateByRange records the whole observed interval for phantom
///    read validation.
///  * GetQueryResult (rich query) requires CouchDB and is NOT
///    re-validated — no phantom detection, like the real shim.
class ChaincodeStub {
 public:
  /// `db` is the endorsing peer's view of the world state;
  /// `rich_queries_supported` reflects the configured database type.
  ChaincodeStub(const StateDatabase& db, bool rich_queries_supported);

  /// Point read; records (key, observed version) in the read set.
  /// nullopt when the key does not exist (still recorded, found=false).
  std::optional<std::string> GetState(const std::string& key);

  /// Buffers an upsert into the write set.
  void PutState(const std::string& key, std::string value);

  /// Buffers a delete into the write set.
  void DelState(const std::string& key);

  /// Range scan over [start_key, end_key); records the full footprint
  /// for phantom validation.
  std::vector<StateEntry> GetStateByRange(const std::string& start_key,
                                          const std::string& end_key);

  /// Rich selector query (CouchDB only). The result footprint is
  /// recorded with phantom_check=false.
  Result<std::vector<StateEntry>> GetQueryResult(const std::string& selector);

  /// Prefix scan over the composite keys of `object_type` whose first
  /// attributes equal `partial_attributes` (Fabric's
  /// GetStateByPartialCompositeKey). A plain GetStateByRange over
  /// CompositeKeyRange(), so the footprint is phantom-checked like any
  /// range read.
  std::vector<StateEntry> GetStateByPartialCompositeKey(
      const std::string& object_type,
      const std::vector<std::string>& partial_attributes);

  /// Shared composite-key helpers (see src/chaincode/composite_key.h
  /// for the layout and separator-escaping contract). Statics on the
  /// stub so chaincode reads like its Fabric counterpart.
  static std::string CreateCompositeKey(
      const std::string& object_type,
      const std::vector<std::string>& attributes) {
    return MakeCompositeKey(object_type, attributes);
  }
  static bool SplitCompositeKey(const std::string& key,
                                std::string* object_type,
                                std::vector<std::string>* attributes) {
    return ::fabricsim::SplitCompositeKey(key, object_type, attributes);
  }

  /// The accumulated read/write set.
  const ReadWriteSet& rwset() const { return rwset_; }
  /// Ends simulation: seals the rw-set (stores its digest and byte
  /// size) and moves it out.
  ReadWriteSet TakeRwset() {
    rwset_.Seal();
    return std::move(rwset_);
  }

  bool rich_queries_supported() const { return rich_queries_supported_; }

 private:
  const StateDatabase& db_;
  bool rich_queries_supported_;
  ReadWriteSet rwset_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_STUB_H_
