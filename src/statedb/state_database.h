#ifndef FABRICSIM_STATEDB_STATE_DATABASE_H_
#define FABRICSIM_STATEDB_STATE_DATABASE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ledger/rwset.h"
#include "src/ledger/version.h"

namespace fabricsim {

class RichQuerySelector;

/// A value in the world state together with the version of the
/// transaction that last wrote it (paper Definition 3).
struct VersionedValue {
  std::string value;
  Version version;
};

/// One world-state entry: key + versioned value.
struct StateEntry {
  std::string key;
  VersionedValue vv;
};

/// One world-state entry lent by a store: StateEntry's members, as
/// references into the store's own key and value.
///
/// The lending rule: a lent entry (and a VersionedValue* from Find) is
/// valid until the store's next write. For a StateView, that is until
/// its channel commits a block or the view moves. A ChaincodeStub only
/// buffers writes and no commit runs inside Chaincode::Invoke, so the
/// entries a stub lends stay valid for the rest of the invocation.
struct StateEntryRef {
  const std::string& key;
  const VersionedValue& vv;
};

/// What a lending read calls once per entry, in key order.
using StateEntryVisitor =
    std::function<void(const std::string& key, const VersionedValue& vv)>;

/// Abstract versioned key-value store backing a channel's world state.
///
/// This interface is pure data-plane: it performs the operation
/// immediately and keeps no notion of time. The *cost* of each
/// operation (the LevelDB-embedded vs CouchDB-over-REST gap the paper
/// measures in Table 4) is modelled separately by DbLatencyProfile and
/// charged by the simulation actors that call into the store.
///
/// Reads lend, not copy: Find, ForEachInRange and ForEachMatch are the
/// three read primitives, and Get, GetRange and Scan copy out through
/// the first two.
///
/// ## Semantics contract
///
/// Two classes implement it: MemoryStateDb, the store that holds each
/// channel's head (and the tests' serial-replay reference), and
/// StateView, which reads that head as of a lower block height. The
/// randomized differential tests in tests/statedb_test.cc and
/// tests/channel_state_test.cc hold both to it:
///
///  * **Deletes are absolute.** After ApplyWrite of a delete, the key
///    is absent from Find, ForEachInRange, ForEachMatch and Size (and
///    so from Get, GetRange and Scan) alike. Deleting a missing key is a
///    no-op returning OK.
///  * **Range queries are half-open [start_key, end_key)** over the
///    lexicographic key order (KeyInRange). An *empty* end_key means
///    "to the end of the key space" (Fabric's GetStateByRange
///    semantics) — it is NOT the empty interval. An empty start_key
///    starts at the first key. A non-empty end_key at or below
///    start_key is the empty interval.
///  * **Order is total and deterministic.** ForEachInRange and
///    ForEachMatch visit strictly ascending by key, so a view and a
///    replay that applied the same blocks produce byte-identical scans,
///    rich-query answers, digests and phantom re-scan verdicts.
class StateDatabase {
 public:
  virtual ~StateDatabase() = default;

  /// Point lookup: the key's lent value, or nullptr when the key does
  /// not exist.
  virtual const VersionedValue* Find(const std::string& key) const = 0;

  /// Visits every entry in [start_key, end_key) in key order, lending
  /// each. An empty end_key means "to the end of the key space"
  /// (Fabric semantics).
  virtual void ForEachInRange(const std::string& start_key,
                              const std::string& end_key,
                              const StateEntryVisitor& fn) const = 0;

  /// Visits every entry whose document matches every term of
  /// `selector` (RichQuerySelector::Matches) in key order, lending
  /// each: the answer to a rich query (ExecuteRichQuery).
  virtual void ForEachMatch(const RichQuerySelector& selector,
                            const StateEntryVisitor& fn) const = 0;

  /// Applies one write (upsert or delete) committed at `version`. Every
  /// commit comes through here, and so does a bootstrap applied to a
  /// store built without one (ApplyBootstrap).
  virtual Status ApplyWrite(const WriteItem& write, Version version) = 0;

  /// Number of live keys.
  virtual size_t Size() const = 0;

  /// Find, copied out. nullopt when the key does not exist.
  std::optional<VersionedValue> Get(const std::string& key) const {
    const VersionedValue* vv = Find(key);
    if (vv == nullptr) return std::nullopt;
    return *vv;
  }

  /// ForEachInRange, copied out. The entries are collected lent first,
  /// so the copies are made into a vector sized once.
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const {
    std::vector<StateEntryRef> lent;
    ForEachInRange(start_key, end_key,
                   [&lent](const std::string& key, const VersionedValue& vv) {
                     lent.push_back(StateEntryRef{key, vv});
                   });
    std::vector<StateEntry> out;
    out.reserve(lent.size());
    for (const StateEntryRef& e : lent) out.push_back(StateEntry{e.key, e.vv});
    return out;
  }

  /// Every entry, ascending by key, copied out (for tests and tooling
  /// that want a materialized snapshot).
  std::vector<StateEntry> Scan() const { return GetRange("", ""); }
};

/// True when `key` falls inside the half-open range [start_key,
/// end_key), where an empty end_key extends the range to the end of
/// the key space. THE definition of Fabric range semantics — the
/// stores and the validator's phantom re-scan agree by construction by
/// sharing it.
inline bool KeyInRange(const std::string& key, const std::string& start_key,
                       const std::string& end_key) {
  return key >= start_key && (end_key.empty() || key < end_key);
}

/// True when KeyInRange holds for no key: end_key is set and not above
/// start_key. A store's walk from start_key's position to end_key's
/// never meets the end of such a range, so it checks this first.
inline bool RangeIsEmpty(const std::string& start_key,
                         const std::string& end_key) {
  return !end_key.empty() && end_key <= start_key;
}

/// Creates an in-memory ordered-map state database.
std::unique_ptr<StateDatabase> MakeMemoryStateDb();

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_DATABASE_H_
