#ifndef FABRICSIM_STATEDB_STATE_DATABASE_H_
#define FABRICSIM_STATEDB_STATE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/ledger/rwset.h"
#include "src/ledger/version.h"

namespace fabricsim {

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

/// Abstract versioned key-value store backing a channel's world state.
///
/// This interface is pure data-plane: it performs the operation
/// immediately and keeps no notion of time. The *cost* of each
/// operation (the LevelDB-embedded vs CouchDB-over-REST gap the paper
/// measures in Table 4) is modelled separately by DbLatencyProfile and
/// charged by the simulation actors that call into the store.
///
/// ## Semantics contract (every backend MUST agree, bit for bit)
///
/// Backends are interchangeable data structures behind one observable
/// behaviour; the randomized differential test in tests/statedb_test.cc
/// enforces this contract across all of them:
///
///  * **Deletes are absolute.** After ApplyWrite of a delete, the key
///    is absent from Get, GetVersion, GetRange, ForEachVersionInRange,
///    Size, Scan, ForEachEntry and KeysWhere alike — a backend that
///    keeps a tombstone internally (the open-addressing hash does) must
///    never let it leak into any read path. Deleting a missing key is
///    a no-op returning OK.
///  * **Range queries are half-open [start_key, end_key)** over the
///    lexicographic key order. An *empty* end_key means "to the end of
///    the key space" (Fabric's GetStateByRange semantics) — it is NOT
///    the empty interval. An empty start_key starts at the first key.
///  * **Order is total and deterministic.** GetRange, Scan,
///    ForEachVersionInRange and ForEachEntry enumerate strictly
///    ascending by key, so two backends fed identical writes produce
///    byte-identical scans, digests and phantom re-scan verdicts.
class StateDatabase {
 public:
  virtual ~StateDatabase() = default;

  /// Point lookup. nullopt when the key does not exist.
  virtual std::optional<VersionedValue> Get(const std::string& key) const = 0;

  /// Version-only point lookup. The validator's MVCC check only
  /// compares versions, so this avoids copying the value payload on
  /// the hottest read path. Default delegates to Get(); backends
  /// should override with a copy-free lookup.
  virtual std::optional<Version> GetVersion(const std::string& key) const;

  /// Range scan over [start_key, end_key), in key order. An empty
  /// end_key means "to the end of the key space" (Fabric semantics).
  virtual std::vector<StateEntry> GetRange(const std::string& start_key,
                                           const std::string& end_key)
      const = 0;

  /// Version-only range iteration over [start_key, end_key), in key
  /// order, used by the validator's phantom-read re-scan — no key or
  /// value strings are materialized. Default delegates to GetRange().
  virtual void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const;

  /// Applies one write (upsert or delete) committed at `version`, and
  /// keeps every field KeysWhere has indexed in step with it. Every
  /// write — bootstrap and commit — comes through here; backends
  /// implement the storage half in DoApplyWrite.
  Status ApplyWrite(const WriteItem& write, Version version);

  /// Number of live keys.
  virtual size_t Size() const = 0;

  /// All entries, ascending by key (used by tests and tooling that
  /// want a materialized snapshot). Prefer ForEachEntry on hot paths.
  virtual std::vector<StateEntry> Scan() const = 0;

  /// Streaming visitation of every entry, ascending by key, without
  /// materializing a copy of the world state (KeysWhere indexes a
  /// field with one such pass). Default delegates to Scan(); backends
  /// should override with a copy-free walk.
  virtual void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const;

  /// Keys whose document's `field` reads `value` (JsonFieldView),
  /// ascending — the rich-query field index. The first call naming
  /// `field` indexes it with one ForEachEntry pass; ApplyWrite keeps
  /// it current from then on. A store nobody rich-queries (every
  /// LevelDB one) never builds an index and pays one empty-map test
  /// per write. The returned set stays valid until the next write.
  /// StateView overrides it: a view sees no writes, so it must never
  /// build an index of its own.
  virtual const std::set<std::string>& KeysWhere(std::string_view field,
                                                 std::string_view value) const;

 private:
  /// The storage half of ApplyWrite.
  virtual Status DoApplyWrite(const WriteItem& write, Version version) = 0;

  /// value -> keys whose document has that value, for one field.
  using Postings = std::map<std::string, std::set<std::string>, std::less<>>;
  /// field -> postings, for every field KeysWhere has been asked
  /// about; mutable because queries build it lazily.
  mutable std::map<std::string, Postings, std::less<>> field_index_;
};

/// True when `key` falls inside the half-open range [start_key,
/// end_key), where an empty end_key extends the range to the end of
/// the key space. THE definition of Fabric range semantics — every
/// backend and the validator's phantom re-scan agree by construction
/// by sharing it.
inline bool KeyInRange(const std::string& key, const std::string& start_key,
                       const std::string& end_key) {
  return key >= start_key && (end_key.empty() || key < end_key);
}

/// Creates an in-memory ordered-map state database.
std::unique_ptr<StateDatabase> MakeMemoryStateDb();

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_STATE_DATABASE_H_
