#ifndef FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
#define FABRICSIM_STATEDB_MEMORY_STATE_DB_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// A bootstrap world state, built once and then only read: the entries
/// a chaincode's BootstrapState() leaves, key-sorted, at
/// kBootstrapVersion. A network builds one and every channel's head
/// reads it in place, so a network holds one copy of the bootstrap
/// however many channels it has. It is only ever handed out const, and
/// nothing in it moves after Build, so a store may lend its entries
/// for as long as it holds it.
class FrozenState {
 public:
  /// No entries.
  FrozenState() = default;

  /// Reads exactly like an empty MemoryStateDb after ApplyWrite of
  /// `writes`, in order, at kBootstrapVersion: a later write of a key
  /// wins and a delete removes the key. The writes may come in any key
  /// order; their strings are moved, not copied.
  static std::shared_ptr<const FrozenState> Build(
      std::vector<WriteItem> writes);

  /// Every entry, strictly ascending by key.
  const std::vector<StateEntry>& entries() const { return entries_; }
  /// The first entry whose key is not below `key`.
  std::vector<StateEntry>::const_iterator LowerBound(
      const std::string& key) const;

 private:
  std::vector<StateEntry> entries_;
};

/// Ordered implementation of StateDatabase: the one store. A network
/// keeps one instance per channel, the head of that channel's
/// ChannelState; the tests' serial replays use it as the reference.
/// The data structure moves no simulated number: what a call costs is
/// DbLatencyProfile's to charge.
///
/// A store is a read-only *base* (a FrozenState, shared with the other
/// channels' heads) plus a *delta*: an ordered map of the keys written
/// since, in which a deleted base key stays as a *tombstone* that hides
/// it. Reads look in the delta first; a range read merges the two in
/// one pass. A store built without a base has an empty one, and its
/// delta is the whole state.
class MemoryStateDb final : public StateDatabase {
 public:
  /// A store that reads `base` (none when null) until a write replaces
  /// or deletes a key of it.
  explicit MemoryStateDb(std::shared_ptr<const FrozenState> base = nullptr);
  /// The field index points at this store's own delta entries, so a
  /// copy would read the original's.
  MemoryStateDb(const MemoryStateDb&) = delete;
  MemoryStateDb& operator=(const MemoryStateDb&) = delete;

  /// The delta's entry, else the base's: one delta descent, then a
  /// binary search of the base.
  const VersionedValue* Find(const std::string& key) const override;
  /// One merge pass of the delta and the base over the range: the
  /// delta's entry wins at an equal key, and a tombstone hides its key.
  /// Where the delta has no key left in the range, the base is walked
  /// alone.
  void ForEachInRange(const std::string& start_key, const std::string& end_key,
                      const StateEntryVisitor& fn) const override;
  /// Walks the smallest posting list among the selector's terms and
  /// re-checks only the other terms; each entry is lent from the base
  /// or the delta, wherever the key's live entry is. The first query
  /// naming a field indexes it with one pass over the store, and
  /// ApplyWrite keeps it current from then on. A store nobody
  /// rich-queries (every LevelDB one) never builds an index.
  void ForEachMatch(const RichQuerySelector& selector,
                    const StateEntryVisitor& fn) const override;
  /// Writes the delta and keeps every indexed field in step with it: a
  /// key leaves its old postings while its old document is still there
  /// to read, and joins its new ones through its delta entry. The first
  /// write of a base key moves its postings to the delta even where the
  /// field keeps its value, since the base entry's version is stale.
  /// Without a base and with no field indexed, a write is one tree
  /// descent.
  Status ApplyWrite(const WriteItem& write, Version version) override;
  size_t Size() const override { return size_; }

  /// The base this store reads; an empty one for a store built without.
  const FrozenState* base() const { return base_.get(); }

 private:
  /// key -> its value since the bootstrap; nullopt is a tombstone over
  /// a base key. std::map nodes never move, and an optional keeps its
  /// value inside the node, so a lent value stays put across writes.
  using Delta = std::map<std::string, std::optional<VersionedValue>>;
  /// The live entries whose document has one value in one field, by
  /// key, each lent from the base or the delta. The views and
  /// references stay valid until ApplyWrite moves the entry.
  using Posting = std::map<std::string_view, StateEntryRef>;
  /// value -> its posting, for one field.
  using Postings = std::map<std::string, Posting, std::less<>>;

  /// The base's entry of `key`, or nullptr.
  const StateEntry* BaseEntry(const std::string& key) const;
  /// The posting of `field` == `value`, indexing `field` first if no
  /// query has named it yet.
  const Posting& PostingOf(std::string_view field,
                           std::string_view value) const;

  std::shared_ptr<const FrozenState> base_;
  Delta delta_;
  /// Live keys: the base's, less the tombstones, plus the delta's new
  /// ones.
  size_t size_;
  /// field -> postings, for every field a query has named; mutable
  /// because queries build it lazily.
  mutable std::map<std::string, Postings, std::less<>> field_index_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
