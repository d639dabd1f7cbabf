#ifndef FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
#define FABRICSIM_STATEDB_MEMORY_STATE_DB_H_

#include <map>
#include <string>
#include <string_view>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// Ordered std::map implementation of StateDatabase: the one store. A
/// network keeps one instance per channel, the head of that channel's
/// ChannelState; the tests' serial replays use it as the reference.
/// The data structure moves no simulated number: what a call costs is
/// DbLatencyProfile's to charge.
class MemoryStateDb final : public StateDatabase {
 public:
  MemoryStateDb() = default;
  /// The field index points at this store's own map entries, so a copy
  /// would read the original's.
  MemoryStateDb(const MemoryStateDb&) = delete;
  MemoryStateDb& operator=(const MemoryStateDb&) = delete;

  const VersionedValue* Find(const std::string& key) const override;
  void ForEachInRange(const std::string& start_key, const std::string& end_key,
                      const StateEntryVisitor& fn) const override;
  /// Walks the smallest posting list among the selector's terms and
  /// re-checks only the other terms; each entry is lent from its map
  /// node. The first query naming a field indexes it with one pass
  /// over the map, and ApplyWrite keeps it current from then on. A
  /// store nobody rich-queries (every LevelDB one) never builds an
  /// index.
  void ForEachMatch(const RichQuerySelector& selector,
                    const StateEntryVisitor& fn) const override;
  /// Writes the map and keeps every indexed field in step with it: a
  /// key leaves its old postings while its old document is still there
  /// to read, and joins its new ones through its map node. With no
  /// field indexed, a write is one map assignment.
  Status ApplyWrite(const WriteItem& write, Version version) override;
  size_t Size() const override { return map_.size(); }

 private:
  using Map = std::map<std::string, VersionedValue>;
  /// The entries of map_ whose document has one value in one field, by
  /// key. std::map nodes never move, so the views and pointers stay
  /// valid until ApplyWrite drops the entry.
  using Posting = std::map<std::string_view, const Map::value_type*>;
  /// value -> its posting, for one field.
  using Postings = std::map<std::string, Posting, std::less<>>;

  /// The posting of `field` == `value`, indexing `field` first if no
  /// query has named it yet.
  const Posting& PostingOf(std::string_view field,
                           std::string_view value) const;

  Map map_;
  /// field -> postings, for every field a query has named; mutable
  /// because queries build it lazily.
  mutable std::map<std::string, Postings, std::less<>> field_index_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
