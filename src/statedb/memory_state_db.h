#ifndef FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
#define FABRICSIM_STATEDB_MEMORY_STATE_DB_H_

#include <map>
#include <set>
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
  const VersionedValue* Find(const std::string& key) const override;
  void ForEachInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override;
  /// Writes the map and keeps every field KeysWhere has indexed in step
  /// with it; the old document is read only when some field is indexed.
  Status ApplyWrite(const WriteItem& write, Version version) override;
  size_t Size() const override { return map_.size(); }
  /// The rich-query field index. The first call naming `field` indexes
  /// it with one pass over the map; ApplyWrite keeps it current from
  /// then on. A store nobody rich-queries (every LevelDB one) never
  /// builds an index and pays one empty-map test per write.
  const std::set<std::string>& KeysWhere(std::string_view field,
                                         std::string_view value) const override;

 private:
  std::map<std::string, VersionedValue> map_;
  /// value -> keys whose document has that value, for one field.
  using Postings = std::map<std::string, std::set<std::string>, std::less<>>;
  /// field -> postings, for every field KeysWhere has been asked
  /// about; mutable because queries build it lazily.
  mutable std::map<std::string, Postings, std::less<>> field_index_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
