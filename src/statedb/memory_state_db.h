#ifndef FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
#define FABRICSIM_STATEDB_MEMORY_STATE_DB_H_

#include <map>
#include <string>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// Ordered std::map implementation of StateDatabase — the reference
/// backend (StateBackendType::kOrderedMap) and the default: all paper
/// figures are pinned to it bit for bit. A network keeps one instance
/// per channel, the head of that channel's ChannelState; the tests'
/// serial replays use it as the reference.
class MemoryStateDb : public StateDatabase {
 public:
  std::optional<VersionedValue> Get(const std::string& key) const override;
  std::optional<Version> GetVersion(const std::string& key) const override;
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const override;
  void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const override;
  size_t Size() const override { return map_.size(); }
  std::vector<StateEntry> Scan() const override;
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override;

 private:
  Status DoApplyWrite(const WriteItem& write, Version version) override;

  std::map<std::string, VersionedValue> map_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_MEMORY_STATE_DB_H_
