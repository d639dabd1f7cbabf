#include "src/statedb/memory_state_db.h"

namespace fabricsim {

std::optional<VersionedValue> MemoryStateDb::Get(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::optional<Version> MemoryStateDb::GetVersion(
    const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.version;
}

std::vector<StateEntry> MemoryStateDb::GetRange(
    const std::string& start_key, const std::string& end_key) const {
  std::vector<StateEntry> out;
  auto it = map_.lower_bound(start_key);
  auto end = end_key.empty() ? map_.end() : map_.lower_bound(end_key);
  for (; it != end; ++it) {
    out.push_back(StateEntry{it->first, it->second});
  }
  return out;
}

void MemoryStateDb::ForEachVersionInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  auto it = map_.lower_bound(start_key);
  auto end = end_key.empty() ? map_.end() : map_.lower_bound(end_key);
  for (; it != end; ++it) fn(it->first, it->second.version);
}

Status MemoryStateDb::DoApplyWrite(const WriteItem& write, Version version) {
  if (write.is_delete) {
    map_.erase(write.key);
    return Status::OK();
  }
  map_[write.key] = VersionedValue{write.value, version};
  return Status::OK();
}

std::vector<StateEntry> MemoryStateDb::Scan() const {
  std::vector<StateEntry> out;
  out.reserve(map_.size());
  for (const auto& [key, vv] : map_) out.push_back(StateEntry{key, vv});
  return out;
}

void MemoryStateDb::ForEachEntry(
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  for (const auto& [key, vv] : map_) fn(key, vv);
}

std::unique_ptr<StateDatabase> MakeMemoryStateDb() {
  return std::make_unique<MemoryStateDb>();
}

}  // namespace fabricsim
