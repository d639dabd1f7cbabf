#include "src/statedb/memory_state_db.h"

#include "src/statedb/rich_query.h"

namespace fabricsim {

const VersionedValue* MemoryStateDb::Find(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void MemoryStateDb::ForEachInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  if (RangeIsEmpty(start_key, end_key)) return;
  auto it = map_.lower_bound(start_key);
  auto end = end_key.empty() ? map_.end() : map_.lower_bound(end_key);
  for (; it != end; ++it) fn(it->first, it->second);
}

Status MemoryStateDb::ApplyWrite(const WriteItem& write, Version version) {
  if (!field_index_.empty()) {
    // Postings move first: `before` views the old document in map_.
    auto old = map_.find(write.key);
    for (auto& [field, postings] : field_index_) {
      std::optional<std::string_view> before =
          old != map_.end() ? JsonFieldView(old->second.value, field)
                            : std::nullopt;
      std::optional<std::string_view> after =
          write.is_delete ? std::nullopt : JsonFieldView(write.value, field);
      if (before == after) continue;
      if (before.has_value()) {
        auto it = postings.find(*before);
        if (it != postings.end()) {
          it->second.erase(write.key);
          if (it->second.empty()) postings.erase(it);
        }
      }
      if (after.has_value()) postings[std::string(*after)].insert(write.key);
    }
  }
  if (write.is_delete) {
    map_.erase(write.key);
    return Status::OK();
  }
  map_[write.key] = VersionedValue{write.value, version};
  return Status::OK();
}

const std::set<std::string>& MemoryStateDb::KeysWhere(
    std::string_view field, std::string_view value) const {
  static const std::set<std::string> kNone;
  auto indexed = field_index_.find(field);
  if (indexed == field_index_.end()) {
    indexed = field_index_.emplace(std::string(field), Postings()).first;
    Postings& postings = indexed->second;
    for (const auto& [key, vv] : map_) {
      std::optional<std::string_view> got = JsonFieldView(vv.value, field);
      if (!got.has_value()) continue;
      std::set<std::string>& keys = postings[std::string(*got)];
      keys.emplace_hint(keys.end(), key);  // keys arrive in ascending order
    }
  }
  auto it = indexed->second.find(value);
  return it == indexed->second.end() ? kNone : it->second;
}

std::unique_ptr<StateDatabase> MakeMemoryStateDb() {
  return std::make_unique<MemoryStateDb>();
}

}  // namespace fabricsim
