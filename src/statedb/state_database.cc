#include "src/statedb/state_database.h"

#include "src/statedb/rich_query.h"

namespace fabricsim {

Status StateDatabase::ApplyWrite(const WriteItem& write, Version version) {
  if (field_index_.empty()) return DoApplyWrite(write, version);
  std::optional<VersionedValue> old = Get(write.key);
  FABRICSIM_RETURN_NOT_OK(DoApplyWrite(write, version));
  for (auto& [field, postings] : field_index_) {
    std::optional<std::string_view> before =
        old.has_value() ? JsonFieldView(old->value, field) : std::nullopt;
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
  return Status::OK();
}

const std::set<std::string>& StateDatabase::KeysWhere(
    std::string_view field, std::string_view value) const {
  static const std::set<std::string> kNone;
  auto indexed = field_index_.find(field);
  if (indexed == field_index_.end()) {
    indexed = field_index_.emplace(std::string(field), Postings()).first;
    Postings& postings = indexed->second;
    ForEachEntry([&](const std::string& key, const VersionedValue& vv) {
      std::optional<std::string_view> got = JsonFieldView(vv.value, field);
      if (!got.has_value()) return;
      std::set<std::string>& keys = postings[std::string(*got)];
      keys.emplace_hint(keys.end(), key);  // keys arrive in ascending order
    });
  }
  auto it = indexed->second.find(value);
  return it == indexed->second.end() ? kNone : it->second;
}

std::optional<Version> StateDatabase::GetVersion(
    const std::string& key) const {
  std::optional<VersionedValue> vv = Get(key);
  if (!vv.has_value()) return std::nullopt;
  return vv->version;
}

void StateDatabase::ForEachVersionInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  for (const StateEntry& e : GetRange(start_key, end_key)) {
    fn(e.key, e.vv.version);
  }
}

void StateDatabase::ForEachEntry(
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  for (const StateEntry& e : Scan()) fn(e.key, e.vv);
}

}  // namespace fabricsim
