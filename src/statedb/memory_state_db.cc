#include "src/statedb/memory_state_db.h"

#include "src/statedb/rich_query.h"

namespace fabricsim {

const VersionedValue* MemoryStateDb::Find(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void MemoryStateDb::ForEachInRange(const std::string& start_key,
                                   const std::string& end_key,
                                   const StateEntryVisitor& fn) const {
  if (RangeIsEmpty(start_key, end_key)) return;
  auto it = map_.lower_bound(start_key);
  auto end = end_key.empty() ? map_.end() : map_.lower_bound(end_key);
  for (; it != end; ++it) fn(it->first, it->second);
}

void MemoryStateDb::ForEachMatch(const RichQuerySelector& selector,
                                 const StateEntryVisitor& fn) const {
  const auto& terms = selector.terms();
  const Posting* candidates = nullptr;
  size_t chosen = 0;
  for (size_t t = 0; t < terms.size(); ++t) {
    const Posting& posting = PostingOf(terms[t].first, terms[t].second);
    if (candidates == nullptr || posting.size() < candidates->size()) {
      candidates = &posting;
      chosen = t;
    }
  }
  for (const auto& [key, entry] : *candidates) {
    bool matches = true;
    for (size_t t = 0; t < terms.size() && matches; ++t) {
      matches = t == chosen || JsonFieldView(entry->second.value,
                                             terms[t].first) == terms[t].second;
    }
    if (matches) fn(entry->first, entry->second);
  }
}

Status MemoryStateDb::ApplyWrite(const WriteItem& write, Version version) {
  // An entry try_emplace adds holds an empty document, which has no
  // field, until the write below.
  auto entry = write.is_delete ? map_.find(write.key)
                               : map_.try_emplace(write.key).first;
  if (entry == map_.end()) return Status::OK();  // deleting a missing key
  for (auto& [field, postings] : field_index_) {
    std::optional<std::string_view> before =
        JsonFieldView(entry->second.value, field);
    std::optional<std::string_view> after =
        write.is_delete ? std::nullopt : JsonFieldView(write.value, field);
    if (before == after) continue;
    if (before.has_value()) {
      auto it = postings.find(*before);
      if (it != postings.end()) {
        it->second.erase(entry->first);
        if (it->second.empty()) postings.erase(it);
      }
    }
    if (after.has_value()) {
      postings[std::string(*after)].emplace(entry->first, &*entry);
    }
  }
  if (write.is_delete) {
    map_.erase(entry);
  } else {
    entry->second = VersionedValue{write.value, version};
  }
  return Status::OK();
}

const MemoryStateDb::Posting& MemoryStateDb::PostingOf(
    std::string_view field, std::string_view value) const {
  static const Posting kNone;
  auto indexed = field_index_.find(field);
  if (indexed == field_index_.end()) {
    indexed = field_index_.emplace(std::string(field), Postings()).first;
    for (const Map::value_type& entry : map_) {
      std::optional<std::string_view> got =
          JsonFieldView(entry.second.value, field);
      if (!got.has_value()) continue;
      Posting& posting = indexed->second[std::string(*got)];
      // Entries arrive in ascending key order.
      posting.emplace_hint(posting.end(), entry.first, &entry);
    }
  }
  auto it = indexed->second.find(value);
  return it == indexed->second.end() ? kNone : it->second;
}

std::unique_ptr<StateDatabase> MakeMemoryStateDb() {
  return std::make_unique<MemoryStateDb>();
}

}  // namespace fabricsim
