#include "src/statedb/memory_state_db.h"

#include <algorithm>
#include <tuple>

#include "src/statedb/rich_query.h"

namespace fabricsim {

std::shared_ptr<const FrozenState> FrozenState::Build(
    std::vector<WriteItem> writes) {
  auto by_key = [](const WriteItem& a, const WriteItem& b) {
    return a.key < b.key;
  };
  // Stable, so the writes of one key keep their order. A sorted set
  // (genchain's) skips the sort, which moves every write log n times
  // even then.
  if (!std::is_sorted(writes.begin(), writes.end(), by_key)) {
    std::stable_sort(writes.begin(), writes.end(), by_key);
  }
  auto frozen = std::make_shared<FrozenState>();
  frozen->entries_.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    WriteItem& write = writes[i];
    const bool overwritten =
        i + 1 < writes.size() && writes[i + 1].key == write.key;
    if (overwritten || write.is_delete) continue;
    frozen->entries_.push_back(
        StateEntry{std::move(write.key),
                   VersionedValue{std::move(write.value), kBootstrapVersion}});
  }
  return frozen;
}

std::vector<StateEntry>::const_iterator FrozenState::LowerBound(
    const std::string& key) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const StateEntry& entry, const std::string& k) {
        return entry.key < k;
      });
}

MemoryStateDb::MemoryStateDb(std::shared_ptr<const FrozenState> base)
    : base_(base != nullptr ? std::move(base)
                            : std::make_shared<const FrozenState>()),
      size_(base_->entries().size()) {}

const StateEntry* MemoryStateDb::BaseEntry(const std::string& key) const {
  auto it = base_->LowerBound(key);
  return it != base_->entries().end() && it->key == key ? &*it : nullptr;
}

const VersionedValue* MemoryStateDb::Find(const std::string& key) const {
  auto it = delta_.find(key);
  if (it != delta_.end()) {
    return it->second.has_value() ? &*it->second : nullptr;
  }
  const StateEntry* entry = BaseEntry(key);
  return entry == nullptr ? nullptr : &entry->vv;
}

void MemoryStateDb::ForEachInRange(const std::string& start_key,
                                   const std::string& end_key,
                                   const StateEntryVisitor& fn) const {
  if (RangeIsEmpty(start_key, end_key)) return;
  auto d = delta_.lower_bound(start_key);
  auto d_end = end_key.empty() ? delta_.end() : delta_.lower_bound(end_key);
  auto b = base_->LowerBound(start_key);
  auto b_end =
      end_key.empty() ? base_->entries().end() : base_->LowerBound(end_key);
  for (; d != d_end; ++d) {
    for (; b != b_end && b->key < d->first; ++b) fn(b->key, b->vv);
    if (b != b_end && b->key == d->first) ++b;  // the delta's entry wins
    if (d->second.has_value()) fn(d->first, *d->second);
  }
  for (; b != b_end; ++b) fn(b->key, b->vv);
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
      matches = t == chosen || JsonFieldView(entry.vv.value, terms[t].first) ==
                                   terms[t].second;
    }
    if (matches) fn(entry.key, entry.vv);
  }
}

Status MemoryStateDb::ApplyWrite(const WriteItem& write, Version version) {
  Delta::iterator it;
  // The base entry this write hides for the first time, if any.
  const StateEntry* hidden = nullptr;
  if (write.is_delete) {
    it = delta_.find(write.key);
    if (it == delta_.end()) {
      hidden = BaseEntry(write.key);
      if (hidden == nullptr) return Status::OK();  // deleting a missing key
      it = delta_.emplace_hint(it, write.key, std::nullopt);
    }
  } else {
    bool inserted = false;
    std::tie(it, inserted) = delta_.try_emplace(write.key);
    if (inserted) hidden = BaseEntry(write.key);
  }
  // What the key reads before this write; nullptr when it is absent.
  const VersionedValue* before = nullptr;
  if (hidden != nullptr) {
    before = &hidden->vv;
  } else if (it->second.has_value()) {
    before = &*it->second;
  }
  if (write.is_delete && before == nullptr) return Status::OK();  // a tombstone
  // An entry engaged here holds an empty document, which has no field,
  // until the write below; its value never moves after.
  if (!write.is_delete && !it->second.has_value()) it->second.emplace();
  for (auto& [field, postings] : field_index_) {
    std::optional<std::string_view> old =
        before == nullptr ? std::nullopt : JsonFieldView(before->value, field);
    std::optional<std::string_view> now =
        write.is_delete ? std::nullopt : JsonFieldView(write.value, field);
    // A hidden base entry's posting moves to the delta entry even where
    // the field keeps its value.
    if (old == now && hidden == nullptr) continue;
    if (old.has_value()) {
      auto p = postings.find(*old);
      if (p != postings.end()) {
        p->second.erase(write.key);
        if (p->second.empty()) postings.erase(p);
      }
    }
    if (now.has_value()) {
      postings[std::string(*now)].emplace(
          it->first, StateEntryRef{it->first, *it->second});
    }
  }
  if (write.is_delete) {
    --size_;
    // A base key keeps a tombstone; any other key leaves the delta.
    if (hidden != nullptr || BaseEntry(write.key) != nullptr) {
      it->second.reset();
    } else {
      delta_.erase(it);
    }
  } else {
    if (before == nullptr) ++size_;
    *it->second = VersionedValue{write.value, version};
  }
  return Status::OK();
}

const MemoryStateDb::Posting& MemoryStateDb::PostingOf(
    std::string_view field, std::string_view value) const {
  static const Posting kNone;
  auto indexed = field_index_.find(field);
  if (indexed == field_index_.end()) {
    indexed = field_index_.emplace(std::string(field), Postings()).first;
    Postings& postings = indexed->second;
    ForEachInRange("", "", [&](const std::string& key,
                               const VersionedValue& vv) {
      std::optional<std::string_view> got = JsonFieldView(vv.value, field);
      if (!got.has_value()) return;
      Posting& posting = postings[std::string(*got)];
      // Entries arrive in ascending key order.
      posting.emplace_hint(posting.end(), key, StateEntryRef{key, vv});
    });
  }
  auto it = indexed->second.find(value);
  return it == indexed->second.end() ? kNone : it->second;
}

std::unique_ptr<StateDatabase> MakeMemoryStateDb() {
  return std::make_unique<MemoryStateDb>();
}

}  // namespace fabricsim
