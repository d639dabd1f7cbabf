#include "src/statedb/hash_state_db.h"

#include <algorithm>
#include <utility>

namespace fabricsim {

HashStateDb::HashStateDb() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

uint64_t HashStateDb::HashKey(const std::string& key) {
  // FNV-1a, 64-bit.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

size_t HashStateDb::FindSlot(const std::string& key, uint64_t hash) const {
  size_t i = static_cast<size_t>(hash) & mask_;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.ref == kEmpty) return SIZE_MAX;
    if (slot.ref != kTombstone && slot.hash == hash &&
        entries_[slot.ref].key == key) {
      return i;
    }
    i = (i + 1) & mask_;
  }
}

void HashStateDb::EnsureCapacityForInsert() {
  size_t capacity = slots_.size();
  if ((occupied_ + 1) * kMaxLoadDen <= capacity * kMaxLoadNum) return;
  // Double while the live keys would fill more than a third of the
  // table (short probe chains are what buys the point-op speedup);
  // otherwise rehash at the same size, which purges the tombstones
  // that triggered the overflow.
  size_t new_capacity = capacity;
  while ((live_ + 1) * 3 > new_capacity) new_capacity *= 2;
  Rehash(new_capacity);
}

void HashStateDb::Rehash(size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  mask_ = new_capacity - 1;
  for (const Slot& slot : old) {
    if (slot.ref == kEmpty || slot.ref == kTombstone) continue;
    size_t i = static_cast<size_t>(slot.hash) & mask_;
    while (slots_[i].ref != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
  occupied_ = live_;
}

std::optional<VersionedValue> HashStateDb::Get(const std::string& key) const {
  size_t slot = FindSlot(key, HashKey(key));
  if (slot == SIZE_MAX) return std::nullopt;
  return entries_[slots_[slot].ref].vv;
}

std::optional<Version> HashStateDb::GetVersion(const std::string& key) const {
  size_t slot = FindSlot(key, HashKey(key));
  if (slot == SIZE_MAX) return std::nullopt;
  return entries_[slots_[slot].ref].vv.version;
}

Status HashStateDb::DoApplyWrite(const WriteItem& write, Version version) {
  uint64_t hash = HashKey(write.key);
  if (write.is_delete) {
    size_t slot = FindSlot(write.key, hash);
    if (slot == SIZE_MAX) return Status::OK();
    uint32_t ref = slots_[slot].ref;
    slots_[slot].ref = kTombstone;  // stays occupied for probe chains
    --live_;
    if (index_valid_) {
      // Stale-ify any index pairs for this entry; keep the key string
      // (stale pairs still binary-search by it) until the next
      // invalidation reclaims the entry.
      ++entries_[ref].gen;
      entries_[ref].vv = VersionedValue{};
      dead_refs_.push_back(ref);
      MaybeInvalidateIndex();
    } else {
      uint32_t gen = entries_[ref].gen + 1;
      entries_[ref] = Entry{};  // release the key/value heap memory
      entries_[ref].gen = gen;
      free_.push_back(ref);
    }
    return Status::OK();
  }
  size_t slot = FindSlot(write.key, hash);
  if (slot != SIZE_MAX) {
    // In-place update: the key set is unchanged, so the sorted index
    // stays valid — commit-time version bumps never pay for ordering.
    entries_[slots_[slot].ref].vv = VersionedValue{write.value, version};
    return Status::OK();
  }
  EnsureCapacityForInsert();
  uint32_t ref;
  if (!free_.empty()) {
    ref = free_.back();
    free_.pop_back();
    entries_[ref].key = write.key;
    entries_[ref].vv = VersionedValue{write.value, version};
  } else {
    ref = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{write.key, VersionedValue{write.value, version}});
  }
  size_t i = static_cast<size_t>(hash) & mask_;
  while (true) {
    Slot& s = slots_[i];
    if (s.ref == kEmpty || s.ref == kTombstone) {
      if (s.ref == kEmpty) ++occupied_;
      s = Slot{hash, ref};
      break;
    }
    i = (i + 1) & mask_;
  }
  ++live_;
  if (index_valid_) {
    uint64_t pair = Pack(entries_[ref].gen, ref);
    auto it = std::lower_bound(pending_.begin(), pending_.end(),
                               entries_[ref].key,
                               [this](uint64_t p, const std::string& key) {
                                 return KeyOf(p) < key;
                               });
    pending_.insert(it, pair);
    MaybeInvalidateIndex();
  }
  return Status::OK();
}

void HashStateDb::MaybeInvalidateIndex() {
  if (pending_.size() + dead_refs_.size() <=
      std::max<size_t>(64, live_ / 64)) {
    return;
  }
  index_valid_ = false;
  sorted_.clear();
  pending_.clear();
  for (uint32_t ref : dead_refs_) {
    uint32_t gen = entries_[ref].gen;
    entries_[ref] = Entry{};  // now safe: no index pair references it
    entries_[ref].gen = gen;
    free_.push_back(ref);
  }
  dead_refs_.clear();
}

void HashStateDb::EnsureIndex() const {
  if (index_valid_) return;
  sorted_.clear();
  sorted_.reserve(live_);
  for (const Slot& slot : slots_) {
    if (slot.ref != kEmpty && slot.ref != kTombstone) {
      sorted_.push_back(Pack(entries_[slot.ref].gen, slot.ref));
    }
  }
  std::sort(sorted_.begin(), sorted_.end(), [this](uint64_t a, uint64_t b) {
    return KeyOf(a) < KeyOf(b);
  });
  pending_.clear();
  index_valid_ = true;
}

template <typename Fn>
void HashStateDb::ForRange(const std::string& start_key,
                           const std::string& end_key, Fn&& fn) const {
  EnsureIndex();
  auto key_less = [this](uint64_t pair, const std::string& key) {
    return KeyOf(pair) < key;
  };
  auto a = start_key.empty()
               ? sorted_.begin()
               : std::lower_bound(sorted_.begin(), sorted_.end(), start_key,
                                  key_less);
  auto b = start_key.empty()
               ? pending_.begin()
               : std::lower_bound(pending_.begin(), pending_.end(), start_key,
                                  key_less);
  // Two-way merge of the main index and the insert buffer; stale pairs
  // (generation mismatch) are skipped. A key can appear as one live
  // pair at most: re-inserting a deleted key stale-ifies the old pair.
  while (a != sorted_.end() || b != pending_.end()) {
    uint64_t pair;
    if (b == pending_.end() ||
        (a != sorted_.end() && !(KeyOf(*b) < KeyOf(*a)))) {
      pair = *a++;
    } else {
      pair = *b++;
    }
    if (!end_key.empty() && KeyOf(pair) >= end_key) break;
    if (!PairLive(pair)) continue;
    fn(entries_[RefOf(pair)]);
  }
}

std::vector<StateEntry> HashStateDb::GetRange(const std::string& start_key,
                                              const std::string& end_key)
    const {
  std::vector<StateEntry> out;
  ForRange(start_key, end_key, [&out](const Entry& entry) {
    out.push_back(StateEntry{entry.key, entry.vv});
  });
  return out;
}

void HashStateDb::ForEachVersionInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  ForRange(start_key, end_key,
           [&fn](const Entry& entry) { fn(entry.key, entry.vv.version); });
}

std::vector<StateEntry> HashStateDb::Scan() const {
  std::vector<StateEntry> out;
  out.reserve(live_);
  ForRange("", "", [&out](const Entry& entry) {
    out.push_back(StateEntry{entry.key, entry.vv});
  });
  return out;
}

void HashStateDb::ForEachEntry(
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  ForRange("", "",
           [&fn](const Entry& entry) { fn(entry.key, entry.vv); });
}

std::unique_ptr<StateDatabase> MakeHashStateDb() {
  return std::make_unique<HashStateDb>();
}

}  // namespace fabricsim
