#ifndef FABRICSIM_STATEDB_HASH_STATE_DB_H_
#define FABRICSIM_STATEDB_HASH_STATE_DB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// Open-addressing hash implementation of StateDatabase, in the style
/// of Halo's cache-friendly hash index: a flat power-of-two slot array
/// probed linearly, 64-bit FNV-1a key hashes compared before any
/// string comparison, tombstone deletes, and growth by doubling. Point
/// ops (Get / GetVersion / ApplyWrite) are O(1) and touch one cache
/// line of slot metadata in the common case.
///
/// Ordered reads (GetRange, Scan, ForEachVersionInRange, ForEachEntry)
/// are served from a lazily maintained sorted index with two regimes:
///
///  * **Bulk (index invalid).** No ordered read since the last write
///    burst: writes do zero index maintenance, and the next ordered
///    read rebuilds the index in one O(n log n) sort. Bulk loads and
///    point-only phases never pay for ordering.
///  * **Incremental (index valid).** Inserts go into a small sorted
///    insert buffer merged on the fly during reads; deletes bump a
///    per-entry generation so stale index pairs are skipped without
///    touching the index. Once buffer + dead pairs exceed live/64 the
///    index drops back to bulk mode, so maintenance cost stays O(n/64)
///    per write worst case and zero when nobody scans.
///
/// In-place updates (commit-time version bumps of existing keys — the
/// hottest write path) never touch the index in either regime.
/// Workloads that interleave inserts with scans (YCSB E) pay one
/// amortized rebuild per n/64 writes; pure scans after a burst pay one
/// sort.
class HashStateDb : public StateDatabase {
 public:
  HashStateDb();

  std::optional<VersionedValue> Get(const std::string& key) const override;
  std::optional<Version> GetVersion(const std::string& key) const override;
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const override;
  void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const override;
  size_t Size() const override { return live_; }
  std::vector<StateEntry> Scan() const override;
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override;

 private:
  Status DoApplyWrite(const WriteItem& write, Version version) override;

  struct Entry {
    std::string key;
    VersionedValue vv;
    /// Bumped on every delete of this entry; index pairs carry the
    /// generation they were created under, so a pair whose generation
    /// no longer matches is stale and skipped during iteration.
    uint32_t gen = 0;
  };
  /// One probe slot. `ref` indexes entries_, or holds one of the two
  /// sentinels below. The cached hash makes probe-chain comparisons
  /// cheap: the full key is only compared on a 64-bit hash match.
  struct Slot {
    uint64_t hash = 0;
    uint32_t ref = kEmpty;
  };
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr uint32_t kTombstone = 0xFFFFFFFEu;

  static uint64_t HashKey(const std::string& key);

  /// Returns the slot index holding `key`, or SIZE_MAX when absent.
  size_t FindSlot(const std::string& key, uint64_t hash) const;

  /// Grows (or rehashes in place to purge tombstones) so one more
  /// insert keeps the occupied fraction, tombstones included, at or
  /// below kMaxLoadNum/kMaxLoadDen.
  void EnsureCapacityForInsert();
  void Rehash(size_t new_capacity);

  /// An index pair packs (entry generation << 32 | entry ref); the
  /// pair is live iff its generation still matches the entry's.
  static uint64_t Pack(uint32_t gen, uint32_t ref) {
    return (static_cast<uint64_t>(gen) << 32) | ref;
  }
  static uint32_t RefOf(uint64_t pair) { return static_cast<uint32_t>(pair); }
  static uint32_t GenOf(uint64_t pair) {
    return static_cast<uint32_t>(pair >> 32);
  }
  bool PairLive(uint64_t pair) const {
    return entries_[RefOf(pair)].gen == GenOf(pair);
  }
  const std::string& KeyOf(uint64_t pair) const {
    return entries_[RefOf(pair)].key;
  }

  /// Rebuilds the sorted index from the slot array if it is invalid.
  void EnsureIndex() const;

  /// Drops back to bulk mode once the insert buffer plus dead pairs
  /// outgrow live_/64, reclaiming dead entries' memory.
  void MaybeInvalidateIndex();

  /// Iterates live entries in [start_key, end_key) ascending by key,
  /// merging the main index with the insert buffer on the fly.
  template <typename Fn>
  void ForRange(const std::string& start_key, const std::string& end_key,
                Fn&& fn) const;

  static constexpr size_t kMinCapacity = 64;
  static constexpr size_t kMaxLoadNum = 5;  // max load factor 5/8,
  static constexpr size_t kMaxLoadDen = 8;  // tombstones included

  std::vector<Slot> slots_;
  size_t mask_ = 0;       // capacity - 1 (capacity is a power of two)
  size_t occupied_ = 0;   // live + tombstone slots
  size_t live_ = 0;       // live keys

  std::vector<Entry> entries_;      // slot refs point here
  std::vector<uint32_t> free_;      // reusable holes in entries_

  /// Main sorted index: (gen, ref) pairs ascending by key, possibly
  /// containing stale pairs (skipped via the generation check). Only
  /// meaningful while index_valid_; mutable because ordered reads
  /// rebuild it lazily.
  mutable std::vector<uint64_t> sorted_;
  /// Inserts since the last rebuild, kept sorted by key.
  mutable std::vector<uint64_t> pending_;
  mutable bool index_valid_ = false;
  /// Entries deleted while the index was valid: their key strings are
  /// retained (stale pairs still compare by them) and their memory is
  /// reclaimed at the next invalidation. Empty whenever the index is
  /// invalid.
  std::vector<uint32_t> dead_refs_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_HASH_STATE_DB_H_
