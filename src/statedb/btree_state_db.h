#ifndef FABRICSIM_STATEDB_BTREE_STATE_DB_H_
#define FABRICSIM_STATEDB_BTREE_STATE_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/statedb/state_database.h"

namespace fabricsim {

/// B+-tree implementation of StateDatabase with fat sorted-array
/// leaves: every leaf holds up to kLeafCapacity entries contiguously,
/// so a point lookup is a short walk down shallow inner nodes followed
/// by one binary search over a cache-resident array, and a range scan
/// is a linear walk along the chained leaves — no per-key pointer
/// chasing, unlike the std::map reference backend whose every step is
/// a cache miss on a fresh tree node.
///
/// Writes keep the tree balanced only on the way up (leaf/inner splits
/// at capacity); deletes erase within the leaf and tolerate underfull
/// leaves, which keeps the delete path trivial at the cost of sparse
/// leaves under delete-heavy churn — the right trade for world state,
/// where deletes are rare and ranges are hot (phantom re-scans).
class BTreeStateDb : public StateDatabase {
 public:
  BTreeStateDb();
  ~BTreeStateDb() override;

  std::optional<VersionedValue> Get(const std::string& key) const override;
  std::optional<Version> GetVersion(const std::string& key) const override;
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const override;
  void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const override;
  size_t Size() const override { return size_; }
  std::vector<StateEntry> Scan() const override;
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override;

 private:
  Status DoApplyWrite(const WriteItem& write, Version version) override;

  struct Entry {
    std::string key;
    VersionedValue vv;
  };
  /// One tree node; leaves use `entries` + `next`, inner nodes use
  /// `keys` + `children` (keys[i] is the smallest key reachable under
  /// children[i+1]).
  struct Node {
    bool is_leaf = true;
    std::vector<Entry> entries;                   // leaf payload, sorted
    Node* next = nullptr;                         // leaf chain, key order
    std::vector<std::string> keys;                // inner separators
    std::vector<std::unique_ptr<Node>> children;  // keys.size() + 1
  };
  /// Result of an insert that overflowed a child: the new right
  /// sibling and the separator key that now splits the pair.
  struct Split {
    std::string separator;
    std::unique_ptr<Node> right;
  };

  static constexpr size_t kLeafCapacity = 64;
  static constexpr size_t kInnerCapacity = 32;  // max children per inner

  /// Leaf that would contain `key` if present.
  const Node* FindLeaf(const std::string& key) const;
  /// Leftmost leaf (smallest keys); nullptr when empty.
  const Node* FirstLeaf() const;

  /// Inserts or updates under `node`; returns a Split when `node`
  /// overflowed and the caller must graft the new sibling.
  std::unique_ptr<Split> Insert(Node* node, const std::string& key,
                                const std::string& value, Version version);

  template <typename Fn>
  void ForRange(const std::string& start_key, const std::string& end_key,
                Fn&& fn) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_BTREE_STATE_DB_H_
