#include "src/statedb/btree_state_db.h"

#include <algorithm>
#include <utility>

namespace fabricsim {
namespace {

/// Binary search for `key` inside a leaf's sorted entry array.
template <typename Entries>
auto LeafLowerBound(Entries& entries, const std::string& key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& entry, const std::string& k) { return entry.key < k; });
}

}  // namespace

BTreeStateDb::BTreeStateDb() : root_(std::make_unique<Node>()) {}

BTreeStateDb::~BTreeStateDb() = default;

const BTreeStateDb::Node* BTreeStateDb::FindLeaf(
    const std::string& key) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    size_t idx = static_cast<size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    node = node->children[idx].get();
  }
  return node;
}

const BTreeStateDb::Node* BTreeStateDb::FirstLeaf() const {
  const Node* node = root_.get();
  while (!node->is_leaf) node = node->children.front().get();
  return node;
}

std::optional<VersionedValue> BTreeStateDb::Get(const std::string& key) const {
  const Node* leaf = FindLeaf(key);
  auto it = LeafLowerBound(leaf->entries, key);
  if (it == leaf->entries.end() || it->key != key) return std::nullopt;
  return it->vv;
}

std::optional<Version> BTreeStateDb::GetVersion(const std::string& key) const {
  const Node* leaf = FindLeaf(key);
  auto it = LeafLowerBound(leaf->entries, key);
  if (it == leaf->entries.end() || it->key != key) return std::nullopt;
  return it->vv.version;
}

std::unique_ptr<BTreeStateDb::Split> BTreeStateDb::Insert(
    Node* node, const std::string& key, const std::string& value,
    Version version) {
  if (node->is_leaf) {
    auto it = LeafLowerBound(node->entries, key);
    if (it != node->entries.end() && it->key == key) {
      it->vv = VersionedValue{value, version};
      return nullptr;
    }
    node->entries.insert(it, Entry{key, VersionedValue{value, version}});
    ++size_;
    if (node->entries.size() <= kLeafCapacity) return nullptr;
    auto right = std::make_unique<Node>();
    size_t mid = node->entries.size() / 2;
    right->entries.assign(std::make_move_iterator(node->entries.begin() +
                                                  static_cast<long>(mid)),
                          std::make_move_iterator(node->entries.end()));
    node->entries.resize(mid);
    right->next = node->next;
    node->next = right.get();
    auto split = std::make_unique<Split>();
    split->separator = right->entries.front().key;
    split->right = std::move(right);
    return split;
  }
  size_t idx = static_cast<size_t>(
      std::upper_bound(node->keys.begin(), node->keys.end(), key) -
      node->keys.begin());
  std::unique_ptr<Split> child_split =
      Insert(node->children[idx].get(), key, value, version);
  if (child_split == nullptr) return nullptr;
  node->keys.insert(node->keys.begin() + static_cast<long>(idx),
                    std::move(child_split->separator));
  node->children.insert(node->children.begin() + static_cast<long>(idx) + 1,
                        std::move(child_split->right));
  if (node->children.size() <= kInnerCapacity) return nullptr;
  auto right = std::make_unique<Node>();
  right->is_leaf = false;
  size_t mid = node->keys.size() / 2;
  auto split = std::make_unique<Split>();
  split->separator = std::move(node->keys[mid]);
  right->keys.assign(
      std::make_move_iterator(node->keys.begin() + static_cast<long>(mid) + 1),
      std::make_move_iterator(node->keys.end()));
  right->children.assign(std::make_move_iterator(node->children.begin() +
                                                 static_cast<long>(mid) + 1),
                         std::make_move_iterator(node->children.end()));
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  split->right = std::move(right);
  return split;
}

Status BTreeStateDb::DoApplyWrite(const WriteItem& write, Version version) {
  if (write.is_delete) {
    // Erase within the leaf; underfull (even empty) leaves are left in
    // place — separators and the leaf chain stay valid, lookups that
    // land there simply find nothing.
    Node* node = root_.get();
    while (!node->is_leaf) {
      size_t idx = static_cast<size_t>(
          std::upper_bound(node->keys.begin(), node->keys.end(), write.key) -
          node->keys.begin());
      node = node->children[idx].get();
    }
    auto it = LeafLowerBound(node->entries, write.key);
    if (it != node->entries.end() && it->key == write.key) {
      node->entries.erase(it);
      --size_;
    }
    return Status::OK();
  }
  std::unique_ptr<Split> split =
      Insert(root_.get(), write.key, write.value, version);
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  return Status::OK();
}

template <typename Fn>
void BTreeStateDb::ForRange(const std::string& start_key,
                            const std::string& end_key, Fn&& fn) const {
  const Node* leaf = FindLeaf(start_key);
  auto it = LeafLowerBound(leaf->entries, start_key);
  while (leaf != nullptr) {
    for (; it != leaf->entries.end(); ++it) {
      if (!end_key.empty() && it->key >= end_key) return;
      fn(*it);
    }
    leaf = leaf->next;
    if (leaf != nullptr) it = leaf->entries.begin();
  }
}

std::vector<StateEntry> BTreeStateDb::GetRange(const std::string& start_key,
                                               const std::string& end_key)
    const {
  std::vector<StateEntry> out;
  ForRange(start_key, end_key, [&out](const Entry& entry) {
    out.push_back(StateEntry{entry.key, entry.vv});
  });
  return out;
}

void BTreeStateDb::ForEachVersionInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  ForRange(start_key, end_key,
           [&fn](const Entry& entry) { fn(entry.key, entry.vv.version); });
}

std::vector<StateEntry> BTreeStateDb::Scan() const {
  std::vector<StateEntry> out;
  out.reserve(size_);
  for (const Node* leaf = FirstLeaf(); leaf != nullptr; leaf = leaf->next) {
    for (const Entry& entry : leaf->entries) {
      out.push_back(StateEntry{entry.key, entry.vv});
    }
  }
  return out;
}

void BTreeStateDb::ForEachEntry(
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  for (const Node* leaf = FirstLeaf(); leaf != nullptr; leaf = leaf->next) {
    for (const Entry& entry : leaf->entries) fn(entry.key, entry.vv);
  }
}

std::unique_ptr<StateDatabase> MakeBTreeStateDb() {
  return std::make_unique<BTreeStateDb>();
}

}  // namespace fabricsim
