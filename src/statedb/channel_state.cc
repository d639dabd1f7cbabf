#include "src/statedb/channel_state.h"

#include <algorithm>

#include "src/statedb/rich_query.h"

namespace fabricsim {

// ---------------------------------------------------------- StateView

bool StateView::AtHead() const { return height_ == state_->height_; }

const StateDatabase& StateView::head() const { return *state_->head_; }

Status StateView::DoApplyWrite(const WriteItem&, Version) {
  return Status::FailedPrecondition("a StateView is read-only");
}

std::optional<VersionedValue> StateView::Get(const std::string& key) const {
  if (const auto* before = state_->BeforeImage(height_, key)) return *before;
  return head().Get(key);
}

std::optional<Version> StateView::GetVersion(const std::string& key) const {
  if (const auto* before = state_->BeforeImage(height_, key)) {
    if (!before->has_value()) return std::nullopt;
    return (*before)->version;
  }
  return head().GetVersion(key);
}

std::vector<StateEntry> StateView::GetRange(const std::string& start_key,
                                            const std::string& end_key) const {
  if (AtHead()) return head().GetRange(start_key, end_key);
  const ChannelState::Overlay overlay =
      state_->OverlayAt(height_, start_key, end_key);
  std::vector<StateEntry> out;
  auto next = overlay.begin();
  auto take_overlay = [&]() {
    const auto& [key, before] = *next->second;
    if (before.has_value()) out.push_back(StateEntry{key, *before});
    ++next;
  };
  for (StateEntry& entry : head().GetRange(start_key, end_key)) {
    while (next != overlay.end() && next->first < entry.key) take_overlay();
    if (next != overlay.end() && next->first == entry.key) {
      take_overlay();  // the value at this height replaces the head's
    } else {
      out.push_back(std::move(entry));
    }
  }
  while (next != overlay.end()) take_overlay();
  return out;
}

void StateView::ForEachVersionInRange(
    const std::string& start_key, const std::string& end_key,
    const std::function<void(const std::string& key, Version version)>& fn)
    const {
  if (AtHead()) return head().ForEachVersionInRange(start_key, end_key, fn);
  StateDatabase::ForEachVersionInRange(start_key, end_key, fn);
}

size_t StateView::Size() const {
  size_t size = head().Size();
  if (AtHead()) return size;
  for (const auto& [key, entry] : state_->OverlayAt(height_, "", "")) {
    if (entry->second.has_value()) ++size;
    if (head().GetVersion(entry->first).has_value()) --size;
  }
  return size;
}

std::vector<StateEntry> StateView::Scan() const {
  return AtHead() ? head().Scan() : GetRange("", "");
}

void StateView::ForEachEntry(
    const std::function<void(const std::string& key, const VersionedValue& vv)>&
        fn) const {
  if (AtHead()) return head().ForEachEntry(fn);
  StateDatabase::ForEachEntry(fn);
}

const std::set<std::string>& StateView::KeysWhere(
    std::string_view field, std::string_view value) const {
  const std::set<std::string>& at_head = head().KeysWhere(field, value);
  if (AtHead()) return at_head;
  // Keys a block above this height wrote whose membership differs here.
  std::vector<const std::string*> flips;
  for (const auto& [key, entry] : state_->OverlayAt(height_, "", "")) {
    const std::optional<VersionedValue>& before = entry->second;
    bool member =
        before.has_value() && JsonFieldView(before->value, field) == value;
    if (member != (at_head.count(entry->first) > 0)) {
      flips.push_back(&entry->first);
    }
  }
  if (flips.empty()) return at_head;
  const std::pair<uint64_t, uint64_t> heights{state_->height_, height_};
  if (corrected_at_ != heights) {
    corrected_.clear();
    corrected_at_ = heights;
  }
  std::set<std::string>& keys =
      corrected_[{std::string(field), std::string(value)}];
  keys = at_head;
  for (const std::string* key : flips) {
    if (keys.erase(*key) == 0) keys.insert(*key);
  }
  return keys;
}

// ------------------------------------------------------- ChannelState

ChannelState::ChannelState(StateBackendType backend)
    : head_(MakeStateDb(backend)) {}

Status ChannelState::Bootstrap(const std::vector<WriteItem>& writes) {
  if (height_ != 0) {
    return Status::FailedPrecondition("bootstrap after the first commit");
  }
  for (const WriteItem& write : writes) {
    FABRICSIM_RETURN_NOT_OK(head_->ApplyWrite(write, kBootstrapVersion));
  }
  return Status::OK();
}

StateView* ChannelState::AddReader() {
  readers_.push_back(std::unique_ptr<StateView>(new StateView(this, height_)));
  return readers_.back().get();
}

Status ChannelState::Commit(
    StateView* reader, uint64_t block,
    const std::vector<std::pair<WriteItem, Version>>& updates) {
  if (block != reader->height_ + 1) {
    return Status::FailedPrecondition(
        "block " + std::to_string(block) + " committed at height " +
        std::to_string(reader->height_));
  }
  if (block > height_) {
    // The record joins undo_ only with the whole block applied, so
    // undo_ always holds exactly the blocks up to height_.
    UndoRecord record;
    for (const auto& [write, version] : updates) {
      auto [it, first_write] = record.try_emplace(write.key);
      if (first_write) it->second = head_->Get(write.key);
      FABRICSIM_RETURN_NOT_OK(head_->ApplyWrite(write, version));
    }
    undo_.push_back(std::move(record));
    height_ = block;
  }
  Advance(reader, block);
  return Status::OK();
}

void ChannelState::Advance(StateView* reader, uint64_t height) {
  const uint64_t from = reader->height_;
  if (height <= from) return;
  reader->height_ = height;
  // Only a reader below every kept block can have been pinning one.
  const uint64_t oldest = height_ - undo_.size() + 1;
  if (undo_.empty() || from >= oldest) return;
  uint64_t lowest = height_;
  for (const std::unique_ptr<StateView>& r : readers_) {
    lowest = std::min(lowest, r->height_);
  }
  for (uint64_t b = oldest; b <= lowest && !undo_.empty(); ++b) {
    undo_.pop_front();
  }
}

const std::optional<VersionedValue>* ChannelState::BeforeImage(
    uint64_t height, const std::string& key) const {
  for (size_t i = undo_.size() - (height_ - height); i < undo_.size(); ++i) {
    auto it = undo_[i].find(key);
    if (it != undo_[i].end()) return &it->second;
  }
  return nullptr;
}

ChannelState::Overlay ChannelState::OverlayAt(
    uint64_t height, const std::string& start_key,
    const std::string& end_key) const {
  Overlay overlay;
  for (size_t i = undo_.size() - (height_ - height); i < undo_.size(); ++i) {
    const UndoRecord& record = undo_[i];
    auto end = end_key.empty() ? record.end() : record.lower_bound(end_key);
    for (auto it = record.lower_bound(start_key); it != end; ++it) {
      overlay.try_emplace(it->first, &*it);  // the lowest block's wins
    }
  }
  return overlay;
}

}  // namespace fabricsim
