#include "src/statedb/channel_state.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

// ---------------------------------------------------------- StateView

bool StateView::AtHead() const { return height_ == state_->height_; }

const MemoryStateDb& StateView::head() const { return state_->head_; }

Status StateView::ApplyWrite(const WriteItem&, Version) {
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
  for (const StateEntry& e : GetRange(start_key, end_key)) {
    fn(e.key, e.vv.version);
  }
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
  for (const StateEntry& e : GetRange("", "")) fn(e.key, e.vv);
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

Status ChannelState::Bootstrap(const std::vector<WriteItem>& writes) {
  if (height_ != 0) {
    return Status::FailedPrecondition("bootstrap after the first commit");
  }
  for (const WriteItem& write : writes) {
    FABRICSIM_RETURN_NOT_OK(head_.ApplyWrite(write, kBootstrapVersion));
  }
  return Status::OK();
}

StateView* ChannelState::AddReader() {
  readers_.push_back(std::unique_ptr<StateView>(new StateView(this, height_)));
  return readers_.back().get();
}

std::shared_ptr<const ValidationOutcome> ChannelState::Validate(
    const StateView* reader, const std::shared_ptr<const Block>& block,
    const std::function<ValidationOutcome(const StateDatabase& head)>&
        validate) {
  if (block->number != reader->height_ + 1) return nullptr;
  if (block->number <= height_) return RecordOf(block->number).outcome;
  if (next_.block == nullptr) {
    next_.block = block;
    next_.outcome =
        std::make_shared<const ValidationOutcome>(validate(head_));
  }
  return next_.outcome;
}

std::shared_ptr<const EndorsementResult> ChannelState::Endorse(
    const StateView* reader, TxId tx_id,
    const std::function<EndorsementResult(const StateDatabase& view)>&
        simulate) {
  Record& record =
      reader->height_ == height_ ? next_ : RecordOf(reader->height_ + 1);
  std::weak_ptr<const EndorsementResult>& entry = record.endorsements[tx_id];
  std::shared_ptr<const EndorsementResult> result = entry.lock();
  if (result == nullptr) {
    // Not make_shared: an expired entry then pins only the control
    // block, not the result's storage, while its record is kept.
    result.reset(new EndorsementResult(simulate(*reader)));
    entry = result;
  }
  return result;
}

Result<PeerChainRecord> ChannelState::Commit(
    StateView* reader, const std::shared_ptr<const Block>& block) {
  const uint64_t number = block->number;
  if (number != reader->height_ + 1) {
    return Status::FailedPrecondition(
        "block " + std::to_string(number) + " committed at height " +
        std::to_string(reader->height_));
  }
  if (number > height_) FABRICSIM_RETURN_NOT_OK(CommitNext());
  const Record& record = RecordOf(number);
  if (block != record.block &&
      BlockContentHash(*block, record.outcome->results) !=
          record.content_hash) {
    violations_.push_back(StrFormat(
        "a delivery of block %llu diverges from the recorded block",
        static_cast<unsigned long long>(number)));
  }
  PeerChainRecord link{number, record.content_hash, record.chain_hash};
  Advance(reader, number);
  return link;
}

Status ChannelState::CommitNext() {
  if (next_.block == nullptr) {
    return Status::FailedPrecondition(
        "block " + std::to_string(height_ + 1) + " committed unvalidated");
  }
  // The record joins records_ only with the whole block applied, so
  // records_ always holds exactly the blocks up to height_.
  for (const auto& [write, version] : next_.outcome->state_updates) {
    auto [it, first_write] = next_.undo.try_emplace(write.key);
    if (first_write) it->second = head_.Get(write.key);
    FABRICSIM_RETURN_NOT_OK(head_.ApplyWrite(write, version));
  }
  const Block& block = *next_.block;
  next_.content_hash = BlockContentHash(block, next_.outcome->results);
  next_.chain_hash = MixChainHash(chain_hash_, next_.content_hash);
  for (const Transaction& tx : block.txs) {
    if (tx.id >= committed_ids_.size()) {
      committed_ids_.resize(std::max<size_t>(tx.id + 1,
                                             2 * committed_ids_.size()));
    }
    if (committed_ids_[tx.id]) {
      violations_.push_back(StrFormat(
          "tx %llu committed twice (second time in block %llu)",
          static_cast<unsigned long long>(tx.id),
          static_cast<unsigned long long>(block.number)));
    }
    committed_ids_[tx.id] = true;
    // Chain hashes mix the sealed digest, so only a recomputation from
    // content catches a set mutated after sealing.
    if (tx.rwset.ComputeDigest() != tx.rwset.Digest()) {
      violations_.push_back(StrFormat(
          "channel %d block %llu tx %llu: rw-set content differs from "
          "its sealed digest",
          block.channel, static_cast<unsigned long long>(block.number),
          static_cast<unsigned long long>(tx.id)));
    }
  }
  chain_hash_ = next_.chain_hash;
  height_ = block.number;
  records_.push_back(std::move(next_));
  next_ = Record{};
  return Status::OK();
}

const ChannelState::Record& ChannelState::RecordOf(uint64_t number) const {
  return records_[records_.size() - 1 - (height_ - number)];
}

ChannelState::Record& ChannelState::RecordOf(uint64_t number) {
  return records_[records_.size() - 1 - (height_ - number)];
}

std::shared_ptr<const Block> ChannelState::block(uint64_t number) const {
  if (number == 0 || number > height_ ||
      height_ - number >= records_.size()) {
    return nullptr;
  }
  return RecordOf(number).block;
}

void ChannelState::Advance(StateView* reader, uint64_t height) {
  const uint64_t from = reader->height_;
  if (height <= from) return;
  reader->height_ = height;
  // Only a reader below every kept block can have been pinning one.
  const uint64_t oldest = height_ - records_.size() + 1;
  if (records_.empty() || from >= oldest) return;
  uint64_t lowest = height_;
  for (const std::unique_ptr<StateView>& r : readers_) {
    lowest = std::min(lowest, r->height_);
  }
  for (uint64_t b = oldest; b <= lowest && !records_.empty(); ++b) {
    records_.pop_front();
  }
}

const std::optional<VersionedValue>* ChannelState::BeforeImage(
    uint64_t height, const std::string& key) const {
  for (size_t i = records_.size() - (height_ - height); i < records_.size();
       ++i) {
    const UndoRecord& undo = records_[i].undo;
    auto it = undo.find(key);
    if (it != undo.end()) return &it->second;
  }
  return nullptr;
}

ChannelState::Overlay ChannelState::OverlayAt(
    uint64_t height, const std::string& start_key,
    const std::string& end_key) const {
  Overlay overlay;
  for (size_t i = records_.size() - (height_ - height); i < records_.size();
       ++i) {
    const UndoRecord& undo = records_[i].undo;
    auto end = end_key.empty() ? undo.end() : undo.lower_bound(end_key);
    for (auto it = undo.lower_bound(start_key); it != end; ++it) {
      overlay.try_emplace(it->first, &*it);  // the lowest block's wins
    }
  }
  return overlay;
}

}  // namespace fabricsim
