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

const VersionedValue* StateView::Find(const std::string& key) const {
  if (const auto* before = state_->BeforeImage(height_, key)) {
    return before->has_value() ? &**before : nullptr;
  }
  return head().Find(key);
}

namespace {

// The head's entries that `for_each_head` visits, merged in key order
// with the before-images in `overlay` (a ChannelState::Overlay): an
// overlaid key is visited from its before-image, when that exists and
// `keep` accepts it, and never from the head.
template <typename Overlay, typename ForEachHead, typename Keep>
void MergeBeforeImages(const Overlay& overlay, const ForEachHead& for_each_head,
                       const Keep& keep, const StateEntryVisitor& fn) {
  auto next = overlay.begin();
  auto visit_overlay = [&]() {
    const auto& [key, before] = *next->second;
    if (before.has_value() && keep(*before)) fn(key, *before);
    ++next;
  };
  for_each_head([&](const std::string& key, const VersionedValue& vv) {
    while (next != overlay.end() && next->first < key) visit_overlay();
    if (next != overlay.end() && next->first == key) {
      visit_overlay();  // the value at this height replaces the head's
    } else {
      fn(key, vv);
    }
  });
  while (next != overlay.end()) visit_overlay();
}

}  // namespace

void StateView::ForEachInRange(const std::string& start_key,
                               const std::string& end_key,
                               const StateEntryVisitor& fn) const {
  if (AtHead()) return head().ForEachInRange(start_key, end_key, fn);
  if (RangeIsEmpty(start_key, end_key)) return;
  MergeBeforeImages(
      state_->OverlayAt(height_, start_key, end_key),
      [&](const StateEntryVisitor& merge) {
        head().ForEachInRange(start_key, end_key, merge);
      },
      [](const VersionedValue&) { return true; }, fn);
}

void StateView::ForEachMatch(const RichQuerySelector& selector,
                             const StateEntryVisitor& fn) const {
  if (AtHead()) return head().ForEachMatch(selector, fn);
  MergeBeforeImages(
      state_->OverlayAt(height_, "", ""),
      [&](const StateEntryVisitor& merge) {
        head().ForEachMatch(selector, merge);
      },
      [&](const VersionedValue& before) {
        return selector.Matches(before.value);
      },
      fn);
}

size_t StateView::Size() const {
  size_t size = head().Size();
  if (AtHead()) return size;
  for (const auto& [key, entry] : state_->OverlayAt(height_, "", "")) {
    if (entry->second.has_value()) ++size;
    if (head().Find(entry->first) != nullptr) --size;
  }
  return size;
}

// ------------------------------------------------------- ChannelState

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
