#ifndef FABRICSIM_STATEDB_CHANNEL_STATE_H_
#define FABRICSIM_STATEDB_CHANNEL_STATE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ledger/block.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/state_database.h"

namespace fabricsim {

class ChannelState;

/// A read-only view of one channel's world state as of a committed
/// block height: what a peer reads when it endorses or validates. A
/// view at the head's height forwards every call to the head, so such
/// a read costs what a private replica's would. A view below the
/// head overlays the before-images of the blocks above its height on
/// the head's answer — every read does, rich queries included. A view
/// never builds a field index of its own (nothing ever writes to it):
/// KeysWhere corrects the head's postings instead.
class StateView : public StateDatabase {
 public:
  /// Only registered readers pin undo records, so views are not copied.
  StateView(const StateView&) = delete;
  StateView& operator=(const StateView&) = delete;

  /// The block height this view reads at.
  uint64_t height() const { return height_; }
  /// The channel state this view reads.
  const ChannelState& source() const { return *state_; }

  std::optional<VersionedValue> Get(const std::string& key) const override;
  std::optional<Version> GetVersion(const std::string& key) const override;
  std::vector<StateEntry> GetRange(const std::string& start_key,
                                   const std::string& end_key) const override;
  void ForEachVersionInRange(
      const std::string& start_key, const std::string& end_key,
      const std::function<void(const std::string& key, Version version)>& fn)
      const override;
  /// Views are read-only: always fails.
  Status ApplyWrite(const WriteItem& write, Version version) override;
  size_t Size() const override;
  std::vector<StateEntry> Scan() const override;
  void ForEachEntry(
      const std::function<void(const std::string& key,
                               const VersionedValue& vv)>& fn) const override;
  /// The head's postings, corrected by the keys the blocks above this
  /// view's height wrote. A corrected set stays valid until the head
  /// commits or this view moves.
  const std::set<std::string>& KeysWhere(std::string_view field,
                                         std::string_view value) const override;

 private:
  friend class ChannelState;
  StateView(const ChannelState* state, uint64_t height)
      : state_(state), height_(height) {}

  bool AtHead() const;
  const MemoryStateDb& head() const;

  const ChannelState* state_;
  uint64_t height_;
  /// Corrected postings by (field, value), computed for the
  /// (head height, view height) pair in corrected_at_.
  mutable std::map<std::pair<std::string, std::string>, std::set<std::string>>
      corrected_;
  mutable std::pair<uint64_t, uint64_t> corrected_at_{0, 0};
};

/// One channel's world state and commit record, shared by every peer
/// of the channel.
///
/// It holds one head store (a MemoryStateDb) at the newest committed
/// block, plus one record for every block some reader has not yet
/// committed: the delivered block (shared, not copied), its
/// validation outcome, its content and chain hashes, and its undo
/// record — each key the block wrote, mapped to its value before the
/// block (nullopt when the key did not exist). Readers are StateViews,
/// each at its own height — a peer's committed height, a FabricSharp
/// endorsement snapshot, a crashed peer that stopped. A view at height
/// h reads the head through the undo records of blocks h+1..head.
/// Records are dropped, oldest first, once every reader has passed
/// their block.
///
/// Each block is validated once, hashed once and audited once. The
/// first reader to validate block b computes the outcome; the head is
/// at b - 1 then, because a reader validates b only after committing
/// b - 1 and nobody commits b before someone has validated it. The
/// first commit applies the outcome to the head, hashes the block and
/// audits it: no transaction id is committed twice on the channel, and
/// every rw-set's digest, recomputed from its content, equals the
/// digest sealed at endorsement. Every commit checks that the block it
/// was handed is the recorded one. What the audit finds is kept in
/// violations().
///
/// Each transaction is simulated once per height it is endorsed at.
/// An endorser's rw-set is a function of the chaincode, the invocation
/// and the state it reads, so every reader at height h that endorses
/// a transaction gets the result the first one simulated. The result
/// is kept in the record of block h + 1 (next_ while h is the head),
/// held weakly: the endorsers and clients still holding it keep it
/// alive, and the record's going drops what is left.
class ChannelState {
 public:
  ChannelState() = default;

  ChannelState(const ChannelState&) = delete;
  ChannelState& operator=(const ChannelState&) = delete;

  /// Loads the pre-run world state into the head at version (0,0).
  /// Only before the first commit.
  Status Bootstrap(const std::vector<WriteItem>& writes);

  /// Registers a new reader at the head's height. The view lives as
  /// long as this state.
  StateView* AddReader();

  /// The outcome of validating `block` for `reader`, which must sit at
  /// `block` - 1. The first call for a block computes it with
  /// `validate` over the head; later calls return the same object.
  /// nullptr when `reader` is not at `block` - 1.
  std::shared_ptr<const ValidationOutcome> Validate(
      const StateView* reader, const std::shared_ptr<const Block>& block,
      const std::function<ValidationOutcome(const StateDatabase& head)>&
          validate);

  /// The endorsement of transaction `tx_id` at `reader`'s height. The
  /// first call for a (height, tx id) runs `simulate` on `reader`; later
  /// calls at that height return the same sealed result for as long as
  /// anyone holds it. Precondition: every reader of this state endorses
  /// a tx id with the same chaincode, invocation and rich-query flag,
  /// and that chaincode keeps no state between invocations (see
  /// Chaincode), so the result depends on the height alone.
  std::shared_ptr<const EndorsementResult> Endorse(
      const StateView* reader, TxId tx_id,
      const std::function<EndorsementResult(const StateDatabase& view)>&
          simulate);

  /// Commits `block` for `reader`, which must sit at `block` - 1, and
  /// returns the block's link in the channel's hash chain. The first
  /// reader to commit a block applies its outcome to the head, records
  /// the block's before-images, hashes and audits it; every reader's
  /// block is checked against the record. Fails with every height
  /// unchanged when `reader` is not at `block` - 1, nobody has
  /// validated the block, or a head write fails; after a failed write
  /// the head holds part of the block, so the caller must not go on
  /// reading.
  Result<PeerChainRecord> Commit(StateView* reader,
                                 const std::shared_ptr<const Block>& block);

  /// Raises `reader` to `height` (at most the head's height) without
  /// writing anything; heights never fall. Drops the records every
  /// reader has now passed.
  void Advance(StateView* reader, uint64_t height);

  /// Height of the newest committed block (0 after bootstrap).
  uint64_t height() const { return height_; }
  /// Blocks whose records (before-images included) are still kept.
  size_t undo_records() const { return records_.size(); }
  /// The delivered block `number` while its record is kept, else
  /// nullptr.
  std::shared_ptr<const Block> block(uint64_t number) const;

  /// What the audit found so far, one line per violation.
  const std::vector<std::string>& violations() const { return violations_; }
  /// Whether a committed block of this channel carried transaction `id`.
  bool committed(TxId id) const {
    return id < committed_ids_.size() && committed_ids_[id];
  }

 private:
  friend class StateView;

  /// One block's before-images: key -> value before the block, taken
  /// at the block's first write of that key.
  using UndoRecord =
      std::map<std::string, std::optional<VersionedValue>, std::less<>>;
  /// key -> its before-image as of some height, for the keys written
  /// above that height (views into the records).
  using Overlay =
      std::map<std::string_view, const UndoRecord::value_type*, std::less<>>;

  struct Record {
    std::shared_ptr<const Block> block;
    std::shared_ptr<const ValidationOutcome> outcome;
    uint64_t content_hash = 0;
    uint64_t chain_hash = 0;
    UndoRecord undo;
    /// Endorsements simulated at height number - 1, by tx id.
    std::unordered_map<TxId, std::weak_ptr<const EndorsementResult>>
        endorsements;
  };

  /// Applies next_ to the head, hashes and audits its block, and moves
  /// it to the back of records_.
  Status CommitNext();
  /// The kept record of block `number` (at most height_).
  const Record& RecordOf(uint64_t number) const;
  Record& RecordOf(uint64_t number);

  /// The value `key` had at `height` if a block above it wrote the key
  /// (the record of the lowest such block); nullptr otherwise.
  const std::optional<VersionedValue>* BeforeImage(
      uint64_t height, const std::string& key) const;
  /// Before-images as of `height` for every key in [start_key, end_key)
  /// that a block above `height` wrote.
  Overlay OverlayAt(uint64_t height, const std::string& start_key,
                    const std::string& end_key) const;

  MemoryStateDb head_;
  uint64_t height_ = 0;
  /// Chain hash of the head's block (kChainHashSeed at height 0).
  uint64_t chain_hash_ = kChainHashSeed;
  /// Records of blocks height_ - records_.size() + 1 .. height_, in
  /// order.
  std::deque<Record> records_;
  /// Block height_ + 1 and its outcome once a reader has validated it,
  /// until its first commit; empty otherwise.
  Record next_;
  std::vector<std::unique_ptr<StateView>> readers_;
  /// One bit per transaction id (ids are dense from 1).
  std::vector<bool> committed_ids_;
  std::vector<std::string> violations_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_STATEDB_CHANNEL_STATE_H_
