#ifndef FABRICSIM_LEDGER_RWSET_H_
#define FABRICSIM_LEDGER_RWSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ledger/version.h"

namespace fabricsim {

/// One entry of a transaction read set: the key and the version the
/// endorser observed (Definition 1 in the paper). `found == false`
/// records a read of a key that did not exist at endorsement time.
struct ReadItem {
  std::string key;
  Version version;
  bool found = true;
};

/// One entry of a transaction write set (Definition 2). A delete is a
/// write with `is_delete == true`.
struct WriteItem {
  std::string key;
  std::string value;
  bool is_delete = false;
};

/// Footprint of one range query, kept for phantom-read validation
/// (paper §3.2.3): the queried interval [start_key, end_key) and every
/// key+version the endorser saw inside it. `reads` is in strictly
/// ascending key order, each key once — GetStateByRange records what a
/// sorted range scan returns, and the validator's phantom re-scan
/// merges against it in step. Rich (JSON selector) queries set
/// `phantom_check == false`: Fabric does not re-execute them at
/// validation, so they provide no phantom detection.
struct RangeQueryInfo {
  std::string start_key;
  std::string end_key;
  std::vector<ReadItem> reads;
  bool phantom_check = true;
  std::string rich_selector;
};

/// The read/write set an endorser produces by simulating a transaction.
///
/// Lifecycle: the chaincode stub appends to the three lists, then
/// seals the set when simulation ends (ChaincodeStub::TakeRwset). A
/// sealed set stores its digest and byte size, so every later reader —
/// endorser signature, client, block cutter, VSCC, the channel's block
/// hash — gets them in O(1). Nothing mutates a sealed set; the audit
/// at a block's first commit recomputes the digest from content to
/// prove it. Copies keep the seal; a moved-from set is left empty and
/// unsealed.
struct ReadWriteSet {
  std::vector<ReadItem> reads;
  std::vector<WriteItem> writes;
  std::vector<RangeQueryInfo> range_queries;

  ReadWriteSet() = default;
  ReadWriteSet(const ReadWriteSet&) = default;
  ReadWriteSet& operator=(const ReadWriteSet&) = default;
  ReadWriteSet(ReadWriteSet&& other) noexcept;
  ReadWriteSet& operator=(ReadWriteSet&& other) noexcept;

  /// True when the transaction writes nothing (read-only query).
  bool IsReadOnly() const { return writes.empty(); }

  /// Stores ComputeDigest() and ComputeByteSize(). The content must
  /// not change afterwards.
  void Seal();
  bool sealed() const { return sealed_; }

  /// Order-sensitive content hash. Two endorsers agree on a proposal
  /// iff their rw-set digests match; a mismatch is the root cause of
  /// endorsement policy failures (paper Eq. 1). The stored value once
  /// sealed, computed on demand before.
  uint64_t Digest() const { return sealed_ ? digest_ : ComputeDigest(); }

  /// Approximate serialized size, used for the block max-bytes cut
  /// rule and network payload costs. Stored once sealed, like Digest().
  uint64_t ByteSize() const {
    return sealed_ ? byte_size_ : ComputeByteSize();
  }

  /// Digest and byte size recomputed from the current content,
  /// ignoring any seal.
  uint64_t ComputeDigest() const;
  uint64_t ComputeByteSize() const;

  /// Total number of individual reads including those inside range
  /// queries; drives MVCC validation cost.
  size_t TotalReadCount() const;

 private:
  uint64_t digest_ = 0;
  uint64_t byte_size_ = 0;
  bool sealed_ = false;
};

/// Result of simulating a proposal at one world-state height. Every
/// endorser of a channel at that height shares one (ChannelState::
/// Endorse), so it never changes once built.
struct EndorsementResult {
  /// The generated, sealed read/write set (meaningful when app_status
  /// is OK).
  ReadWriteSet rwset;
  /// Chaincode-level outcome. A non-OK status means the endorser
  /// returns an error response and the client will drop the
  /// transaction — this is an application failure, not one of the
  /// paper's three concurrency failure classes.
  Status app_status;
};

}  // namespace fabricsim

#endif  // FABRICSIM_LEDGER_RWSET_H_
