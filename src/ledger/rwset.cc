#include "src/ledger/rwset.h"

#include <utility>

#include "src/common/strings.h"

namespace fabricsim {

ReadWriteSet::ReadWriteSet(ReadWriteSet&& other) noexcept
    : reads(std::move(other.reads)),
      writes(std::move(other.writes)),
      range_queries(std::move(other.range_queries)),
      digest_(other.digest_),
      byte_size_(other.byte_size_),
      sealed_(std::exchange(other.sealed_, false)) {}

ReadWriteSet& ReadWriteSet::operator=(ReadWriteSet&& other) noexcept {
  reads = std::move(other.reads);
  writes = std::move(other.writes);
  range_queries = std::move(other.range_queries);
  digest_ = other.digest_;
  byte_size_ = other.byte_size_;
  sealed_ = std::exchange(other.sealed_, false);
  return *this;
}

void ReadWriteSet::Seal() {
  digest_ = ComputeDigest();
  byte_size_ = ComputeByteSize();
  sealed_ = true;
}

uint64_t ReadWriteSet::ComputeDigest() const {
  // Two independent lanes, so the CPU overlaps their multiply chains:
  // keys go in one; versions, flags and values in the other. Strings
  // carry their length and each list's length follows the list, so no
  // field can shift into its neighbour.
  uint64_t keys = 0x243f6a8885a308d3ULL;
  uint64_t values = 0x13198a2e03707344ULL;
  for (const ReadItem& r : reads) {
    keys = MixString(keys, r.key);
    values = MixWord(values, r.version.block_num);
    // tx_num is 32 bits wide, so it shares one word with the flag.
    values = MixWord(values, (uint64_t{r.version.tx_num} << 1) | r.found);
  }
  keys = MixWord(keys, reads.size());
  for (const WriteItem& w : writes) {
    keys = MixString(keys, w.key);
    values = MixString(values, w.value);
    values = MixWord(values, w.is_delete);
  }
  keys = MixWord(keys, writes.size());
  for (const RangeQueryInfo& rq : range_queries) {
    keys = MixString(keys, rq.start_key);
    keys = MixString(keys, rq.end_key);
    values = MixWord(values, rq.phantom_check);
    for (const ReadItem& r : rq.reads) {
      keys = MixString(keys, r.key);
      values = MixWord(values, r.version.block_num);
      values = MixWord(values, r.version.tx_num);
    }
    keys = MixWord(keys, rq.reads.size());
  }
  keys = MixWord(keys, range_queries.size());
  // One more step on the key lane keeps the join asymmetric.
  return MixWord(MixWord(keys, 0), values);
}

uint64_t ReadWriteSet::ComputeByteSize() const {
  uint64_t bytes = 16;
  for (const ReadItem& r : reads) bytes += r.key.size() + 12;
  for (const WriteItem& w : writes) bytes += w.key.size() + w.value.size() + 4;
  for (const RangeQueryInfo& rq : range_queries) {
    bytes += rq.start_key.size() + rq.end_key.size() + 8;
    for (const ReadItem& r : rq.reads) bytes += r.key.size() + 12;
  }
  return bytes;
}

size_t ReadWriteSet::TotalReadCount() const {
  size_t n = reads.size();
  for (const RangeQueryInfo& rq : range_queries) n += rq.reads.size();
  return n;
}

}  // namespace fabricsim
