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
  uint64_t h = Fnv1a("rwset");
  for (const ReadItem& r : reads) {
    h = Fnv1aCombine(h, r.key);
    h = Fnv1aCombine(h, r.version.block_num);
    h = Fnv1aCombine(h, r.version.tx_num);
    h = Fnv1aCombine(h, static_cast<uint64_t>(r.found));
  }
  for (const WriteItem& w : writes) {
    h = Fnv1aCombine(h, w.key);
    h = Fnv1aCombine(h, w.value);
    h = Fnv1aCombine(h, static_cast<uint64_t>(w.is_delete));
  }
  for (const RangeQueryInfo& rq : range_queries) {
    h = Fnv1aCombine(h, rq.start_key);
    h = Fnv1aCombine(h, rq.end_key);
    h = Fnv1aCombine(h, static_cast<uint64_t>(rq.phantom_check));
    for (const ReadItem& r : rq.reads) {
      h = Fnv1aCombine(h, r.key);
      h = Fnv1aCombine(h, r.version.block_num);
      h = Fnv1aCombine(h, r.version.tx_num);
    }
  }
  return h;
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
