#include "src/peer/validator.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace fabricsim {

Validator::Validator(EndorsementPolicy policy) : policy_(std::move(policy)) {}

bool EndorsementSatisfiesPolicy(const Transaction& tx,
                                const EndorsementPolicy& policy) {
  // Only endorsements whose signature verifies *over the rw-set the
  // client attached* count towards the policy. Endorsers that
  // simulated on a divergent world state produced a different rw-set,
  // so their signatures do not match the payload — the mechanism of
  // the paper's endorsement policy failure (Eq. 1).
  uint64_t attached_digest = tx.rwset.Digest();
  std::set<OrgId> matching_orgs;
  for (const Endorsement& e : tx.endorsements) {
    if (e.signature_valid && e.rwset_digest == attached_digest) {
      matching_orgs.insert(e.org_id);
    }
  }
  return policy.Evaluate(matching_orgs);
}

bool Validator::CheckVscc(const Transaction& tx) const {
  return EndorsementSatisfiesPolicy(tx, policy_);
}

TxValidationResult Validator::ValidateTx(const StateDatabase& db,
                                         const Overlay& overlay,
                                         const Block& block,
                                         const Transaction& tx) const {
  TxValidationResult result;

  // --- Deadline (overload protection) --------------------------------
  // A pure function of block content (deadline vs the block's cut
  // time, never a per-peer clock), so every replica agrees — and the
  // VSCC/MVCC work below is skipped for a transaction nobody awaits.
  if (tx.deadline > 0 && block.cut_time > tx.deadline) {
    result.code = TxValidationCode::kDeadlineExpiredCommit;
    return result;
  }

  // --- VSCC: endorsement policy --------------------------------------
  if (!CheckVscc(tx)) {
    result.code = TxValidationCode::kEndorsementPolicyFailure;
    return result;
  }

  // Resolves a key against overlay-then-db; returns (exists, version,
  // in_overlay, writer_index).
  struct Resolved {
    bool exists = false;
    Version version;
    bool from_overlay = false;
    uint32_t writer_index = 0;
  };
  auto resolve = [&](const std::string& key) {
    Resolved r;
    auto it = overlay.find(key);
    if (it != overlay.end()) {
      r.from_overlay = true;
      r.writer_index = it->second.writer_index;
      r.exists = !it->second.deleted;
      r.version = it->second.version;
      return r;
    }
    if (const VersionedValue* vv = db.Find(key)) {
      r.exists = true;
      r.version = vv->version;
    }
    return r;
  };

  auto fail_mvcc = [&](const ReadItem& read, const Resolved& current) {
    result.code = TxValidationCode::kMvccReadConflict;
    if (current.from_overlay) {
      result.mvcc_class = MvccClass::kIntraBlock;
      result.conflicting_tx = block.txs[current.writer_index].id;
    } else {
      result.mvcc_class = MvccClass::kInterBlock;
    }
    // Attribution evidence: which key, what the endorser read, what
    // validation found (the observed version names the invalidating
    // write).
    result.conflicting_key = read.key;
    result.read_found = read.found;
    if (read.found) result.read_version = read.version;
    result.observed_found = current.exists;
    if (current.exists) result.observed_version = current.version;
  };

  // --- MVCC: point reads (paper Eq. 2) --------------------------------
  for (const ReadItem& read : tx.rwset.reads) {
    Resolved current = resolve(read.key);
    if (read.found) {
      if (!current.exists || current.version != read.version) {
        fail_mvcc(read, current);
        return result;
      }
    } else if (current.exists) {
      // The endorser saw no key; now one exists.
      fail_mvcc(read, current);
      return result;
    }
  }

  // --- Phantom reads: re-execute range queries (paper Eq. 5) ----------
  // One pass per range: the database range overlaid with this block's
  // earlier writes in it, compared in step with the endorsed reads
  // (both in key order). It remembers the first endorsed read that
  // vanished or changed version, else the first key that appeared.
  struct RangeMerge {
    const std::vector<ReadItem>& reads;
    // This block's earlier writes in the range, sorted by key.
    const std::vector<const Overlay::value_type*>& writes;
    size_t next_read = 0;
    size_t next_write = 0;
    const ReadItem* changed = nullptr;
    std::optional<Version> changed_to = {};  // nullopt: the read vanished
    std::optional<std::pair<std::string, Version>> appeared = {};

    // The next key of the range as it is now.
    void Visit(const std::string& key, Version version) {
      if (changed != nullptr) return;
      if (next_read < reads.size() && reads[next_read].key < key) {
        changed = &reads[next_read];
      } else if (next_read < reads.size() && reads[next_read].key == key) {
        if (reads[next_read].version != version) {
          changed = &reads[next_read];
          changed_to = version;
        }
        ++next_read;
      } else if (!appeared.has_value()) {
        appeared.emplace(key, version);
      }
    }
    // The block's writes below `key` (all that are left when null).
    void VisitWritesBelow(const std::string* key) {
      for (; next_write < writes.size() &&
             (key == nullptr || writes[next_write]->first < *key);
           ++next_write) {
        const auto& [written, entry] = *writes[next_write];
        if (!entry.deleted) Visit(written, entry.version);
      }
    }
    // The next key of the database range.
    void VisitDb(const std::string& key, Version version) {
      VisitWritesBelow(&key);
      // A key this block rewrote is visited with the writes.
      if (next_write < writes.size() && writes[next_write]->first == key) {
        return;
      }
      Visit(key, version);
    }
  };
  std::vector<const Overlay::value_type*> writes;
  for (const RangeQueryInfo& rq : tx.rwset.range_queries) {
    if (!rq.phantom_check) continue;  // rich queries are not re-checked
    writes.clear();
    for (const Overlay::value_type& entry : overlay) {
      if (KeyInRange(entry.first, rq.start_key, rq.end_key)) {
        writes.push_back(&entry);
      }
    }
    std::sort(writes.begin(), writes.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    RangeMerge merge{.reads = rq.reads, .writes = writes};
    db.ForEachInRange(rq.start_key, rq.end_key,
                      [&merge](const std::string& key,
                               const VersionedValue& vv) {
                        merge.VisitDb(key, vv.version);
                      });
    merge.VisitWritesBelow(nullptr);
    if (merge.changed == nullptr && merge.next_read < rq.reads.size()) {
      merge.changed = &rq.reads[merge.next_read];  // past the range's end
    }
    if (merge.changed == nullptr && !merge.appeared) continue;
    result.code = TxValidationCode::kPhantomReadConflict;
    if (merge.changed != nullptr) {
      result.conflicting_key = merge.changed->key;
      result.read_found = true;
      result.read_version = merge.changed->version;
      result.observed_found = merge.changed_to.has_value();
      if (merge.changed_to.has_value()) {
        result.observed_version = *merge.changed_to;
      }
    } else {
      result.conflicting_key = std::move(merge.appeared->first);
      result.observed_found = true;
      result.observed_version = merge.appeared->second;
    }
    return result;
  }

  result.code = TxValidationCode::kValid;
  return result;
}

ValidationOutcome Validator::ValidateBlock(const StateDatabase& db,
                                           const Block& block) const {
  ValidationOutcome outcome;
  outcome.results.reserve(block.txs.size());
  Overlay overlay;

  for (uint32_t i = 0; i < block.txs.size(); ++i) {
    const Transaction& tx = block.txs[i];

    // Transactions pre-aborted by the ordering phase (Fabric++ cycle
    // removal) arrive flagged in the block metadata; the committer
    // skips them without VSCC/MVCC work.
    if (i < block.results.size() &&
        block.results[i].code == TxValidationCode::kAbortedByReordering) {
      outcome.results.push_back(block.results[i]);
      continue;
    }

    TxValidationResult result = ValidateTx(db, overlay, block, tx);
    if (result.code == TxValidationCode::kValid) {
      ++outcome.valid_count;
      Version version{block.number, i};
      for (const WriteItem& write : tx.rwset.writes) {
        overlay[write.key] = OverlayEntry{version, write.is_delete, i};
        outcome.state_updates.emplace_back(write, version);
      }
    }
    outcome.results.push_back(result);
  }
  return outcome;
}

}  // namespace fabricsim
