#include "src/peer/validator.h"

#include <algorithm>
#include <map>
#include <set>

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
  // time, never a per-peer clock), so every replica and the shared
  // outcome cache agree — and the VSCC/MVCC work below is skipped for
  // a transaction nobody awaits.
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
    // Version-only lookup: MVCC compares versions, so copying the
    // value payload out of the store would be pure waste here.
    std::optional<Version> version = db.GetVersion(key);
    if (version.has_value()) {
      r.exists = true;
      r.version = *version;
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
  for (const RangeQueryInfo& rq : tx.rwset.range_queries) {
    if (!rq.phantom_check) continue;  // rich queries are not re-checked
    // Merge the database range with the block-local overlay.
    std::map<std::string, Version> current_range;
    db.ForEachVersionInRange(
        rq.start_key, rq.end_key,
        [&current_range](const std::string& key, Version version) {
          current_range[key] = version;
        });
    for (const auto& [key, entry] : overlay) {
      if (!KeyInRange(key, rq.start_key, rq.end_key)) continue;
      if (entry.deleted) {
        current_range.erase(key);
      } else {
        current_range[key] = entry.version;
      }
    }
    bool mismatch = current_range.size() != rq.reads.size();
    if (!mismatch) {
      for (const ReadItem& read : rq.reads) {
        auto it = current_range.find(read.key);
        if (it == current_range.end() || it->second != read.version) {
          mismatch = true;
          break;
        }
      }
    }
    if (mismatch) {
      result.code = TxValidationCode::kPhantomReadConflict;
      // Attribution: the first endorser-read key that vanished or
      // changed version, else the first phantom key that appeared in
      // the interval (current_range is sorted, so this is
      // deterministic).
      for (const ReadItem& read : rq.reads) {
        auto it = current_range.find(read.key);
        if (it == current_range.end()) {
          result.conflicting_key = read.key;
          result.read_found = true;
          result.read_version = read.version;
          break;
        }
        if (it->second != read.version) {
          result.conflicting_key = read.key;
          result.read_found = true;
          result.read_version = read.version;
          result.observed_found = true;
          result.observed_version = it->second;
          break;
        }
      }
      if (result.conflicting_key.empty()) {
        std::set<std::string> endorsed_keys;
        for (const ReadItem& read : rq.reads) endorsed_keys.insert(read.key);
        for (const auto& [key, version] : current_range) {
          if (endorsed_keys.count(key) == 0) {
            result.conflicting_key = key;
            result.observed_found = true;
            result.observed_version = version;
            break;
          }
        }
      }
      return result;
    }
  }

  result.code = TxValidationCode::kValid;
  return result;
}

std::shared_ptr<const ValidationOutcome> ValidationOutcomeCache::GetOrCompute(
    uint64_t block_number, const std::function<ValidationOutcome()>& compute) {
  auto it = entries_.find(block_number);
  if (it == entries_.end()) {
    Entry entry;
    entry.outcome = std::make_shared<const ValidationOutcome>(compute());
    entry.remaining = consumers_;
    it = entries_.emplace(block_number, std::move(entry)).first;
  }
  std::shared_ptr<const ValidationOutcome> outcome = it->second.outcome;
  if (--it->second.remaining <= 0) entries_.erase(it);
  return outcome;
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
