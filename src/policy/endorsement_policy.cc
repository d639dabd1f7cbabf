#include "src/policy/endorsement_policy.h"

#include <algorithm>
#include <vector>

#include "src/common/strings.h"

namespace fabricsim {

EndorsementPolicy EndorsementPolicy::SignedBy(OrgId org) {
  EndorsementPolicy p;
  p.kind_ = Kind::kSignedBy;
  p.org_ = org;
  return p;
}

EndorsementPolicy EndorsementPolicy::NOutOf(
    int n, std::vector<EndorsementPolicy> subs) {
  EndorsementPolicy p;
  p.kind_ = Kind::kNOutOf;
  p.n_ = n;
  p.subs_ = std::move(subs);
  for (const EndorsementPolicy& sub : p.subs_) {
    p.sub_policies_ += sub.sub_policies_ + (sub.kind_ == Kind::kNOutOf ? 1 : 0);
  }
  return p;
}

bool EndorsementPolicy::Evaluate(const std::set<OrgId>& signer_orgs) const {
  return EvaluateNode(signer_orgs);
}

bool EndorsementPolicy::EvaluateNode(
    const std::set<OrgId>& signer_orgs) const {
  if (kind_ == Kind::kSignedBy) {
    return signer_orgs.count(org_) > 0;
  }
  int satisfied = 0;
  for (const EndorsementPolicy& sub : subs_) {
    if (sub.EvaluateNode(signer_orgs)) ++satisfied;
    if (satisfied >= n_) return true;
  }
  return satisfied >= n_;
}

std::set<OrgId> EndorsementPolicy::MentionedOrgs() const {
  std::set<OrgId> out;
  CollectOrgs(&out);
  return out;
}

void EndorsementPolicy::CollectOrgs(std::set<OrgId>* out) const {
  if (kind_ == Kind::kSignedBy) {
    out->insert(org_);
    return;
  }
  for (const EndorsementPolicy& sub : subs_) sub.CollectOrgs(out);
}

int EndorsementPolicy::MinSignatures() const {
  if (kind_ == Kind::kSignedBy) return 1;
  // Take the n cheapest sub-policies.
  std::vector<int> costs;
  costs.reserve(subs_.size());
  for (const EndorsementPolicy& sub : subs_) {
    costs.push_back(sub.MinSignatures());
  }
  std::sort(costs.begin(), costs.end());
  int total = 0;
  int take = std::min<int>(n_, static_cast<int>(costs.size()));
  for (int i = 0; i < take; ++i) total += costs[i];
  return total;
}

std::string EndorsementPolicy::ToString() const {
  if (kind_ == Kind::kSignedBy) {
    return StrFormat("Org%d", org_);
  }
  std::string out = StrFormat("%d-of[", n_);
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (i > 0) out += ",";
    out += subs_[i].ToString();
  }
  out += "]";
  return out;
}

SimTime EndorsementPolicy::VsccParallelCost(size_t endorsement_count) const {
  // Per-signature ECDSA verification ~0.6 ms, on the worker pool.
  constexpr SimTime kBase = 200;          // 0.2 ms fixed
  constexpr SimTime kPerSignature = 600;  // 0.6 ms
  return kBase + static_cast<SimTime>(endorsement_count) * kPerSignature;
}

SimTime EndorsementPolicy::VsccSerialCost() const {
  // Each sub-policy opens another principal search space in the VSCC
  // evaluator; this parsing/search work is serial per transaction.
  constexpr SimTime kPerSubPolicy = 1000;  // 1 ms
  return static_cast<SimTime>(SubPolicyCount()) * kPerSubPolicy;
}

SimTime EndorsementPolicy::VsccCost(size_t endorsement_count) const {
  return VsccParallelCost(endorsement_count) + VsccSerialCost();
}

std::set<OrgId> EndorsementPolicy::ChooseSatisfyingOrgs(
    uint64_t rotation) const {
  std::set<OrgId> chosen;
  if (kind_ == Kind::kSignedBy) {
    chosen.insert(org_);
    return chosen;
  }
  // Order sub-policies by signature cost, rotating among ties so that
  // repeated calls spread over equivalent choices.
  std::vector<size_t> order(subs_.size());
  for (size_t i = 0; i < subs_.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int ca = subs_[a].MinSignatures();
    int cb = subs_[b].MinSignatures();
    if (ca != cb) return ca < cb;
    size_t ra = (a + rotation) % subs_.size();
    size_t rb = (b + rotation) % subs_.size();
    return ra < rb;
  });
  int needed = n_;
  for (size_t idx : order) {
    if (needed == 0) break;
    std::set<OrgId> sub = subs_[idx].ChooseSatisfyingOrgs(rotation);
    chosen.insert(sub.begin(), sub.end());
    --needed;
  }
  return chosen;
}

}  // namespace fabricsim
