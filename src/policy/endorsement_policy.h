#ifndef FABRICSIM_POLICY_ENDORSEMENT_POLICY_H_
#define FABRICSIM_POLICY_ENDORSEMENT_POLICY_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/ledger/transaction.h"

namespace fabricsim {

/// Endorsement policy expression tree. Leaves name an organization
/// ("signed by Org_k"); inner nodes are n-out-of combinators. This is
/// the same structure Fabric's policy language expresses, and the
/// paper's Table 5 policies P0–P3 are presets over it.
class EndorsementPolicy {
 public:
  /// Leaf: requires a signature from `org`.
  static EndorsementPolicy SignedBy(OrgId org);

  /// Inner node: requires `n` of the sub-policies to be satisfied.
  static EndorsementPolicy NOutOf(int n,
                                  std::vector<EndorsementPolicy> subs);

  /// True when the set of organizations that produced *matching*
  /// endorsements satisfies the policy. (Each org contributes at most
  /// one leaf satisfaction per appearance, like Fabric's MSP
  /// principals.)
  bool Evaluate(const std::set<OrgId>& signer_orgs) const;

  /// All organizations mentioned anywhere in the policy — the client
  /// sends proposals to one endorsing peer of each.
  std::set<OrgId> MentionedOrgs() const;

  /// Number of n-out-of combinators strictly below the root. The paper
  /// finds each sub-policy adds a separate VSCC search space (§5.1.4).
  /// Counted once, by NOutOf: a policy never changes after its factory
  /// returns.
  int SubPolicyCount() const { return sub_policies_; }

  /// Minimum number of signatures that can satisfy the policy.
  int MinSignatures() const;

  /// Policy text in the grammar of PolicyParser, e.g.
  /// "2-of[1-of[Org0],1-of[Org1,Org2]]".
  std::string ToString() const;

  /// VSCC validation service time for a transaction carrying
  /// `endorsement_count` signatures: per-signature verification plus a
  /// per-sub-policy search cost (the mechanism the paper gives for P2
  /// being slower and failing more than P1).
  SimTime VsccCost(size_t endorsement_count) const;

  /// The parallelizable part of VsccCost (signature verification runs
  /// on Fabric's validator worker pool).
  SimTime VsccParallelCost(size_t endorsement_count) const;

  /// The serial part of VsccCost: policy parsing / principal search,
  /// which grows with every sub-policy (each one is a separate search
  /// space, §5.1.4) and is not parallelized.
  SimTime VsccSerialCost() const;

  /// A minimal set of organizations whose endorsements satisfy the
  /// policy. `rotation` rotates among equivalent choices so clients
  /// spread load (SDKs use service discovery to contact minimal
  /// endorsement sets rather than every peer).
  std::set<OrgId> ChooseSatisfyingOrgs(uint64_t rotation) const;

 private:
  enum class Kind { kSignedBy, kNOutOf };

  Kind kind_ = Kind::kSignedBy;
  OrgId org_ = 0;
  int n_ = 0;
  std::vector<EndorsementPolicy> subs_;
  int sub_policies_ = 0;

  bool EvaluateNode(const std::set<OrgId>& signer_orgs) const;
  void CollectOrgs(std::set<OrgId>* out) const;
};

}  // namespace fabricsim

#endif  // FABRICSIM_POLICY_ENDORSEMENT_POLICY_H_
