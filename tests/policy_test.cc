#include <gtest/gtest.h>

#include "src/policy/endorsement_policy.h"
#include "src/policy/policy_parser.h"
#include "src/policy/policy_presets.h"

namespace fabricsim {
namespace {

std::set<OrgId> Orgs(std::initializer_list<OrgId> orgs) { return orgs; }

TEST(PolicyTest, SignedByLeaf) {
  EndorsementPolicy p = EndorsementPolicy::SignedBy(2);
  EXPECT_TRUE(p.Evaluate(Orgs({2})));
  EXPECT_FALSE(p.Evaluate(Orgs({1})));
  EXPECT_EQ(p.MinSignatures(), 1);
  EXPECT_EQ(p.SubPolicyCount(), 0);
  EXPECT_EQ(p.ToString(), "Org2");
}

TEST(PolicyTest, NOutOfEvaluation) {
  EndorsementPolicy p = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::SignedBy(0), EndorsementPolicy::SignedBy(1),
          EndorsementPolicy::SignedBy(2)});
  EXPECT_TRUE(p.Evaluate(Orgs({0, 2})));
  EXPECT_TRUE(p.Evaluate(Orgs({0, 1, 2})));
  EXPECT_FALSE(p.Evaluate(Orgs({1})));
  EXPECT_FALSE(p.Evaluate(Orgs({})));
  EXPECT_EQ(p.MinSignatures(), 2);
}

TEST(PolicyTest, NestedPolicies) {
  // 2-of[1-of[Org0], 1-of[Org1, Org2]]
  EndorsementPolicy p = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(0)}),
          EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(1),
                                        EndorsementPolicy::SignedBy(2)})});
  EXPECT_TRUE(p.Evaluate(Orgs({0, 1})));
  EXPECT_TRUE(p.Evaluate(Orgs({0, 2})));
  EXPECT_FALSE(p.Evaluate(Orgs({1, 2})));  // Org0 is mandatory
  EXPECT_EQ(p.SubPolicyCount(), 2);
  EXPECT_EQ(p.MentionedOrgs(), Orgs({0, 1, 2}));
}

TEST(PolicyTest, SubPolicyCountCountsEveryNestedCombinator) {
  // 2-of[1-of[2-of[1-of[Org0],Org1]],1-of[Org2,Org3]]: four
  // combinators below the root, three levels deep.
  EndorsementPolicy p = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::NOutOf(
              1, {EndorsementPolicy::NOutOf(
                     2, {EndorsementPolicy::NOutOf(
                             1, {EndorsementPolicy::SignedBy(0)}),
                         EndorsementPolicy::SignedBy(1)})}),
          EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(2),
                                        EndorsementPolicy::SignedBy(3)})});
  EXPECT_EQ(p.ToString(), "2-of[1-of[2-of[1-of[Org0],Org1]],1-of[Org2,Org3]]");
  EXPECT_EQ(p.SubPolicyCount(), 4);
  EndorsementPolicy copy = p;
  EXPECT_EQ(copy.SubPolicyCount(), 4);
  EXPECT_EQ(copy.VsccSerialCost(), p.VsccSerialCost());
}

TEST(PolicyTest, VsccCostGrowsWithSignaturesAndSubPolicies) {
  EndorsementPolicy flat = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::SignedBy(0), EndorsementPolicy::SignedBy(1)});
  EndorsementPolicy nested = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(0)}),
          EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(1)})});
  EXPECT_GT(nested.VsccCost(2), flat.VsccCost(2));
  EXPECT_GT(flat.VsccCost(8), flat.VsccCost(2));
}

// ------------------------------------------------------------ Parser

TEST(PolicyParserTest, ParsesLeaf) {
  auto p = PolicyParser::Parse("Org3");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().ToString(), "Org3");
}

TEST(PolicyParserTest, ParsesFlatNOutOf) {
  auto p = PolicyParser::Parse("2-of[Org0,Org1,Org2]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().ToString(), "2-of[Org0,Org1,Org2]");
  EXPECT_TRUE(p.value().Evaluate(Orgs({1, 2})));
}

TEST(PolicyParserTest, ParsesNestedWithWhitespace) {
  auto p = PolicyParser::Parse(" 2-of[ 1-of[Org0] , 1-of[Org1, Org2] ] ");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().SubPolicyCount(), 2);
}

TEST(PolicyParserTest, RoundTripsToString) {
  const std::string text = "3-of[Org0,2-of[Org1,Org2,Org3],Org4]";
  auto p = PolicyParser::Parse(text);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().ToString(), text);
  auto p2 = PolicyParser::Parse(p.value().ToString());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value().ToString(), text);
}

TEST(PolicyParserTest, RejectsMalformed) {
  EXPECT_FALSE(PolicyParser::Parse("").ok());
  EXPECT_FALSE(PolicyParser::Parse("2-of[]").ok());
  EXPECT_FALSE(PolicyParser::Parse("2-of[Org0").ok());
  EXPECT_FALSE(PolicyParser::Parse("Org").ok());
  EXPECT_FALSE(PolicyParser::Parse("Org0 trailing").ok());
  // n out of range: more required than sub-policies available.
  EXPECT_FALSE(PolicyParser::Parse("3-of[Org0,Org1]").ok());
  EXPECT_FALSE(PolicyParser::Parse("0-of[Org0]").ok());
}

// ----------------------------------------------------------- Presets

TEST(PolicyPresetsTest, P0RequiresAllOrgs) {
  EndorsementPolicy p0 = MakePolicy(PolicyPreset::kP0AllOrgs, 4);
  EXPECT_TRUE(p0.Evaluate(Orgs({0, 1, 2, 3})));
  EXPECT_FALSE(p0.Evaluate(Orgs({0, 1, 2})));
  EXPECT_EQ(p0.MinSignatures(), 4);
  EXPECT_EQ(p0.SubPolicyCount(), 0);
}

TEST(PolicyPresetsTest, P1OrgZeroPlusAnyOther) {
  EndorsementPolicy p1 = MakePolicy(PolicyPreset::kP1OrgZeroPlusAny, 4);
  EXPECT_TRUE(p1.Evaluate(Orgs({0, 3})));
  EXPECT_FALSE(p1.Evaluate(Orgs({1, 2})));
  EXPECT_FALSE(p1.Evaluate(Orgs({0})));
  EXPECT_EQ(p1.MinSignatures(), 2);
  EXPECT_EQ(p1.SubPolicyCount(), 1);  // the paper: P1 has one sub-policy
}

TEST(PolicyPresetsTest, P2OneFromEachHalf) {
  EndorsementPolicy p2 = MakePolicy(PolicyPreset::kP2OneFromEachHalf, 4);
  EXPECT_TRUE(p2.Evaluate(Orgs({0, 2})));
  EXPECT_TRUE(p2.Evaluate(Orgs({1, 3})));
  EXPECT_FALSE(p2.Evaluate(Orgs({0, 1})));  // both from first half
  EXPECT_FALSE(p2.Evaluate(Orgs({2, 3})));  // both from second half
  EXPECT_EQ(p2.MinSignatures(), 2);
  EXPECT_EQ(p2.SubPolicyCount(), 2);  // the paper: P2 has two sub-policies
}

TEST(PolicyPresetsTest, P3Quorum) {
  EndorsementPolicy p3 = MakePolicy(PolicyPreset::kP3Quorum, 4);
  // Quorum of 4 orgs = 3.
  EXPECT_TRUE(p3.Evaluate(Orgs({0, 1, 2})));
  EXPECT_FALSE(p3.Evaluate(Orgs({0, 1})));
  EXPECT_EQ(p3.MinSignatures(), 3);
}

TEST(PolicyPresetsTest, EquivalentFormulations) {
  // Paper §5.1.4: "4-of"[2-of[Org0,Org1], 2-of[Org2,Org3]]... both
  // formulations require all four orgs. (The flat 4-of and the nested
  // version accept exactly the same signer sets.)
  auto nested =
      PolicyParser::Parse("2-of[2-of[Org0,Org1],2-of[Org2,Org3]]").value();
  auto flat = PolicyParser::Parse("4-of[Org0,Org1,Org2,Org3]").value();
  for (int mask = 0; mask < 16; ++mask) {
    std::set<OrgId> signers;
    for (int org = 0; org < 4; ++org) {
      if (mask & (1 << org)) signers.insert(org);
    }
    EXPECT_EQ(nested.Evaluate(signers), flat.Evaluate(signers))
        << "mask=" << mask;
  }
  // ...but the nested one costs more VSCC time (two sub-policies).
  EXPECT_GT(nested.VsccCost(4), flat.VsccCost(4));
}

TEST(PolicyTest, VsccCostSplitsSerialAndParallel) {
  EndorsementPolicy nested = EndorsementPolicy::NOutOf(
      2, {EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(0)}),
          EndorsementPolicy::NOutOf(1, {EndorsementPolicy::SignedBy(1)})});
  EXPECT_EQ(nested.VsccCost(4),
            nested.VsccParallelCost(4) + nested.VsccSerialCost());
  // The serial part grows with sub-policies; leaf policies have none.
  EXPECT_GT(nested.VsccSerialCost(), 0);
  EXPECT_EQ(EndorsementPolicy::SignedBy(0).VsccSerialCost(), 0);
}

TEST(PolicyTest, ChooseSatisfyingOrgsIsMinimalAndSatisfying) {
  for (PolicyPreset preset :
       {PolicyPreset::kP0AllOrgs, PolicyPreset::kP1OrgZeroPlusAny,
        PolicyPreset::kP2OneFromEachHalf, PolicyPreset::kP3Quorum}) {
    EndorsementPolicy policy = MakePolicy(preset, 8);
    for (uint64_t rotation = 0; rotation < 16; ++rotation) {
      std::set<OrgId> chosen = policy.ChooseSatisfyingOrgs(rotation);
      EXPECT_TRUE(policy.Evaluate(chosen))
          << PolicyPresetToString(preset) << " rotation " << rotation;
      EXPECT_EQ(static_cast<int>(chosen.size()), policy.MinSignatures())
          << PolicyPresetToString(preset);
    }
  }
}

TEST(PolicyTest, ChooseSatisfyingOrgsRotates) {
  // P1: Org0 plus any other — the "other" must rotate across calls.
  EndorsementPolicy p1 = MakePolicy(PolicyPreset::kP1OrgZeroPlusAny, 8);
  std::set<std::set<OrgId>> distinct;
  for (uint64_t rotation = 0; rotation < 8; ++rotation) {
    distinct.insert(p1.ChooseSatisfyingOrgs(rotation));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(PolicyPresetsTest, Names) {
  EXPECT_STREQ(PolicyPresetToString(PolicyPreset::kP0AllOrgs), "P0");
  EXPECT_STREQ(PolicyPresetToString(PolicyPreset::kP3Quorum), "P3");
}

}  // namespace
}  // namespace fabricsim
