#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/peer/committer.h"
#include "src/statedb/latency_profile.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"
#include "src/workload/paper_workloads.h"

namespace fabricsim {
namespace {

// ----------------------------------------------------- MemoryStateDb

// Zero-padded so that key order is index order.
std::string Key(uint64_t index) {
  return StrFormat("user%010llu", static_cast<unsigned long long>(index));
}

TEST(MemoryStateDbTest, PutGetDelete) {
  MemoryStateDb db;
  EXPECT_FALSE(db.Get("k").has_value());
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k", "v1", false}, {1, 0}).ok());
  auto got = db.Get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "v1");
  EXPECT_EQ(got->version, (Version{1, 0}));
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k", "v2", false}, {2, 3}).ok());
  EXPECT_EQ(db.Get("k")->version, (Version{2, 3}));
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k", "", true}, {3, 0}).ok());
  EXPECT_FALSE(db.Get("k").has_value());
  EXPECT_EQ(db.Size(), 0u);
}

TEST(MemoryStateDbTest, PointOps) {
  MemoryStateDb db;
  EXPECT_FALSE(db.Get("k").has_value());
  EXPECT_EQ(db.Find("k"), nullptr);
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k", "v1", false}, {1, 0}).ok());
  ASSERT_TRUE(db.Get("k").has_value());
  EXPECT_EQ(db.Get("k")->value, "v1");
  EXPECT_EQ(db.Find("k")->version, (Version{1, 0}));
  // In-place update: value and version replaced, size unchanged.
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k", "v2", false}, {2, 3}).ok());
  EXPECT_EQ(db.Get("k")->value, "v2");
  EXPECT_EQ(db.Find("k")->version, (Version{2, 3}));
  EXPECT_EQ(db.Size(), 1u);
}

TEST(MemoryStateDbTest, DeleteMissingIsNoop) {
  MemoryStateDb db;
  EXPECT_TRUE(db.ApplyWrite(WriteItem{"ghost", "", true}, {1, 0}).ok());
}

TEST(MemoryStateDbTest, RangeScanHalfOpen) {
  MemoryStateDb db;
  for (int i = 0; i < 10; ++i) {
    db.ApplyWrite(WriteItem{"k" + std::to_string(i), "v", false}, {1, 0});
  }
  auto range = db.GetRange("k2", "k5");
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].key, "k2");
  EXPECT_EQ(range[2].key, "k4");
}

TEST(MemoryStateDbTest, RangeScanOpenEnd) {
  MemoryStateDb db;
  db.ApplyWrite(WriteItem{"a", "1", false}, {1, 0});
  db.ApplyWrite(WriteItem{"b", "2", false}, {1, 1});
  auto range = db.GetRange("a", "");
  EXPECT_EQ(range.size(), 2u);
}

TEST(MemoryStateDbTest, DeletesAreAbsoluteEverywhere) {
  MemoryStateDb db;
  for (int i = 0; i < 8; ++i) {
    db.ApplyWrite(WriteItem{"k" + std::to_string(i), "v", false}, {1, 0});
  }
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k3", "", true}, {2, 0}).ok());
  // The deleted key must be invisible to every read path alike.
  EXPECT_FALSE(db.Get("k3").has_value());
  EXPECT_EQ(db.Find("k3"), nullptr);
  EXPECT_EQ(db.Size(), 7u);
  for (const StateEntry& entry : db.GetRange("k0", "k9")) {
    EXPECT_NE(entry.key, "k3");
  }
  for (const StateEntry& entry : db.Scan()) {
    EXPECT_NE(entry.key, "k3");
  }
  db.ForEachInRange("", "", [](const std::string& key, const VersionedValue&) {
    EXPECT_NE(key, "k3");
  });
  db.ForEachInRange("k0", "k9", [](const std::string& key,
                                   const VersionedValue&) {
    EXPECT_NE(key, "k3");
  });
  // Deleting a missing key is a no-op returning OK.
  EXPECT_TRUE(db.ApplyWrite(WriteItem{"ghost", "", true}, {2, 1}).ok());
  EXPECT_EQ(db.Size(), 7u);
  // A deleted key can be re-inserted and becomes fully visible again.
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k3", "back", false}, {3, 0}).ok());
  EXPECT_EQ(db.Get("k3")->value, "back");
  EXPECT_EQ(db.Size(), 8u);
}

TEST(MemoryStateDbTest, RangeSemantics) {
  MemoryStateDb db;
  for (int i = 0; i < 10; ++i) {
    db.ApplyWrite(WriteItem{"k" + std::to_string(i), "v", false}, {1, 0});
  }
  auto range = db.GetRange("k2", "k5");  // half-open
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].key, "k2");
  EXPECT_EQ(range[2].key, "k4");
  EXPECT_EQ(db.GetRange("k7", "").size(), 3u);   // empty end = to end
  EXPECT_EQ(db.GetRange("", "k2").size(), 2u);   // empty start = from front
  EXPECT_EQ(db.GetRange("", "").size(), 10u);    // the whole key space
  EXPECT_TRUE(db.GetRange("k5", "k5").empty());  // degenerate interval
  EXPECT_TRUE(db.GetRange("x", "y").empty());    // past the last key
  EXPECT_TRUE(db.GetRange("k5", "k2").empty());  // inverted: empty
  EXPECT_TRUE(db.GetRange("z", "k8").empty());   // inverted from past the end
  // Strictly ascending enumeration everywhere.
  auto all = db.Scan();
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].key, all[i].key);
  }
}

TEST(MemoryStateDbTest, ScanReturnsAllInOrder) {
  MemoryStateDb db;
  db.ApplyWrite(WriteItem{"z", "1", false}, {1, 0});
  db.ApplyWrite(WriteItem{"a", "2", false}, {1, 1});
  auto all = db.Scan();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "z");
}

TEST(MemoryStateDbTest, SurvivesGrowthAndDeleteChurn) {
  // 5,000 keys, then delete-heavy churn, then re-inserts over deleted
  // keys, against a reference map.
  MemoryStateDb db;
  std::map<std::string, VersionedValue> reference;
  auto put = [&](uint64_t i, uint32_t tx) {
    std::string key = Key(i);
    db.ApplyWrite(WriteItem{key, "v" + std::to_string(tx), false}, {1, tx});
    reference[key] = VersionedValue{"v" + std::to_string(tx), {1, tx}};
  };
  auto del = [&](uint64_t i) {
    std::string key = Key(i);
    db.ApplyWrite(WriteItem{key, "", true}, {2, 0});
    reference.erase(key);
  };
  for (uint64_t i = 0; i < 5000; ++i) put(i, 0);
  for (uint64_t i = 0; i < 5000; i += 2) del(i);
  for (uint64_t i = 1; i < 5000; i += 4) del(i);
  for (uint64_t i = 0; i < 5000; i += 8) put(i, 7);
  ASSERT_EQ(db.Size(), reference.size());
  auto all = db.Scan();
  ASSERT_EQ(all.size(), reference.size());
  auto it = reference.begin();
  for (const StateEntry& entry : all) {
    EXPECT_EQ(entry.key, it->first);
    EXPECT_EQ(entry.vv.value, it->second.value);
    EXPECT_EQ(entry.vv.version, it->second.version);
    ++it;
  }
}

// A base key rewritten with its indexed field unchanged keeps its place
// in the posting, which must now lend the delta's entry, not the base's
// stale one.
TEST(MemoryStateDbTest, RewrittenBaseKeyLendsItsNewEntry) {
  auto unit = [](const std::string& lsp, const std::string& tag) {
    return JsonObject({{"docType", "unit"}, {"lsp", lsp}, {"tag", tag}});
  };
  MemoryStateDb db(
      FrozenState::Build({WriteItem{"a", unit("L1", "t0"), false},
                          WriteItem{"b", unit("L1", "t0"), false}}));
  const RichQuerySelector l1 = RichQuerySelector::Parse("lsp==L1").value();
  ASSERT_EQ(ExecuteRichQuery(db, l1).size(), 2u);  // indexes lsp on the base
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"a", unit("L1", "t1"), false}, {1, 0})
                  .ok());
  std::vector<StateEntryRef> hits = ExecuteRichQuery(db, l1);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].key, "a");
  EXPECT_EQ(hits[0].vv.value, unit("L1", "t1"));
  EXPECT_EQ(hits[0].vv.version, (Version{1, 0}));
  EXPECT_EQ(hits[1].key, "b");
  EXPECT_EQ(hits[1].vv.version, kBootstrapVersion);
  // A second write of the key reads through the same delta entry.
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"a", unit("L1", "t2"), false}, {2, 0})
                  .ok());
  hits = ExecuteRichQuery(db, l1);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].vv.value, unit("L1", "t2"));
  EXPECT_EQ(hits[0].vv.version, (Version{2, 0}));
  // A field first indexed after the write skips the hidden base entry.
  hits = ExecuteRichQuery(db, RichQuerySelector::Parse("tag==t0").value());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].key, "b");
  // The base itself is never written.
  EXPECT_EQ(db.base()->entries()[0].vv.value, unit("L1", "t0"));
  EXPECT_EQ(db.base()->entries()[0].vv.version, kBootstrapVersion);
}

// A deleted base key leaves a tombstone in the delta: it is absent from
// every read path until a write inserts it again, and a delete after
// that hides it again.
TEST(MemoryStateDbTest, DeletedBaseKeyIsAbsentUntilReinserted) {
  auto doc = [](const std::string& n) { return JsonObject({{"n", n}}); };
  MemoryStateDb db(FrozenState::Build({WriteItem{"k1", doc("1"), false},
                                       WriteItem{"k2", doc("2"), false},
                                       WriteItem{"k3", doc("3"), false}}));
  auto keys = [&]() {
    std::vector<std::string> out;
    for (const StateEntry& entry : db.Scan()) out.push_back(entry.key);
    return out;
  };
  auto matches = [&](const std::string& n) {
    return ExecuteRichQuery(db, RichQuerySelector::Parse("n==" + n).value())
        .size();
  };
  ASSERT_EQ(matches("2"), 1u);  // indexes n on the base
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k2", "", true}, {1, 0}).ok());
  EXPECT_EQ(db.Find("k2"), nullptr);
  EXPECT_EQ(db.Size(), 2u);
  EXPECT_EQ(keys(), (std::vector<std::string>{"k1", "k3"}));
  EXPECT_TRUE(db.GetRange("k2", "k3").empty());
  EXPECT_EQ(matches("2"), 0u);
  // Deleting it again is a no-op.
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k2", "", true}, {1, 1}).ok());
  EXPECT_EQ(db.Size(), 2u);
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k2", doc("4"), false}, {2, 0}).ok());
  ASSERT_NE(db.Find("k2"), nullptr);
  EXPECT_EQ(db.Find("k2")->version, (Version{2, 0}));
  EXPECT_EQ(db.Size(), 3u);
  EXPECT_EQ(keys(), (std::vector<std::string>{"k1", "k2", "k3"}));
  EXPECT_EQ(matches("4"), 1u);
  EXPECT_EQ(matches("2"), 0u);
  // Deleting the re-inserted key hides the base entry again.
  ASSERT_TRUE(db.ApplyWrite(WriteItem{"k2", "", true}, {3, 0}).ok());
  EXPECT_EQ(db.Find("k2"), nullptr);
  EXPECT_EQ(db.Size(), 2u);
  EXPECT_EQ(keys(), (std::vector<std::string>{"k1", "k3"}));
  EXPECT_EQ(matches("2"), 0u);
  EXPECT_EQ(matches("4"), 0u);
}

// ------------------------------------------------------- FrozenState

void ExpectSameScan(const StateDatabase& got, const StateDatabase& want) {
  ASSERT_EQ(got.Size(), want.Size());
  const std::vector<StateEntry> g = got.Scan();
  const std::vector<StateEntry> w = want.Scan();
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g[i].key, w[i].key);
    ASSERT_EQ(g[i].vv.value, w[i].vv.value) << g[i].key;
    ASSERT_EQ(g[i].vv.version, w[i].vv.version) << g[i].key;
  }
}

// Build reads like an empty store after ApplyWrite of the same writes in
// order: for every chaincode's bootstrap (only genchain's comes sorted),
// and for a hand-made set that is unsorted, writes one key twice,
// deletes a key, deletes a missing one and re-inserts a deleted one.
TEST(FrozenStateTest, EveryChaincodeBootstrapMatchesApplyingItsWrites) {
  std::vector<std::pair<std::string, std::vector<WriteItem>>> cases;
  for (const char* name :
       {"asset", "drm", "dv", "ehr", "genchain", "scm", "tpcc"}) {
    WorkloadConfig config;
    config.chaincode = name;
    cases.emplace_back(name,
                       MakeChaincodeFor(config).value()->BootstrapState());
  }
  cases.emplace_back("hand-made", std::vector<WriteItem>{
                                      {"m", "m1", false},
                                      {"c", "c1", false},
                                      {"x", "x1", false},
                                      {"c", "c2", false},
                                      {"x", "", true},
                                      {"a", "a1", false},
                                      {"d", "", true},
                                      {"m", "", true},
                                      {"m", "m3", false},
                                  });
  for (const auto& [name, writes] : cases) {
    SCOPED_TRACE(name);
    MemoryStateDb applied;
    ASSERT_TRUE(ApplyBootstrap(applied, writes).ok());
    ASSERT_GT(applied.Size(), 0u);
    const std::shared_ptr<const FrozenState> frozen =
        FrozenState::Build(writes);
    ASSERT_EQ(frozen->entries().size(), applied.Size());
    ASSERT_NO_FATAL_FAILURE(ExpectSameScan(MemoryStateDb(frozen), applied));
  }
  const std::vector<StateEntry> hand_made =
      MemoryStateDb(FrozenState::Build(cases.back().second)).Scan();
  ASSERT_EQ(hand_made.size(), 3u);
  EXPECT_EQ(hand_made[0].key, "a");
  EXPECT_EQ(hand_made[1].key, "c");
  EXPECT_EQ(hand_made[1].vv.value, "c2");
  EXPECT_EQ(hand_made[2].key, "m");
  EXPECT_EQ(hand_made[2].vv.value, "m3");
}

TEST(StateDbTest, KeyInRangeIsTheRangeDefinition) {
  EXPECT_TRUE(KeyInRange("b", "a", "c"));
  EXPECT_TRUE(KeyInRange("a", "a", "c"));   // start inclusive
  EXPECT_FALSE(KeyInRange("c", "a", "c"));  // end exclusive
  EXPECT_TRUE(KeyInRange("z", "a", ""));    // empty end = to end of space
  EXPECT_TRUE(KeyInRange("a", "", ""));     // empty start = from the front
  EXPECT_FALSE(KeyInRange("a", "b", ""));
}

// --------------------------------------------------------- JSON utils

TEST(JsonTest, BuildAndExtract) {
  std::string doc = JsonObject({{"docType", "unit"}, {"lsp", "LSP3"}});
  EXPECT_EQ(doc, "{\"docType\":\"unit\",\"lsp\":\"LSP3\"}");
  EXPECT_EQ(ExtractJsonField(doc, "docType").value_or(""), "unit");
  EXPECT_EQ(ExtractJsonField(doc, "lsp").value_or(""), "LSP3");
  EXPECT_FALSE(ExtractJsonField(doc, "missing").has_value());
}

// --------------------------------------------------------- RichQuery

// Parse, which rejects a selector with no terms, is the only way to
// build one: ForEachMatch needs a term to pick its candidates.
static_assert(!std::is_default_constructible_v<RichQuerySelector>);
// The field index points at the store's own entries.
static_assert(!std::is_copy_constructible_v<MemoryStateDb>);

TEST(RichQueryTest, ParseValidSelector) {
  auto sel = RichQuerySelector::Parse("docType==unit&lsp==LSP3");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().terms().size(), 2u);
  EXPECT_EQ(sel.value().ToString(), "docType==unit&lsp==LSP3");
}

TEST(RichQueryTest, ParseRejectsGarbage) {
  EXPECT_FALSE(RichQuerySelector::Parse("").ok());
  EXPECT_FALSE(RichQuerySelector::Parse("nonsense").ok());
  EXPECT_FALSE(RichQuerySelector::Parse("==v").ok());
}

TEST(RichQueryTest, MatchesConjunction) {
  auto sel = RichQuerySelector::Parse("docType==unit&lsp==LSP3").value();
  EXPECT_TRUE(
      sel.Matches(JsonObject({{"docType", "unit"}, {"lsp", "LSP3"}})));
  EXPECT_FALSE(
      sel.Matches(JsonObject({{"docType", "unit"}, {"lsp", "LSP1"}})));
  EXPECT_FALSE(sel.Matches(JsonObject({{"docType", "unit"}})));
}

TEST(RichQueryTest, JsonFieldViewReadsOnlyTheKeyPosition) {
  // "owner" occurs first as a value and inside "xowner"; only the
  // `"owner":"` key position counts.
  std::string doc =
      JsonObject({{"docType", "owner"}, {"xowner", "a"}, {"owner", "o1"}});
  EXPECT_EQ(JsonFieldView(doc, "owner").value_or(""), "o1");
  EXPECT_EQ(JsonFieldView(doc, "docType").value_or(""), "owner");
  EXPECT_EQ(JsonFieldView(doc, "xowner").value_or(""), "a");
  EXPECT_FALSE(JsonFieldView("{\"k\":\"unterminated", "k").has_value());
  EXPECT_FALSE(JsonFieldView("", "k").has_value());
}

TEST(RichQueryTest, ExecuteReturnsMatchesInKeyOrderWithVersions) {
  MemoryStateDb db;
  auto unit = [](const std::string& lsp) {
    return JsonObject({{"docType", "unit"}, {"lsp", lsp}});
  };
  // Written in descending key order, each at its own version.
  for (uint32_t i = 6; i-- > 0;) {
    db.ApplyWrite(
        WriteItem{"u" + std::to_string(i), unit(i < 4 ? "LSP0" : "LSP1"),
                  false},
        {1, i});
  }
  db.ApplyWrite(WriteItem{"meta", JsonObject({{"docType", "meta"}}), false},
                {1, 9});
  auto sel = RichQuerySelector::Parse("docType==unit&lsp==LSP0").value();
  auto hits = ExecuteRichQuery(db, sel);
  ASSERT_EQ(hits.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hits[i].key, "u" + std::to_string(i));
    EXPECT_EQ(hits[i].vv.value, unit("LSP0"));
    EXPECT_EQ(hits[i].vv.version, (Version{1, i}));
  }
  // Writes after the first query move documents between answers.
  db.ApplyWrite(WriteItem{"u1", unit("LSP1"), false}, {2, 0});
  db.ApplyWrite(WriteItem{"u2", "", true}, {2, 1});
  hits = ExecuteRichQuery(db, sel);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].key, "u0");
  EXPECT_EQ(hits[1].key, "u3");
  hits = ExecuteRichQuery(db, RichQuerySelector::Parse("lsp==LSP1").value());
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].key, "u1");
  EXPECT_EQ(hits[0].vv.version, (Version{2, 0}));
  EXPECT_EQ(hits[2].key, "u5");
}

// ------------------------------------------- randomized differential

// Every other key of a key space, as bootstrap writes with `value`'s
// documents, and `reference` holding the same entries.
std::shared_ptr<const FrozenState> HalfKeySpaceBase(
    uint64_t key_space, const std::function<std::string()>& value,
    std::map<std::string, VersionedValue>* reference) {
  std::vector<WriteItem> writes;
  for (uint64_t k = 0; k < key_space; k += 2) {
    writes.push_back(WriteItem{Key(k), value(), false});
    (*reference)[Key(k)] = VersionedValue{writes.back().value,
                                          kBootstrapVersion};
  }
  return FrozenState::Build(std::move(writes));
}

// Drives seeded op sequences through the store and an ordered-map
// reference, comparing the full observable state and Size at interval
// checkpoints, and every range probe's GetRange and ForEachInRange
// with the reference's keys in range. Key space
// is kept small so deletes, re-inserts and ranges collide constantly.
// `over_base` starts the store over a base holding half the key space,
// and the reference with the same entries.
void RunDifferential(uint64_t seed, double delete_frac, double range_frac,
                     bool over_base) {
  constexpr uint64_t kKeySpace = 160;
  constexpr int kOps = 4000;
  std::map<std::string, VersionedValue> reference;
  int base_values = 0;
  MemoryStateDb db(over_base ? HalfKeySpaceBase(
                                   kKeySpace,
                                   [&]() {
                                     return "b" + std::to_string(base_values++);
                                   },
                                   &reference)
                             : nullptr);
  Rng rng(seed, /*stream=*/55);

  auto check = [&](int op) {
    SCOPED_TRACE(StrFormat("op=%d", op));
    ASSERT_EQ(db.Size(), reference.size());
    const auto scan = db.Scan();
    ASSERT_EQ(scan.size(), reference.size());
    auto it = reference.begin();
    for (const StateEntry& entry : scan) {
      ASSERT_EQ(entry.key, it->first);
      ASSERT_EQ(entry.vv.value, it->second.value);
      ASSERT_EQ(entry.vv.version, it->second.version);
      ++it;
    }
  };

  for (int op = 0; op < kOps; ++op) {
    double p = rng.UniformDouble();
    if (p < range_frac) {
      // Range probe, including the empty start/end forms.
      uint64_t a = rng.UniformU64(kKeySpace), b = rng.UniformU64(kKeySpace);
      std::string lo = rng.Bernoulli(0.1) ? "" : Key(std::min(a, b));
      std::string hi = rng.Bernoulli(0.1) ? "" : Key(std::max(a, b));
      SCOPED_TRACE(StrFormat("[%s, %s) op=%d", lo.c_str(), hi.c_str(), op));
      std::vector<StateEntry> expected;
      for (const auto& [key, vv] : reference) {
        if (KeyInRange(key, lo, hi)) expected.push_back(StateEntry{key, vv});
      }
      const auto got = db.GetRange(lo, hi);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, expected[i].key);
        ASSERT_EQ(got[i].vv.value, expected[i].vv.value);
        ASSERT_EQ(got[i].vv.version, expected[i].vv.version);
      }
      size_t visited = 0;
      db.ForEachInRange(lo, hi, [&](const std::string& key,
                                    const VersionedValue& vv) {
        ASSERT_LT(visited, expected.size());
        EXPECT_EQ(key, expected[visited].key);
        EXPECT_EQ(vv.version, expected[visited].vv.version);
        ++visited;
      });
      ASSERT_EQ(visited, expected.size());
    } else if (p < range_frac + delete_frac) {
      std::string key = Key(rng.UniformU64(kKeySpace));
      ASSERT_TRUE(db.ApplyWrite(WriteItem{key, "", true},
                                {3, static_cast<uint32_t>(op)})
                      .ok());
      reference.erase(key);
    } else {
      std::string key = Key(rng.UniformU64(kKeySpace));
      std::string value = "v" + std::to_string(op);
      Version version{2, static_cast<uint32_t>(op)};
      ASSERT_TRUE(db.ApplyWrite(WriteItem{key, value, false}, version).ok());
      reference[key] = VersionedValue{value, version};
    }
    if (op % 97 == 0) {
      ASSERT_NO_FATAL_FAILURE(check(op));
    }
  }
  check(kOps);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(StateDbSeeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(DifferentialTest, DeleteHeavyMix) {
  for (bool over_base : {false, true}) {
    SCOPED_TRACE(over_base ? "over a base" : "from an empty store");
    ASSERT_NO_FATAL_FAILURE(RunDifferential(
        GetParam(), /*delete_frac=*/0.45, /*range_frac=*/0.05, over_base));
  }
}

TEST_P(DifferentialTest, RangeHeavyMix) {
  for (bool over_base : {false, true}) {
    SCOPED_TRACE(over_base ? "over a base" : "from an empty store");
    ASSERT_NO_FATAL_FAILURE(RunDifferential(
        GetParam(), /*delete_frac=*/0.15, /*range_frac=*/0.40, over_base));
  }
}

// ------------------------------------ rich-query index differential

// Drives seeded JSON-document writes (upserts that move indexed
// fields, deletes, re-inserts) through the store and an ordered-map
// reference, interleaved with rich-query probes. Each probe must
// return what brute-force Matches over the reference returns — keys,
// values, versions, order — and each term alone must visit exactly
// the keys whose document has that value. A single term is answered
// from its posting list with nothing left to re-check, so a stale
// index entry fails here even where a conjunction would hide it.
// `over_base` starts the store over a base of random documents for
// half the key space, and the reference with the same entries.
void RunRichQueryDifferential(uint64_t seed, bool over_base) {
  constexpr uint64_t kKeySpace = 48;
  constexpr int kOps = 3000;
  // "owner" is a docType value as well as a field name.
  const std::vector<std::string> kDocTypes = {"unit", "art", "owner"};
  const std::vector<std::string> kOwners = {"o0", "o1", "o2"};
  const std::vector<std::string> kRegions = {"r0", "r1"};
  std::map<std::string, VersionedValue> reference;
  Rng rng(seed, /*stream=*/56);

  auto pick = [&](const std::vector<std::string>& values) {
    return values[rng.UniformU64(values.size())];
  };
  auto random_doc = [&]() {
    std::vector<std::pair<std::string, std::string>> fields = {
        {"docType", pick(kDocTypes)}, {"owner", pick(kOwners)}};
    if (rng.Bernoulli(0.5)) fields.emplace_back("region", pick(kRegions));
    if (rng.Bernoulli(0.3)) std::swap(fields[0], fields[1]);
    return JsonObject(fields);
  };
  MemoryStateDb db(over_base ? HalfKeySpaceBase(kKeySpace, random_doc,
                                                &reference)
                             : nullptr);
  auto random_term = [&]() -> std::string {
    switch (rng.UniformU64(4)) {
      case 0:
        return "docType==" + pick(kDocTypes);
      case 1:
        return "owner==" + pick(kOwners);
      case 2:
        return "region==" + pick(kRegions);
      default:
        return "color==red";  // no document has this field
    }
  };
  auto probe = [&](const std::string& text, int op) {
    SCOPED_TRACE(StrFormat("selector=%s op=%d", text.c_str(), op));
    RichQuerySelector sel = RichQuerySelector::Parse(text).value();
    std::vector<StateEntry> expected;
    for (const auto& [key, vv] : reference) {
      if (sel.Matches(vv.value)) expected.push_back(StateEntry{key, vv});
    }
    const std::vector<StateEntryRef> got = ExecuteRichQuery(db, sel);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, expected[i].key);
      ASSERT_EQ(got[i].vv.value, expected[i].vv.value);
      ASSERT_EQ(got[i].vv.version, expected[i].vv.version);
    }
    for (const auto& [field, value] : sel.terms()) {
      std::set<std::string> keys;
      for (const auto& [key, vv] : reference) {
        if (JsonFieldView(vv.value, field) == value) keys.insert(key);
      }
      std::vector<std::string> visited;
      db.ForEachMatch(RichQuerySelector::Parse(field + "==" + value).value(),
                      [&](const std::string& key, const VersionedValue&) {
                        visited.push_back(key);
                      });
      ASSERT_EQ(visited, std::vector<std::string>(keys.begin(), keys.end()))
          << field << "==" << value;
    }
  };

  // Before any write: the docType index starts out empty (or from the
  // base) and is then maintained write by write; the other fields are
  // first indexed from a store written since.
  ASSERT_NO_FATAL_FAILURE(probe("docType==unit", -1));
  for (int op = 0; op < kOps; ++op) {
    double p = rng.UniformDouble();
    std::string key = Key(rng.UniformU64(kKeySpace));
    if (p < 0.2) {
      std::string text = random_term();
      if (rng.Bernoulli(0.5)) text += "&" + random_term();
      ASSERT_NO_FATAL_FAILURE(probe(text, op));
    } else if (p < 0.4) {
      ASSERT_TRUE(db.ApplyWrite(WriteItem{key, "", true},
                                {3, static_cast<uint32_t>(op)})
                      .ok());
      reference.erase(key);
    } else {
      std::string value = random_doc();
      Version version{2, static_cast<uint32_t>(op)};
      ASSERT_TRUE(db.ApplyWrite(WriteItem{key, value, false}, version).ok());
      reference[key] = VersionedValue{value, version};
    }
  }
}

class RichQueryDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(StateDbSeeds, RichQueryDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(RichQueryDifferentialTest, IndexedQueriesMatchBruteForce) {
  for (bool over_base : {false, true}) {
    SCOPED_TRACE(over_base ? "over a base" : "from an empty store");
    ASSERT_NO_FATAL_FAILURE(RunRichQueryDifferential(GetParam(), over_base));
  }
}

// ----------------------------------------------------- LatencyProfile

TEST(LatencyProfileTest, CouchDbIsSlowerEverywhere) {
  DbLatencyProfile couch = DbLatencyProfile::CouchDb();
  DbLatencyProfile level = DbLatencyProfile::LevelDb();
  EXPECT_GT(couch.get, level.get);
  EXPECT_GT(couch.range_base, level.range_base);
  EXPECT_GT(couch.validate_per_read, level.validate_per_read);
  EXPECT_GT(couch.commit_per_write, level.commit_per_write);
  EXPECT_TRUE(couch.supports_rich_queries);
  EXPECT_FALSE(level.supports_rich_queries);
}

TEST(LatencyProfileTest, Table4PointLatencies) {
  // Paper Table 4 function-call latencies: GetState 8.3 ms vs 0.6 ms.
  EXPECT_EQ(DbLatencyProfile::CouchDb().get, FromMillis(8.3));
  EXPECT_EQ(DbLatencyProfile::LevelDb().get, FromMillis(0.6));
}

TEST(LatencyProfileTest, EndorseCostCountsOps) {
  DbLatencyProfile p = DbLatencyProfile::LevelDb();
  ReadWriteSet rwset;
  rwset.reads.push_back(ReadItem{"a", {0, 0}, true});
  rwset.reads.push_back(ReadItem{"b", {0, 0}, true});
  rwset.writes.push_back(WriteItem{"c", "v", false});
  rwset.writes.push_back(WriteItem{"d", "", true});
  SimTime expected = 2 * p.get + p.put + p.del;
  EXPECT_EQ(p.EndorseCost(rwset), expected);
}

TEST(LatencyProfileTest, RangeCostScalesWithKeys) {
  DbLatencyProfile p = DbLatencyProfile::CouchDb();
  ReadWriteSet small, large;
  RangeQueryInfo rq;
  rq.phantom_check = true;
  rq.reads.assign(2, ReadItem{"k", {0, 0}, true});
  small.range_queries.push_back(rq);
  rq.reads.assign(800, ReadItem{"k", {0, 0}, true});
  large.range_queries.push_back(rq);
  EXPECT_GT(p.EndorseCost(large), p.EndorseCost(small));
  EXPECT_GT(p.ValidateCost(large), p.ValidateCost(small));
}

TEST(LatencyProfileTest, RichQueriesNotRevalidated) {
  DbLatencyProfile p = DbLatencyProfile::CouchDb();
  ReadWriteSet rwset;
  RangeQueryInfo rich;
  rich.phantom_check = false;
  rich.reads.assign(500, ReadItem{"k", {0, 0}, true});
  rwset.range_queries.push_back(rich);
  EXPECT_EQ(p.ValidateCost(rwset), 0);
  EXPECT_GT(p.EndorseCost(rwset), 0);
}

TEST(LatencyProfileTest, CommitCost) {
  DbLatencyProfile p = DbLatencyProfile::LevelDb();
  EXPECT_EQ(p.CommitCost(0), p.commit_base);
  EXPECT_EQ(p.CommitCost(10), p.commit_base + 10 * p.commit_per_write);
}

TEST(StorageProfileTest, RamDiskIsCheaper) {
  EXPECT_LT(StorageProfile::RamDisk().commit_cost_factor,
            StorageProfile::Disk().commit_cost_factor);
}

}  // namespace
}  // namespace fabricsim
