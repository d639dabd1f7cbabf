#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/statedb/latency_profile.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"
#include "src/statedb/state_backend.h"
#include "src/workload/ycsb.h"
#include "tests/test_fingerprint.h"

namespace fabricsim {
namespace {

// ----------------------------------------------------- MemoryStateDb

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

TEST(MemoryStateDbTest, ScanReturnsAllInOrder) {
  MemoryStateDb db;
  db.ApplyWrite(WriteItem{"z", "1", false}, {1, 0});
  db.ApplyWrite(WriteItem{"a", "2", false}, {1, 1});
  auto all = db.Scan();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "z");
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

// ---------------------------------------------------- StateBackend

TEST(StateBackendTest, FactoryAndNames) {
  EXPECT_EQ(AllStateBackends().size(), 3u);
  // The reference backend comes first: differential tests and benches
  // compare everything else against index 0.
  EXPECT_EQ(AllStateBackends()[0], StateBackendType::kOrderedMap);
  for (StateBackendType backend : AllStateBackends()) {
    const char* name = StateBackendTypeToString(backend);
    auto parsed = StateBackendTypeFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, backend);
    EXPECT_NE(MakeStateDb(backend), nullptr);
  }
  EXPECT_EQ(StateBackendTypeFromString("map"), StateBackendType::kOrderedMap);
  EXPECT_EQ(StateBackendTypeFromString("hash_index"),
            StateBackendType::kHashIndex);
  EXPECT_EQ(StateBackendTypeFromString("b+tree"), StateBackendType::kBTree);
  EXPECT_FALSE(StateBackendTypeFromString("rocksdb").has_value());
}

TEST(StateBackendTest, KeyInRangeIsTheRangeDefinition) {
  EXPECT_TRUE(KeyInRange("b", "a", "c"));
  EXPECT_TRUE(KeyInRange("a", "a", "c"));   // start inclusive
  EXPECT_FALSE(KeyInRange("c", "a", "c"));  // end exclusive
  EXPECT_TRUE(KeyInRange("z", "a", ""));    // empty end = to end of space
  EXPECT_TRUE(KeyInRange("a", "", ""));     // empty start = from the front
  EXPECT_FALSE(KeyInRange("a", "b", ""));
}

// Every backend must present the exact same observable behaviour; these
// tests run the full contract against each of them in turn.
class AllBackendsTest : public ::testing::TestWithParam<StateBackendType> {};

INSTANTIATE_TEST_SUITE_P(
    StateDb, AllBackendsTest, ::testing::ValuesIn(AllStateBackends()),
    [](const ::testing::TestParamInfo<StateBackendType>& info) {
      return std::string(StateBackendTypeToString(info.param));
    });

TEST_P(AllBackendsTest, PointOps) {
  auto db = MakeStateDb(GetParam());
  EXPECT_FALSE(db->Get("k").has_value());
  EXPECT_FALSE(db->GetVersion("k").has_value());
  ASSERT_TRUE(db->ApplyWrite(WriteItem{"k", "v1", false}, {1, 0}).ok());
  ASSERT_TRUE(db->Get("k").has_value());
  EXPECT_EQ(db->Get("k")->value, "v1");
  EXPECT_EQ(*db->GetVersion("k"), (Version{1, 0}));
  // In-place update: value and version replaced, size unchanged.
  ASSERT_TRUE(db->ApplyWrite(WriteItem{"k", "v2", false}, {2, 3}).ok());
  EXPECT_EQ(db->Get("k")->value, "v2");
  EXPECT_EQ(*db->GetVersion("k"), (Version{2, 3}));
  EXPECT_EQ(db->Size(), 1u);
}

TEST_P(AllBackendsTest, DeletesAreAbsoluteEverywhere) {
  auto db = MakeStateDb(GetParam());
  for (int i = 0; i < 8; ++i) {
    db->ApplyWrite(WriteItem{"k" + std::to_string(i), "v", false}, {1, 0});
  }
  ASSERT_TRUE(db->ApplyWrite(WriteItem{"k3", "", true}, {2, 0}).ok());
  // The deleted key must be invisible to every read path alike.
  EXPECT_FALSE(db->Get("k3").has_value());
  EXPECT_FALSE(db->GetVersion("k3").has_value());
  EXPECT_EQ(db->Size(), 7u);
  for (const StateEntry& entry : db->GetRange("k0", "k9")) {
    EXPECT_NE(entry.key, "k3");
  }
  for (const StateEntry& entry : db->Scan()) {
    EXPECT_NE(entry.key, "k3");
  }
  db->ForEachEntry([](const std::string& key, const VersionedValue&) {
    EXPECT_NE(key, "k3");
  });
  db->ForEachVersionInRange("", "", [](const std::string& key, Version) {
    EXPECT_NE(key, "k3");
  });
  // Deleting a missing key is a no-op returning OK.
  EXPECT_TRUE(db->ApplyWrite(WriteItem{"ghost", "", true}, {2, 1}).ok());
  EXPECT_EQ(db->Size(), 7u);
  // A deleted key can be re-inserted and becomes fully visible again.
  ASSERT_TRUE(db->ApplyWrite(WriteItem{"k3", "back", false}, {3, 0}).ok());
  EXPECT_EQ(db->Get("k3")->value, "back");
  EXPECT_EQ(db->Size(), 8u);
}

TEST_P(AllBackendsTest, RangeSemantics) {
  auto db = MakeStateDb(GetParam());
  for (int i = 0; i < 10; ++i) {
    db->ApplyWrite(WriteItem{"k" + std::to_string(i), "v", false}, {1, 0});
  }
  auto range = db->GetRange("k2", "k5");  // half-open
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].key, "k2");
  EXPECT_EQ(range[2].key, "k4");
  EXPECT_EQ(db->GetRange("k7", "").size(), 3u);   // empty end = to end
  EXPECT_EQ(db->GetRange("", "k2").size(), 2u);   // empty start = from front
  EXPECT_EQ(db->GetRange("", "").size(), 10u);    // the whole key space
  EXPECT_TRUE(db->GetRange("k5", "k5").empty());  // degenerate interval
  EXPECT_TRUE(db->GetRange("x", "y").empty());    // past the last key
  // Strictly ascending enumeration everywhere.
  auto all = db->Scan();
  ASSERT_EQ(all.size(), 10u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].key, all[i].key);
  }
}

TEST_P(AllBackendsTest, SurvivesGrowthAndTombstoneChurn) {
  // Enough keys to force several hash-table doublings and B+-tree leaf
  // splits; then delete-heavy churn to pile up tombstones and trigger
  // the same-size rehash purge, then re-insert over the graves.
  auto db = MakeStateDb(GetParam());
  std::map<std::string, VersionedValue> reference;
  auto put = [&](uint64_t i, uint32_t tx) {
    std::string key = YcsbDriver::Key(i);
    db->ApplyWrite(WriteItem{key, "v" + std::to_string(tx), false}, {1, tx});
    reference[key] = VersionedValue{"v" + std::to_string(tx), {1, tx}};
  };
  auto del = [&](uint64_t i) {
    std::string key = YcsbDriver::Key(i);
    db->ApplyWrite(WriteItem{key, "", true}, {2, 0});
    reference.erase(key);
  };
  for (uint64_t i = 0; i < 5000; ++i) put(i, 0);
  for (uint64_t i = 0; i < 5000; i += 2) del(i);
  for (uint64_t i = 1; i < 5000; i += 4) del(i);
  for (uint64_t i = 0; i < 5000; i += 8) put(i, 7);
  ASSERT_EQ(db->Size(), reference.size());
  auto all = db->Scan();
  ASSERT_EQ(all.size(), reference.size());
  auto it = reference.begin();
  for (const StateEntry& entry : all) {
    EXPECT_EQ(entry.key, it->first);
    EXPECT_EQ(entry.vv.value, it->second.value);
    EXPECT_EQ(entry.vv.version, it->second.version);
    ++it;
  }
}

// ------------------------------------------- randomized differential

// Drives identical seeded op sequences through every backend and an
// ordered-map reference, comparing full observable state at interval
// checkpoints. Key space is kept small so deletes, re-inserts and
// ranges collide constantly.
void RunDifferential(uint64_t seed, double delete_frac, double range_frac) {
  constexpr uint64_t kKeySpace = 160;
  constexpr int kOps = 4000;
  std::vector<std::unique_ptr<StateDatabase>> dbs;
  for (StateBackendType backend : AllStateBackends()) {
    dbs.push_back(MakeStateDb(backend));
  }
  std::map<std::string, VersionedValue> reference;
  Rng rng(seed, /*stream=*/55);

  auto check = [&](int op) {
    const auto golden = dbs[0]->Scan();
    ASSERT_EQ(golden.size(), reference.size()) << "op " << op;
    auto it = reference.begin();
    for (const StateEntry& entry : golden) {
      ASSERT_EQ(entry.key, it->first) << "op " << op;
      ASSERT_EQ(entry.vv.value, it->second.value) << "op " << op;
      ASSERT_EQ(entry.vv.version, it->second.version) << "op " << op;
      ++it;
    }
    for (size_t b = 1; b < dbs.size(); ++b) {
      SCOPED_TRACE(StrFormat("backend=%s op=%d",
                             StateBackendTypeToString(AllStateBackends()[b]),
                             op));
      ASSERT_EQ(dbs[b]->Size(), dbs[0]->Size());
      const auto scan = dbs[b]->Scan();
      ASSERT_EQ(scan.size(), golden.size());
      for (size_t i = 0; i < scan.size(); ++i) {
        ASSERT_EQ(scan[i].key, golden[i].key);
        ASSERT_EQ(scan[i].vv.value, golden[i].vv.value);
        ASSERT_EQ(scan[i].vv.version, golden[i].vv.version);
      }
    }
  };

  for (int op = 0; op < kOps; ++op) {
    double p = rng.UniformDouble();
    if (p < range_frac) {
      // Range probe (including empty start/end forms) — compared
      // directly across backends.
      uint64_t a = rng.UniformU64(kKeySpace), b = rng.UniformU64(kKeySpace);
      std::string lo = rng.Bernoulli(0.1) ? "" : YcsbDriver::Key(std::min(a, b));
      std::string hi = rng.Bernoulli(0.1) ? "" : YcsbDriver::Key(std::max(a, b));
      const auto golden = dbs[0]->GetRange(lo, hi);
      for (size_t b2 = 1; b2 < dbs.size(); ++b2) {
        const auto got = dbs[b2]->GetRange(lo, hi);
        ASSERT_EQ(got.size(), golden.size())
            << StateBackendTypeToString(AllStateBackends()[b2]) << " ["
            << lo << ", " << hi << ") op " << op;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].key, golden[i].key);
          ASSERT_EQ(got[i].vv.version, golden[i].vv.version);
        }
      }
    } else if (p < range_frac + delete_frac) {
      std::string key = YcsbDriver::Key(rng.UniformU64(kKeySpace));
      for (auto& db : dbs) {
        ASSERT_TRUE(db->ApplyWrite(WriteItem{key, "", true},
                                   {3, static_cast<uint32_t>(op)})
                        .ok());
      }
      reference.erase(key);
    } else {
      std::string key = YcsbDriver::Key(rng.UniformU64(kKeySpace));
      std::string value = "v" + std::to_string(op);
      Version version{2, static_cast<uint32_t>(op)};
      for (auto& db : dbs) {
        ASSERT_TRUE(db->ApplyWrite(WriteItem{key, value, false}, version).ok());
      }
      reference[key] = VersionedValue{value, version};
    }
    if (op % 97 == 0) check(op);
  }
  check(kOps);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(StateDbSeeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(DifferentialTest, DeleteHeavyMix) {
  RunDifferential(GetParam(), /*delete_frac=*/0.45, /*range_frac=*/0.05);
}

TEST_P(DifferentialTest, RangeHeavyMix) {
  RunDifferential(GetParam(), /*delete_frac=*/0.15, /*range_frac=*/0.40);
}

// ------------------------------------ rich-query index differential

// Drives seeded JSON-document writes (upserts that move indexed
// fields, deletes, re-inserts) through every backend and an
// ordered-map reference, interleaved with rich-query probes. Each
// probe must return what brute-force Matches over the reference
// returns — keys, values, versions, order — and each term's posting
// list must hold exactly the matching keys, so a stale index entry
// fails here even where the query's re-check would hide it.
void RunRichQueryDifferential(uint64_t seed) {
  constexpr uint64_t kKeySpace = 48;
  constexpr int kOps = 3000;
  // "owner" is a docType value as well as a field name.
  const std::vector<std::string> kDocTypes = {"unit", "art", "owner"};
  const std::vector<std::string> kOwners = {"o0", "o1", "o2"};
  const std::vector<std::string> kRegions = {"r0", "r1"};
  std::vector<std::unique_ptr<StateDatabase>> dbs;
  for (StateBackendType backend : AllStateBackends()) {
    dbs.push_back(MakeStateDb(backend));
  }
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
    for (size_t b = 0; b < dbs.size(); ++b) {
      SCOPED_TRACE(StateBackendTypeToString(AllStateBackends()[b]));
      const std::vector<StateEntry> got = ExecuteRichQuery(*dbs[b], sel);
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
        ASSERT_EQ(dbs[b]->KeysWhere(field, value), keys)
            << field << "==" << value;
      }
    }
  };

  // Before any write: the docType index starts out empty and is then
  // maintained write by write; the other fields are first indexed
  // from a populated store.
  ASSERT_NO_FATAL_FAILURE(probe("docType==unit", -1));
  for (int op = 0; op < kOps; ++op) {
    double p = rng.UniformDouble();
    std::string key = YcsbDriver::Key(rng.UniformU64(kKeySpace));
    if (p < 0.2) {
      std::string text = random_term();
      if (rng.Bernoulli(0.5)) text += "&" + random_term();
      ASSERT_NO_FATAL_FAILURE(probe(text, op));
    } else if (p < 0.4) {
      for (auto& db : dbs) {
        ASSERT_TRUE(db->ApplyWrite(WriteItem{key, "", true},
                                   {3, static_cast<uint32_t>(op)})
                        .ok());
      }
      reference.erase(key);
    } else {
      std::string value = random_doc();
      Version version{2, static_cast<uint32_t>(op)};
      for (auto& db : dbs) {
        ASSERT_TRUE(db->ApplyWrite(WriteItem{key, value, false}, version).ok());
      }
      reference[key] = VersionedValue{value, version};
    }
  }
}

class RichQueryDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(StateDbSeeds, RichQueryDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST_P(RichQueryDifferentialTest, IndexedQueriesMatchBruteForce) {
  RunRichQueryDifferential(GetParam());
}

// ------------------------------------------------------- YCSB driver

TEST(YcsbTest, WorkloadNamesRoundTrip) {
  for (YcsbWorkload workload :
       {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC, YcsbWorkload::kD,
        YcsbWorkload::kE, YcsbWorkload::kF}) {
    auto parsed = YcsbWorkloadFromString(YcsbWorkloadToString(workload));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, workload);
  }
  EXPECT_FALSE(YcsbWorkloadFromString("G").has_value());
  EXPECT_FALSE(YcsbWorkloadFromString("").has_value());
}

TEST(YcsbTest, KeysAreOrderedAndFixedWidth) {
  EXPECT_EQ(YcsbDriver::Key(0), "user0000000000");
  EXPECT_EQ(YcsbDriver::Key(1234), "user0000001234");
  EXPECT_LT(YcsbDriver::Key(9), YcsbDriver::Key(10));  // lexicographic==numeric
}

TEST(YcsbTest, LoadPopulatesRecordCount) {
  YcsbConfig config;
  config.record_count = 500;
  config.value_size = 16;
  YcsbDriver driver(config);
  auto db = MakeStateDb(StateBackendType::kHashIndex);
  ASSERT_TRUE(driver.Load(*db).ok());
  EXPECT_EQ(db->Size(), 500u);
  auto got = db->Get(YcsbDriver::Key(123));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value.size(), 16u);
  EXPECT_EQ(got->version, (Version{0, 123}));
}

TEST(YcsbTest, MixesExecuteTheConfiguredOpCounts) {
  for (YcsbWorkload workload :
       {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC, YcsbWorkload::kD,
        YcsbWorkload::kE, YcsbWorkload::kF}) {
    YcsbConfig config;
    config.workload = workload;
    config.record_count = 400;
    config.operation_count = 2000;
    config.value_size = 8;
    YcsbDriver driver(config);
    auto db = MakeStateDb(StateBackendType::kOrderedMap);
    ASSERT_TRUE(driver.Load(*db).ok());
    YcsbCounts counts = driver.Run(*db);
    uint64_t total = counts.reads + counts.updates + counts.inserts +
                     counts.scans + counts.read_modify_writes;
    EXPECT_EQ(total, 2000u) << YcsbWorkloadToString(workload);
    // Every keyed read targets a loaded (or just-inserted) key.
    EXPECT_EQ(counts.read_hits, counts.reads);
    switch (workload) {
      case YcsbWorkload::kC:
        EXPECT_EQ(counts.reads, 2000u);
        break;
      case YcsbWorkload::kE:
        EXPECT_GT(counts.scans, 1700u);
        EXPECT_GT(counts.scanned_entries, counts.scans);
        break;
      case YcsbWorkload::kF:
        EXPECT_GT(counts.read_modify_writes, 0u);
        break;
      default:
        break;
    }
  }
}

TEST(YcsbTest, ChecksumIsDeterministicAndBackendInvariant) {
  for (YcsbWorkload workload :
       {YcsbWorkload::kA, YcsbWorkload::kD, YcsbWorkload::kE}) {
    YcsbConfig config;
    config.workload = workload;
    config.record_count = 300;
    config.operation_count = 1500;
    config.value_size = 8;
    std::vector<uint64_t> checksums;
    for (StateBackendType backend : AllStateBackends()) {
      YcsbDriver driver(config);
      auto db = MakeStateDb(backend);
      ASSERT_TRUE(driver.Load(*db).ok());
      checksums.push_back(driver.Run(*db).checksum);
    }
    for (uint64_t checksum : checksums) {
      EXPECT_EQ(checksum, checksums[0]) << YcsbWorkloadToString(workload);
    }
    // And re-running the reference backend reproduces the checksum.
    YcsbDriver again(config);
    auto db = MakeStateDb(StateBackendType::kOrderedMap);
    ASSERT_TRUE(again.Load(*db).ok());
    EXPECT_EQ(again.Run(*db).checksum, checksums[0]);
  }
}

// ------------------------------------------- full-network regression

TEST(StateBackendNetworkTest, Fig07StyleRunIsBitIdenticalUnderEveryBackend) {
  // The backend is a data-structure swap below the simulation: a full
  // E-O-V run (fig07-style MVCC-conflict config, range queries and
  // deletes included via the scm chaincode) must produce the same
  // FailureReport to the last bit whichever backend holds the state.
  ExperimentConfig config = ExperimentConfig::Defaults();
  config.duration = 10 * kSecond;
  config.arrival_rate_tps = 100;
  config.fabric.block_size = 100;
  config.workload.chaincode = "scm";
  std::vector<std::string> fingerprints;
  for (StateBackendType backend : AllStateBackends()) {
    config.fabric.state_backend = backend;
    Result<FailureReport> r = RunOnce(config, 42);
    ASSERT_TRUE(r.ok()) << StateBackendTypeToString(backend);
    fingerprints.push_back(Fingerprint(r.value()));
  }
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[i], fingerprints[0])
        << StateBackendTypeToString(AllStateBackends()[i]);
  }
  // A run must actually have happened (guard against vacuous identity).
  Result<FailureReport> sanity = RunOnce(config, 42);
  ASSERT_TRUE(sanity.ok());
  EXPECT_GT(sanity.value().ledger_txs, 0u);
}

TEST(StateBackendNetworkTest, DescribeOnlyMentionsNonDefaultBackends) {
  ExperimentConfig config = ExperimentConfig::Defaults();
  EXPECT_EQ(config.Describe().find("backend="), std::string::npos);
  config.fabric.state_backend = StateBackendType::kHashIndex;
  EXPECT_NE(config.Describe().find("backend=hash"), std::string::npos);
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
