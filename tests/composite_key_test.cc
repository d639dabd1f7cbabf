#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/chaincode/composite_key.h"
#include "src/chaincode/stub.h"
#include "src/common/strings.h"
#include "src/statedb/memory_state_db.h"

namespace fabricsim {
namespace {

TEST(CompositeKeyTest, RoundTripsPlainAttributes) {
  std::string key = MakeCompositeKey("ORDER", {"0001", "02", "00000042"});
  std::string type;
  std::vector<std::string> attrs;
  ASSERT_TRUE(SplitCompositeKey(key, &type, &attrs));
  EXPECT_EQ(type, "ORDER");
  EXPECT_EQ(attrs, (std::vector<std::string>{"0001", "02", "00000042"}));
  EXPECT_EQ(CompositeKeyObjectType(key), "ORDER");
}

TEST(CompositeKeyTest, RoundTripsEmptyAndNoAttributes) {
  std::string type;
  std::vector<std::string> attrs;
  ASSERT_TRUE(SplitCompositeKey(MakeCompositeKey("T", {}), &type, &attrs));
  EXPECT_EQ(type, "T");
  EXPECT_TRUE(attrs.empty());
  ASSERT_TRUE(SplitCompositeKey(MakeCompositeKey("T", {""}), &type, &attrs));
  EXPECT_EQ(attrs, (std::vector<std::string>{""}));
}

TEST(CompositeKeyTest, RoundTripsReservedBytesLosslessly) {
  // Attributes containing the separator/escape bytes themselves must
  // survive the escaping round trip (the documented contract).
  std::vector<std::string> nasty = {
      std::string(1, kCompositeKeySep), std::string(1, kCompositeKeyEsc),
      std::string("a") + kCompositeKeySep + "b" + kCompositeKeyEsc + "c",
      std::string(2, kCompositeKeyEsc) + kCompositeKeySep};
  std::string key = MakeCompositeKey("NASTY", nasty);
  std::string type;
  std::vector<std::string> attrs;
  ASSERT_TRUE(SplitCompositeKey(key, &type, &attrs));
  EXPECT_EQ(type, "NASTY");
  EXPECT_EQ(attrs, nasty);
}

TEST(CompositeKeyTest, RejectsMalformedKeys) {
  std::string type;
  std::vector<std::string> attrs;
  // No trailing separator.
  EXPECT_FALSE(SplitCompositeKey("plainkey", &type, &attrs));
  // Dangling escape byte at the end of an attribute.
  std::string dangling = MakeCompositeKey("T", {"a"});
  dangling.insert(dangling.size() - 1, 1, kCompositeKeyEsc);
  EXPECT_FALSE(SplitCompositeKey(dangling, &type, &attrs));
  // Unknown escape sequence.
  std::string unknown = MakeCompositeKey("T", {"a"});
  unknown.insert(unknown.size() - 2, std::string(1, kCompositeKeyEsc) + "x");
  EXPECT_FALSE(SplitCompositeKey(unknown, &type, &attrs));
  EXPECT_EQ(CompositeKeyObjectType("plainkey"), "");
}

TEST(CompositeKeyTest, LexicographicOrderMatchesTupleOrder) {
  // Fixed-width attributes: key order == tuple order, the property
  // every range scan in the tpcc/asset schemas depends on.
  std::vector<std::string> keys;
  for (int w = 0; w < 3; ++w) {
    for (int d = 0; d < 3; ++d) {
      keys.push_back(
          MakeCompositeKey("D", {PadKey(w, 4), PadKey(d, 2)}));
    }
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(CompositeKeyTest, PrefixesDoNotBleedAcrossAttributes) {
  // ("T",{"1"}) must not cover ("T",{"10"}): the trailing separator
  // terminates each attribute.
  auto [start, end] = CompositeKeyRange("T", {"1"});
  std::string k1x = MakeCompositeKey("T", {"1", "x"});
  std::string k10 = MakeCompositeKey("T", {"10"});
  EXPECT_TRUE(start <= k1x && k1x < end);
  EXPECT_FALSE(start <= k10 && k10 < end);
}

TEST(CompositeKeyTest, PartialCompositeScanCoversExactlyOneSubtree) {
  MemoryStateDb db;
  Version v{1, 0};
  for (int w = 0; w < 2; ++w) {
    for (int d = 0; d < 3; ++d) {
      db.ApplyWrite(
          WriteItem{MakeCompositeKey("DIST", {PadKey(w, 4), PadKey(d, 2)}),
                    "v", false},
          v);
    }
  }
  // Same object-type prefix, different table: must not be scanned.
  db.ApplyWrite(WriteItem{MakeCompositeKey("DISTX", {"0000"}), "v", false}, v);

  ChaincodeStub stub(db, true);
  std::vector<StateEntryRef> sub =
      stub.GetStateByPartialCompositeKey("DIST", {PadKey(0, 4)});
  EXPECT_EQ(sub.size(), 3u);
  for (const StateEntryRef& e : sub) {
    EXPECT_EQ(CompositeKeyObjectType(e.key), "DIST");
  }
  std::vector<StateEntryRef> all =
      stub.GetStateByPartialCompositeKey("DIST", {});
  EXPECT_EQ(all.size(), 6u);
  // Scan order is tuple order.
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const StateEntryRef& a, const StateEntryRef& b) {
        return a.key < b.key;
      }));
  // The footprint is recorded as a phantom-checked range query.
  ASSERT_EQ(stub.rwset().range_queries.size(), 2u);
  EXPECT_TRUE(stub.rwset().range_queries[0].phantom_check);
  EXPECT_EQ(stub.rwset().range_queries[0].reads.size(), 3u);
}

TEST(CompositeKeyTest, StubStaticsDelegate) {
  std::string key = ChaincodeStub::CreateCompositeKey("T", {"a", "b"});
  std::string type;
  std::vector<std::string> attrs;
  ASSERT_TRUE(ChaincodeStub::SplitCompositeKey(key, &type, &attrs));
  EXPECT_EQ(type, "T");
  EXPECT_EQ(attrs, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace fabricsim
