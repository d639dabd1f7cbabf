// As-of reads over one shared channel world state: with readers parked
// at mixed heights — a crashed peer that never moves again, a snapshot
// that trails in lagged steps, peers committing at their own pace —
// every StateView must read exactly what an ordered map that applied
// blocks 1..h holds, and undo records must go as soon as every reader
// has passed their block.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaincode/stub.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/peer/committer.h"
#include "src/statedb/channel_state.h"
#include "src/statedb/memory_state_db.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {
namespace {

using Updates = std::vector<std::pair<WriteItem, Version>>;

constexpr uint64_t kKeySpace = 40;
constexpr uint64_t kBlocks = 30;
constexpr int kPeers = 5;

// Zero-padded so that key order is index order.
std::string Key(uint64_t index) {
  return StrFormat("user%010llu", static_cast<unsigned long long>(index));
}

const std::vector<std::string> kSelectors = {
    "docType==unit",          "docType==art",
    "owner==o0",              "owner==o1",
    "owner==o2",              "docType==unit&owner==o1",
    "owner==o2&docType==art", "region==r0"};

std::string RandomDoc(Rng& rng) {
  auto pick = [&](std::vector<std::string> values) {
    return values[rng.UniformU64(values.size())];
  };
  std::vector<std::pair<std::string, std::string>> fields = {
      {"docType", pick({"unit", "art"})}, {"owner", pick({"o0", "o1", "o2"})}};
  if (rng.Bernoulli(0.5)) fields.emplace_back("region", pick({"r0", "r1"}));
  return JsonObject(fields);
}

// Blocks of one write per transaction: upserts that move the indexed
// fields, deletes, re-inserts of deleted keys, and keys written again
// later in the same block (their before-image is the first write's).
std::vector<Updates> RandomBlocks(Rng& rng) {
  std::vector<Updates> blocks;
  for (uint64_t b = 1; b <= kBlocks; ++b) {
    Updates updates;
    const uint64_t txs = rng.UniformU64(12);  // empty blocks included
    for (uint32_t i = 0; i < txs; ++i) {
      std::string key = !updates.empty() && rng.Bernoulli(0.3)
                            ? updates[rng.UniformU64(updates.size())].first.key
                            : Key(rng.UniformU64(kKeySpace));
      bool is_delete = rng.Bernoulli(0.25);
      updates.emplace_back(
          WriteItem{key, is_delete ? "" : RandomDoc(rng), is_delete},
          Version{b, i});
    }
    blocks.push_back(std::move(updates));
  }
  return blocks;
}

// Validates and commits `block` for `reader` the way a peer does, with
// an outcome that writes exactly `updates`.
Result<PeerChainRecord> CommitBlock(ChannelState& state, StateView* reader,
                                    const std::shared_ptr<const Block>& block,
                                    const Updates& updates) {
  state.Validate(reader, block, [&](const StateDatabase&) {
    ValidationOutcome outcome;
    outcome.state_updates = updates;
    return outcome;
  });
  return state.Commit(reader, block);
}

// Copied (StateEntry) or lent (StateEntryRef) entries alike.
template <typename Entry>
void ExpectSameEntries(const std::vector<Entry>& got,
                       const std::vector<Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key);
    ASSERT_EQ(got[i].vv.value, want[i].vv.value) << got[i].key;
    ASSERT_EQ(got[i].vv.version, want[i].vv.version) << got[i].key;
  }
}

std::vector<std::pair<std::string, Version>> Versions(
    const StateDatabase& db, const std::string& start, const std::string& end) {
  std::vector<std::pair<std::string, Version>> out;
  db.ForEachInRange(start, end, [&](const std::string& key,
                                    const VersionedValue& vv) {
    out.emplace_back(key, vv.version);
  });
  return out;
}

std::vector<StateEntry> Entries(const StateDatabase& db) {
  std::vector<StateEntry> out;
  db.ForEachInRange("", "", [&](const std::string& key,
                                const VersionedValue& vv) {
    out.push_back(StateEntry{key, vv});
  });
  return out;
}

std::vector<StateEntry> Matches(const StateDatabase& db,
                                const RichQuerySelector& selector) {
  std::vector<StateEntry> out;
  db.ForEachMatch(selector, [&](const std::string& key,
                                const VersionedValue& vv) {
    out.push_back(StateEntry{key, vv});
  });
  return out;
}

void ExpectSameReads(const std::vector<ReadItem>& got,
                     const std::vector<ReadItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key);
    ASSERT_EQ(got[i].version, want[i].version) << got[i].key;
    ASSERT_EQ(got[i].found, want[i].found) << got[i].key;
  }
}

// The footprint two stubs recorded: point reads, then each range read
// and rich query with its reads.
void ExpectSameFootprint(const ReadWriteSet& got, const ReadWriteSet& want) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameReads(got.reads, want.reads));
  ASSERT_EQ(got.range_queries.size(), want.range_queries.size());
  for (size_t i = 0; i < got.range_queries.size(); ++i) {
    const RangeQueryInfo& g = got.range_queries[i];
    const RangeQueryInfo& w = want.range_queries[i];
    SCOPED_TRACE("range read [" + w.start_key + ", " + w.end_key + ") " +
                 w.rich_selector);
    ASSERT_EQ(g.start_key, w.start_key);
    ASSERT_EQ(g.end_key, w.end_key);
    ASSERT_EQ(g.phantom_check, w.phantom_check);
    ASSERT_EQ(g.rich_selector, w.rich_selector);
    ASSERT_NO_FATAL_FAILURE(ExpectSameReads(g.reads, w.reads));
  }
}

// Every read of `view` against `want`, the state after blocks 1..h,
// directly and through a chaincode stub on each. The stubs' lent
// entries are compared only after their last read: a lent entry must
// stay valid for the rest of an invocation, and below the head it
// points into undo records.
void ExpectSameState(const StateView& view, const StateDatabase& want,
                     Rng& rng) {
  ChaincodeStub view_stub(view, /*rich_queries_supported=*/true);
  ChaincodeStub want_stub(want, /*rich_queries_supported=*/true);
  std::vector<std::vector<StateEntryRef>> view_lent;
  std::vector<std::vector<StateEntryRef>> want_lent;
  for (uint64_t k = 0; k <= kKeySpace; ++k) {  // kKeySpace is never written
    std::string key = Key(k);
    const VersionedValue* got = view.Find(key);
    const VersionedValue* expected = want.Find(key);
    ASSERT_EQ(got != nullptr, expected != nullptr) << key;
    if (got != nullptr) {
      ASSERT_EQ(got->value, expected->value) << key;
      ASSERT_EQ(got->version, expected->version) << key;
    }
    ASSERT_EQ(view_stub.GetState(key), want_stub.GetState(key)) << key;
  }
  std::string a = Key(rng.UniformU64(kKeySpace));
  std::string b = Key(rng.UniformU64(kKeySpace));
  if (b < a) std::swap(a, b);
  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"", ""}, {"", b}, {a, ""}, {a, b}, {a, a}, {b, a}};
  for (const auto& [start, end] : ranges) {
    SCOPED_TRACE("range [" + start + ", " + end + ")");
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(view.GetRange(start, end),
                                              want.GetRange(start, end)));
    ASSERT_EQ(Versions(view, start, end), Versions(want, start, end));
    view_lent.push_back(view_stub.GetStateByRange(start, end));
    want_lent.push_back(want_stub.GetStateByRange(start, end));
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(view.Scan(), want.Scan()));
  ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(Entries(view), Entries(want)));
  ASSERT_EQ(view.Size(), want.Size());
  for (const std::string& text : kSelectors) {
    SCOPED_TRACE(text);
    RichQuerySelector selector = RichQuerySelector::Parse(text).value();
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(
        ExecuteRichQuery(view, selector), ExecuteRichQuery(want, selector)));
    for (const auto& [field, value] : selector.terms()) {
      const RichQuerySelector term =
          RichQuerySelector::Parse(field + "==" + value).value();
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameEntries(Matches(view, term), Matches(want, term)));
    }
    Result<std::vector<StateEntryRef>> got = view_stub.GetQueryResult(text);
    Result<std::vector<StateEntryRef>> expected =
        want_stub.GetQueryResult(text);
    ASSERT_TRUE(got.ok() && expected.ok());
    view_lent.push_back(std::move(got).value());
    want_lent.push_back(std::move(expected).value());
  }
  ASSERT_EQ(view_lent.size(), want_lent.size());
  for (size_t i = 0; i < view_lent.size(); ++i) {
    SCOPED_TRACE(StrFormat("stub read %zu", i));
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(view_lent[i], want_lent[i]));
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectSameFootprint(view_stub.rwset(), want_stub.rwset()));
}

// `over_base` starts the channel over a bootstrap of half the key
// space, and every replay with the same entries; otherwise both start
// empty.
void RunAsOfDifferential(uint64_t seed, bool over_base) {
  Rng rng(seed, /*stream=*/91);
  std::vector<WriteItem> bootstrap;
  for (uint64_t k = 0; over_base && k < kKeySpace; k += 2) {
    bootstrap.push_back(WriteItem{Key(k), RandomDoc(rng), false});
  }
  const std::vector<Updates> blocks = RandomBlocks(rng);
  // history[h]: a fresh ordered map that applied exactly blocks 1..h.
  std::vector<std::unique_ptr<MemoryStateDb>> history;
  for (uint64_t h = 0; h <= kBlocks; ++h) {
    auto db = std::make_unique<MemoryStateDb>();
    ASSERT_TRUE(ApplyBootstrap(*db, bootstrap).ok());
    for (uint64_t b = 1; b <= h; ++b) {
      ASSERT_TRUE(CommitStateUpdates(*db, blocks[b - 1]).ok());
    }
    history.push_back(std::move(db));
  }

  std::vector<std::shared_ptr<const Block>> chain;
  for (uint64_t b = 1; b <= kBlocks + 2; ++b) {
    auto block = std::make_shared<Block>();
    block->number = b;
    chain.push_back(std::move(block));
  }

  ChannelState state(over_base ? FrozenState::Build(bootstrap) : nullptr);
  std::vector<StateView*> peers;
  for (int p = 0; p < kPeers; ++p) peers.push_back(state.AddReader());
  // Commits like a peer, then crashes and never moves again.
  StateView* crashed = state.AddReader();
  const uint64_t crash_height = rng.UniformU64(kBlocks / 3);
  // Raised in lagged steps, like a FabricSharp endorsement snapshot.
  StateView* snapshot = state.AddReader();
  std::vector<StateView*> readers = peers;
  readers.push_back(crashed);
  readers.push_back(snapshot);

  auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    uint64_t lowest = state.height();
    for (size_t r = 0; r < readers.size(); ++r) {
      SCOPED_TRACE(StrFormat("reader %zu at height %llu", r,
                             static_cast<unsigned long long>(
                                 readers[r]->height())));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameState(*readers[r], *history[readers[r]->height()], rng));
      lowest = std::min(lowest, readers[r]->height());
    }
    // Exactly the blocks above the lowest reader keep their records.
    ASSERT_EQ(state.undo_records(), state.height() - lowest);
  };

  ASSERT_NO_FATAL_FAILURE(check("after bootstrap"));
  for (int step = 0;; ++step) {
    std::vector<StateView*> movable;
    for (StateView* peer : peers) {
      if (peer->height() < kBlocks) movable.push_back(peer);
    }
    if (crashed->height() < crash_height) movable.push_back(crashed);
    if (movable.empty()) break;
    StateView* reader = movable[rng.UniformU64(movable.size())];
    const uint64_t block = reader->height() + 1;
    ASSERT_TRUE(
        CommitBlock(state, reader, chain[block - 1], blocks[block - 1]).ok());
    if (rng.Bernoulli(0.3)) {
      const uint64_t room = state.height() - snapshot->height();
      state.Advance(snapshot, snapshot->height() + rng.UniformU64(room + 1));
    }
    ASSERT_NO_FATAL_FAILURE(check(StrFormat("step %d", step)));
  }
  EXPECT_EQ(state.height(), kBlocks);
  EXPECT_EQ(crashed->height(), crash_height);
  // Out-of-order commits are refused and move nothing, and a view
  // cannot be written.
  const size_t undo_before = state.undo_records();
  EXPECT_FALSE(CommitBlock(state, peers[0], chain[kBlocks + 1], {}).ok());
  EXPECT_EQ(state.height(), kBlocks);
  EXPECT_EQ(peers[0]->height(), kBlocks);
  EXPECT_EQ(state.undo_records(), undo_before);
  EXPECT_FALSE(
      peers[0]->ApplyWrite(WriteItem{"k", "v", false}, Version{1, 0}).ok());
}

TEST(ChannelStateAsOfDifferentialTest, ViewsReadWhatSerialReplayHeld) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (bool over_base : {false, true}) {
      SCOPED_TRACE(StrFormat("seed %llu %s",
                             static_cast<unsigned long long>(seed),
                             over_base ? "over a base" : "from empty"));
      ASSERT_NO_FATAL_FAILURE(RunAsOfDifferential(seed, over_base));
    }
  }
}

// A lagging reader's rich query by hand: the head's entries for the
// keys block 1 wrote give way to their before-images, which count only
// where they match.
TEST(ChannelStateRichQueryTest, LaggingViewMergesBeforeImagesWithTheHead) {
  auto unit = [](const std::string& lsp) {
    return JsonObject({{"docType", "unit"}, {"lsp", lsp}});
  };
  ChannelState state(FrozenState::Build({WriteItem{"a", unit("L1"), false},
                                         WriteItem{"b", unit("L2"), false},
                                         WriteItem{"c", unit("L1"), false}}));
  StateView* lagging = state.AddReader();
  StateView* peer = state.AddReader();
  auto block = std::make_shared<Block>();
  block->number = 1;
  ASSERT_TRUE(CommitBlock(state, peer, block,
                          {{WriteItem{"a", unit("L2"), false}, Version{1, 0}},
                           {WriteItem{"b", unit("L1"), false}, Version{1, 1}},
                           {WriteItem{"c", "", true}, Version{1, 2}},
                           {WriteItem{"d", unit("L1"), false}, Version{1, 3}}})
                  .ok());
  ASSERT_EQ(lagging->height(), 0u);
  ASSERT_EQ(peer->height(), 1u);

  const RichQuerySelector l1 =
      RichQuerySelector::Parse("docType==unit&lsp==L1").value();
  const std::vector<StateEntryRef> first = ExecuteRichQuery(*lagging, l1);
  const std::vector<StateEntryRef> second = ExecuteRichQuery(*lagging, l1);
  const std::vector<StateEntryRef> head = ExecuteRichQuery(*peer, l1);
  // Compared only after both queries at height 0: the second must not
  // disturb what the first lent.
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].key, "a");
  EXPECT_EQ(first[0].vv.value, unit("L1"));
  EXPECT_EQ(first[0].vv.version, kBootstrapVersion);
  EXPECT_EQ(first[1].key, "c");
  EXPECT_EQ(first[1].vv.value, unit("L1"));
  EXPECT_EQ(first[1].vv.version, kBootstrapVersion);
  ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(second, first));
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[0].key, "b");
  EXPECT_EQ(head[0].vv.version, (Version{1, 1}));
  EXPECT_EQ(head[1].key, "d");
  EXPECT_EQ(head[1].vv.version, (Version{1, 3}));
}

// Two channels started from one bootstrap: a block on channel 0 that
// updates, deletes and re-inserts bootstrap keys and moves an indexed
// field reaches neither channel 1's head nor a reader left at height 0
// on channel 0.
TEST(ChannelStateTest, ChannelsFromOneBootstrapStayIsolated) {
  auto unit = [](const std::string& lsp) {
    return JsonObject({{"docType", "unit"}, {"lsp", lsp}});
  };
  const std::vector<WriteItem> bootstrap = {
      WriteItem{"a", unit("L1"), false}, WriteItem{"b", unit("L1"), false},
      WriteItem{"c", unit("L2"), false}, WriteItem{"d", unit("L2"), false}};
  const std::shared_ptr<const FrozenState> base = FrozenState::Build(bootstrap);
  ChannelState channel0(base);
  ChannelState channel1(base);
  StateView* lagging = channel0.AddReader();
  StateView* writer = channel0.AddReader();
  StateView* other = channel1.AddReader();

  const RichQuerySelector l1 = RichQuerySelector::Parse("lsp==L1").value();
  const RichQuerySelector l2 = RichQuerySelector::Parse("lsp==L2").value();
  // Every bootstrap entry, by every read path.
  auto expect_bootstrap = [&](const StateDatabase& view) {
    ASSERT_EQ(view.Size(), bootstrap.size());
    for (const WriteItem& write : bootstrap) {
      const VersionedValue* vv = view.Find(write.key);
      ASSERT_NE(vv, nullptr) << write.key;
      EXPECT_EQ(vv->value, write.value) << write.key;
      EXPECT_EQ(vv->version, kBootstrapVersion) << write.key;
    }
    const std::vector<StateEntry> all = Entries(view);
    ASSERT_EQ(all.size(), bootstrap.size());
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].key, bootstrap[i].key);
      EXPECT_EQ(all[i].vv.value, bootstrap[i].value);
      EXPECT_EQ(all[i].vv.version, kBootstrapVersion);
    }
    const std::vector<StateEntry> in_l1 = Matches(view, l1);
    ASSERT_EQ(in_l1.size(), 2u);
    EXPECT_EQ(in_l1[0].key, "a");
    EXPECT_EQ(in_l1[1].key, "b");
    const std::vector<StateEntry> in_l2 = Matches(view, l2);
    ASSERT_EQ(in_l2.size(), 2u);
    EXPECT_EQ(in_l2[0].key, "c");
    EXPECT_EQ(in_l2[1].key, "d");
    for (const StateEntry& entry : in_l1) {
      EXPECT_EQ(entry.vv.version, kBootstrapVersion) << entry.key;
    }
    for (const StateEntry& entry : in_l2) {
      EXPECT_EQ(entry.vv.version, kBootstrapVersion) << entry.key;
    }
  };
  // Both heads index lsp before the block, so the block's writes move
  // postings.
  ASSERT_NO_FATAL_FAILURE(expect_bootstrap(*writer));
  ASSERT_NO_FATAL_FAILURE(expect_bootstrap(*other));

  auto block = std::make_shared<Block>();
  block->number = 1;
  ASSERT_TRUE(CommitBlock(channel0, writer, block,
                          {{WriteItem{"a", unit("L2"), false}, Version{1, 0}},
                           {WriteItem{"b", "", true}, Version{1, 1}},
                           {WriteItem{"c", "", true}, Version{1, 2}},
                           {WriteItem{"c", unit("L2"), false}, Version{1, 3}}})
                  .ok());
  ASSERT_EQ(lagging->height(), 0u);
  ASSERT_EQ(writer->height(), 1u);

  ASSERT_NO_FATAL_FAILURE(expect_bootstrap(*other));
  ASSERT_NO_FATAL_FAILURE(expect_bootstrap(*lagging));
  // The writer reads the block.
  EXPECT_EQ(writer->Size(), 3u);
  EXPECT_EQ(writer->Find("b"), nullptr);
  EXPECT_EQ(writer->Find("c")->version, (Version{1, 3}));
  EXPECT_TRUE(Matches(*writer, l1).empty());
  const std::vector<StateEntry> moved = Matches(*writer, l2);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0].key, "a");
  EXPECT_EQ(moved[0].vv.version, (Version{1, 0}));
  EXPECT_EQ(moved[1].key, "c");
  EXPECT_EQ(moved[1].vv.version, (Version{1, 3}));
  EXPECT_EQ(moved[2].key, "d");
  EXPECT_EQ(moved[2].vv.version, kBootstrapVersion);
}

}  // namespace
}  // namespace fabricsim
