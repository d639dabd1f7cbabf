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

void ExpectSameEntries(const std::vector<StateEntry>& got,
                       const std::vector<StateEntry>& want) {
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
  db.ForEachVersionInRange(start, end, [&](const std::string& key,
                                           Version version) {
    out.emplace_back(key, version);
  });
  return out;
}

std::vector<StateEntry> Entries(const StateDatabase& db) {
  std::vector<StateEntry> out;
  db.ForEachEntry([&](const std::string& key, const VersionedValue& vv) {
    out.push_back(StateEntry{key, vv});
  });
  return out;
}

// Every read of `view` against `want`, the state after blocks 1..h.
void ExpectSameState(const StateView& view, const StateDatabase& want,
                     Rng& rng) {
  for (uint64_t k = 0; k <= kKeySpace; ++k) {  // kKeySpace is never written
    std::string key = Key(k);
    std::optional<VersionedValue> got = view.Get(key);
    std::optional<VersionedValue> expected = want.Get(key);
    ASSERT_EQ(got.has_value(), expected.has_value()) << key;
    if (got.has_value()) {
      ASSERT_EQ(got->value, expected->value) << key;
      ASSERT_EQ(got->version, expected->version) << key;
    }
    ASSERT_EQ(view.GetVersion(key), want.GetVersion(key)) << key;
  }
  std::string a = Key(rng.UniformU64(kKeySpace));
  std::string b = Key(rng.UniformU64(kKeySpace));
  if (b < a) std::swap(a, b);
  const std::vector<std::pair<std::string, std::string>> ranges = {
      {"", ""}, {"", b}, {a, ""}, {a, b}, {a, a}};
  for (const auto& [start, end] : ranges) {
    SCOPED_TRACE("range [" + start + ", " + end + ")");
    ASSERT_NO_FATAL_FAILURE(ExpectSameEntries(view.GetRange(start, end),
                                              want.GetRange(start, end)));
    ASSERT_EQ(Versions(view, start, end), Versions(want, start, end));
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
      ASSERT_EQ(view.KeysWhere(field, value), want.KeysWhere(field, value));
    }
  }
}

void RunAsOfDifferential(uint64_t seed) {
  Rng rng(seed, /*stream=*/91);
  std::vector<WriteItem> bootstrap;
  for (uint64_t k = 0; k < kKeySpace; k += 2) {
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

  ChannelState state;
  ASSERT_TRUE(state.Bootstrap(bootstrap).ok());
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
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    ASSERT_NO_FATAL_FAILURE(RunAsOfDifferential(seed));
  }
}

}  // namespace
}  // namespace fabricsim
