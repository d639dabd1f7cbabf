#include "src/obs/tracer.h"

#include <algorithm>
#include <memory>

#include "src/common/strings.h"
#include "src/obs/json_writer.h"

namespace fabricsim {

Tracer::Tracer(bool streaming)
    : streaming_(streaming),
      exemplars_(streaming ? kExemplarCapacity : 0, kExemplarSeed) {
  if (!streaming_) traces_.reserve(4096);
}

void Tracer::OnEarlyAbort(TxId id, TxValidationCode code, SimTime now) {
  (void)now;
  TxTrace& trace = Touch(id);
  trace.terminal = TraceTerminal::kEarlyAborted;
  trace.final_code = code;
  auto failure = std::make_unique<FailureAttribution>();
  failure->code = code;
  trace.failure = std::move(failure);
  FoldTerminal(trace);
}

void Tracer::OnAdmissionDrop(TxId id, TraceTerminal terminal,
                             TxValidationCode code, SimTime now) {
  (void)now;
  TxTrace& trace = Touch(id);
  trace.terminal = terminal;
  trace.final_code = code;
  auto failure = std::make_unique<FailureAttribution>();
  failure->code = code;
  trace.failure = std::move(failure);
  FoldTerminal(trace);
}

void Tracer::OnCommit(TxId id, uint64_t block_number, uint32_t tx_index,
                      const TxValidationResult& result, SimTime now) {
  TxTrace& trace = Touch(id);
  trace.terminal = TraceTerminal::kLedger;
  trace.final_code = result.code;
  trace.block_number = block_number;
  trace.tx_index = tx_index;
  trace.committed = now;
  if (result.code != TxValidationCode::kValid) {
    auto failure = std::make_unique<FailureAttribution>();
    failure->code = result.code;
    failure->mvcc_class = result.mvcc_class;
    failure->conflicting_key = result.conflicting_key;
    failure->read_found = result.read_found;
    failure->read_version = result.read_version;
    failure->observed_found = result.observed_found;
    failure->observed_version = result.observed_version;
    failure->conflicting_tx = result.conflicting_tx;
    failure->block_number = block_number;
    trace.failure = std::move(failure);
  }
  FoldTerminal(trace);
}

void Tracer::CountIntoChannel(const TxTrace& trace) {
  if (trace.channel < 0) return;
  size_t c = static_cast<size_t>(trace.channel);
  if (c >= channel_counts_.size()) channel_counts_.resize(c + 1);
  ChannelCounts& counts = channel_counts_[c];
  if (trace.terminal == TraceTerminal::kLedger) {
    ++counts.ledger;
    switch (trace.final_code) {
      case TxValidationCode::kValid:
        ++counts.valid;
        break;
      case TxValidationCode::kEndorsementPolicyFailure:
        ++counts.endorse;
        break;
      case TxValidationCode::kMvccReadConflict:
        ++counts.mvcc;
        break;
      case TxValidationCode::kPhantomReadConflict:
        ++counts.phantom;
        break;
      default:
        break;
    }
  } else if (trace.terminal == TraceTerminal::kEarlyAborted) {
    ++counts.early_abort;
  }
}

void Tracer::FoldTerminal(TxTrace& trace) {
  if (trace.terminal == TraceTerminal::kLedger) {
    ++failure_counts_[trace.final_code];
    phases_.endorse.Add(ToMillis(trace.EndorsePhase()));
    phases_.ordering.Add(ToMillis(trace.OrderingPhase()));
    phases_.commit.Add(ToMillis(trace.CommitPhase()));
    phases_.total.Add(ToMillis(trace.TotalLatency()));
  } else if (trace.terminal == TraceTerminal::kEarlyAborted) {
    ++failure_counts_[trace.final_code];
  }
  CountIntoChannel(trace);
  if (trace.failure != nullptr && !trace.failure->conflicting_key.empty()) {
    ++conflict_key_counts_[trace.failure->conflicting_key];
  }
  if (!streaming_) return;
  TxId id = trace.id;
  if (trace.failure != nullptr) exemplars_.Offer(std::move(trace));
  live_.erase(id);
}

void Tracer::OnPeerCommit(PeerId peer, ChannelId channel,
                          uint64_t block_number, SimTime now) {
  if (streaming_) return;
  peer_commits_[{channel, block_number, peer}] = now;
}

const TxTrace* Tracer::Find(TxId id) const {
  if (streaming_) {
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
  }
  if (id == 0 || id >= traces_.size()) return nullptr;
  const TxTrace& trace = traces_[id];
  return trace.id == id ? &trace : nullptr;
}

std::vector<const TxTrace*> Tracer::SortedTraces() const {
  std::vector<const TxTrace*> sorted;
  if (streaming_) {
    sorted.reserve(exemplars_.items().size());
    for (const TxTrace& trace : exemplars_.items()) sorted.push_back(&trace);
    std::sort(sorted.begin(), sorted.end(),
              [](const TxTrace* a, const TxTrace* b) { return a->id < b->id; });
    return sorted;
  }
  // traces_ is indexed by id, so a linear scan is already id-ordered.
  sorted.reserve(size_);
  for (const TxTrace& trace : traces_) {
    if (trace.id != 0) sorted.push_back(&trace);
  }
  return sorted;
}

std::vector<std::pair<std::string, uint64_t>> Tracer::TopConflictingKeys(
    size_t limit) const {
  std::vector<std::pair<std::string, uint64_t>> ranked(
      conflict_key_counts_.begin(), conflict_key_counts_.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > limit) ranked.resize(limit);
  return ranked;
}

size_t Tracer::ApproxMemoryBytes() const {
  // Per-trace cost: the slot plus a typical 4-endorser span vector and
  // the occasional failure record (counted for every slot — this is an
  // upper-bound estimate, not an allocator audit).
  constexpr size_t kPerTrace =
      sizeof(TxTrace) + 4 * sizeof(EndorserSpan) + sizeof(FailureAttribution);
  size_t bytes = sizeof(*this);
  if (streaming_) {
    bytes += live_.size() * (kPerTrace + 4 * sizeof(void*));
    bytes += exemplars_.items().capacity() * kPerTrace;
  } else {
    bytes += traces_.capacity() * sizeof(TxTrace);
    bytes += size_ * (4 * sizeof(EndorserSpan));
    bytes += peer_commits_.size() *
             (sizeof(std::tuple<ChannelId, uint64_t, PeerId>) +
              sizeof(SimTime) + 4 * sizeof(void*));
  }
  bytes += phases_.ApproxMemoryBytes();
  bytes += channel_counts_.capacity() * sizeof(ChannelCounts);
  for (const auto& [key, count] : conflict_key_counts_) {
    (void)count;
    bytes += key.capacity() + sizeof(uint64_t) + 4 * sizeof(void*);
  }
  bytes += fault_events_.capacity() * sizeof(FaultEventRow);
  bytes += raft_events_.capacity() * sizeof(RaftEventRow);
  for (const auto& [code, count] : failure_counts_) {
    (void)code;
    (void)count;
    bytes += sizeof(TxValidationCode) + sizeof(uint64_t) + 4 * sizeof(void*);
  }
  return bytes;
}

std::string Tracer::ExportJsonl(const std::string& config_echo) const {
  VersionedJsonWriter writer("fabricsim.trace",
                             VersionedJsonWriter::Format::kJsonl);
  writer.set_config_echo(config_echo);
  if (num_channels_ > 1) {
    writer.set_schema_version(kObsSchemaVersionChannels);
  }
  if (streaming_) {
    // The full per-transaction body is gone (that is the point); the
    // export leads with the bounded roll-up, then the sampled failure
    // exemplars as ordinary transaction rows.
    const PhaseSketches& sketches = phases_;
    writer.AddRow(StrFormat(
        "{\"type\": \"streaming_summary\", \"txs_observed\": %zu, "
        "\"in_flight\": %zu, \"failures_seen\": %llu, \"exemplars\": %zu, "
        "\"total_p50_ms\": %.3f, \"total_p99_ms\": %.3f}",
        size_, live_.size(),
        static_cast<unsigned long long>(exemplars_.seen()),
        exemplars_.items().size(), sketches.total.Percentile(0.5),
        sketches.total.Percentile(0.99)));
  }
  for (const TxTrace* trace : SortedTraces()) {
    writer.AddRow(trace->ToJson());
  }
  for (const auto& [key, time] : peer_commits_) {
    ChannelId channel = std::get<0>(key);
    std::string row = "{\"type\": \"peer_commit\", ";
    if (channel != 0) row += StrFormat("\"channel\": %d, ", channel);
    row += StrFormat(
        "\"block\": %llu, \"peer\": %d, \"committed\": %lld}",
        static_cast<unsigned long long>(std::get<1>(key)), std::get<2>(key),
        static_cast<long long>(time));
    writer.AddRow(std::move(row));
  }
  for (const FaultEventRow& event : fault_events_) {
    writer.AddRow(StrFormat(
        "{\"type\": \"fault\", \"kind\": \"%s\", \"subject\": %d, "
        "\"at\": %lld}",
        event.kind, event.subject, static_cast<long long>(event.at)));
  }
  for (const RaftEventRow& event : raft_events_) {
    writer.AddRow(StrFormat(
        "{\"type\": \"raft\", \"kind\": \"%s\", \"replica\": %d, "
        "\"term\": %llu, \"at\": %lld}",
        event.kind, event.replica,
        static_cast<unsigned long long>(event.term),
        static_cast<long long>(event.at)));
  }
  // Multi-channel exports close with one summary row per channel — the
  // failure-class roll-up sliced by shard (schema version 2 only, so
  // single-channel exports stay byte-identical to version 1).
  if (num_channels_ > 1) {
    std::vector<ChannelCounts> per_channel(
        static_cast<size_t>(num_channels_));
    for (size_t c = 0; c < channel_counts_.size() && c < per_channel.size();
         ++c) {
      per_channel[c] = channel_counts_[c];
    }
    for (size_t c = 0; c < per_channel.size(); ++c) {
      const ChannelCounts& counts = per_channel[c];
      writer.AddRow(StrFormat(
          "{\"type\": \"channel_summary\", \"channel\": %zu, "
          "\"ledger_txs\": %llu, \"valid\": %llu, \"endorsement\": %llu, "
          "\"mvcc\": %llu, \"phantom\": %llu, \"early_aborted\": %llu}",
          c, static_cast<unsigned long long>(counts.ledger),
          static_cast<unsigned long long>(counts.valid),
          static_cast<unsigned long long>(counts.endorse),
          static_cast<unsigned long long>(counts.mvcc),
          static_cast<unsigned long long>(counts.phantom),
          static_cast<unsigned long long>(counts.early_abort)));
    }
  }
  return writer.Render();
}

}  // namespace fabricsim
