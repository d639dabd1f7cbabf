#ifndef FABRICSIM_OBS_TRACER_H_
#define FABRICSIM_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/reservoir.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"

namespace fabricsim {

/// Aggregate per-phase latency sinks over ledger transactions, held as
/// mergeable quantile sketches (milliseconds). Both tracer modes fold
/// each transaction in at its terminal event, so dense and streaming
/// runs hold identical sketches.
struct PhaseSketches {
  QuantileSketch endorse;   ///< client submit -> all endorsements collected
  QuantileSketch ordering;  ///< endorsed -> block cut
  QuantileSketch commit;    ///< block cut -> committed on the reference peer
  QuantileSketch total;     ///< end-to-end

  size_t ApproxMemoryBytes() const {
    return endorse.ApproxMemoryBytes() + ordering.ApproxMemoryBytes() +
           commit.ApproxMemoryBytes() + total.ApproxMemoryBytes();
  }
};

/// Records per-transaction lifecycle traces from the DES actors. The
/// simulation layers hold a `Tracer*` that is nullptr when tracing is
/// disabled — every hook call sits behind a null check, so the
/// disabled path costs one predictable branch and the simulated
/// behaviour (event order, RNG draws, timestamps) is identical either
/// way: the tracer only observes, it never schedules events or draws
/// randomness (the exemplar reservoir has its own RNG).
class Tracer {
 public:
  /// Failure exemplars retained in streaming mode (reservoir-sampled
  /// uniformly over all failed transactions).
  static constexpr size_t kExemplarCapacity = 32;
  /// Seed of the reservoir's private RNG. Never touches simulation
  /// streams, so toggling exemplars cannot perturb a run.
  static constexpr uint64_t kExemplarSeed = 0x0b5e;

  /// In both modes each terminal event folds the trace into bounded
  /// aggregates (phase sketches, failure counters, conflict-key counts,
  /// per-channel roll-ups); the mode only decides what is kept per
  /// transaction. Dense mode keeps every span of every transaction —
  /// the full-fidelity export the analysis tools consume, with memory
  /// linear in transaction count. Streaming mode keeps only the
  /// in-flight window and a reservoir of failure exemplars, releasing
  /// each trace once folded — memory stays flat no matter how long the
  /// run is.
  explicit Tracer(bool streaming);

  bool streaming() const { return streaming_; }

  // --- recording hooks (called by client/ordering/peer/fabric) -------
  // The per-event hooks on the DES hot path are defined inline: after
  // Touch() collapses to an array index they are a handful of stores,
  // and inlining keeps the cost of enabled tracing small.
  void OnClientSubmit(TxId id, const std::string& function, ChannelId channel,
                      SimTime now) {
    TxTrace& trace = Touch(id);
    trace.function = function;
    trace.channel = channel;
    trace.client_submit = now;
  }
  void OnEndorseRequest(TxId id, PeerId peer, OrgId org, uint32_t attempt,
                        SimTime now) {
    TxTrace& trace = Touch(id);
    if (trace.endorsers.empty()) trace.endorsers.reserve(4);
    EndorserSpan span;
    span.peer_id = peer;
    span.org_id = org;
    span.attempt = attempt;
    span.request_sent = now;
    trace.endorsers.push_back(span);
  }
  void OnEndorseResponse(TxId id, PeerId peer, SimTime now) {
    TxTrace& trace = Touch(id);
    for (EndorserSpan& span : trace.endorsers) {
      if (span.peer_id == peer && span.response_received == 0) {
        span.response_received = now;
        return;
      }
    }
  }
  void OnEndorsed(TxId id, bool read_only, SimTime now) {
    TxTrace& trace = Touch(id);
    trace.read_only = read_only;
    trace.endorsed = now;
  }
  /// Client-side drop: app error, read-only skip, no endorsers, or
  /// endorsement-retry exhaustion. Terminal — the trace is folded here
  /// (and released in streaming mode).
  void OnClientDrop(TxId id, TraceTerminal reason, SimTime now) {
    (void)now;
    TxTrace& trace = Touch(id);
    trace.terminal = reason;
    FoldTerminal(trace);
  }
  /// The client re-proposed after an endorsement timeout; `attempt` is
  /// the new (1-based) retry round.
  void OnClientRetry(TxId id, uint32_t attempt, SimTime now) {
    (void)now;
    Touch(id).retries = attempt;
  }
  /// An MVCC-failed transaction was resubmitted as `new_id`. The
  /// failed transaction is already terminal (RecordCommit folds before
  /// the resubmit delivery fires), so streaming mode must not Touch()
  /// it back into existence — the back-link is best-effort there.
  void OnResubmit(TxId failed_id, TxId new_id, SimTime now) {
    (void)now;
    if (streaming_) {
      auto it = live_.find(failed_id);
      if (it != live_.end()) it->second.resubmitted_as = new_id;
    } else {
      Touch(failed_id).resubmitted_as = new_id;
    }
    Touch(new_id).resubmit_of = failed_id;
  }
  /// A fault transition fired (peer crash/restart, orderer
  /// pause/resume). `kind` must point at a static string.
  void OnFaultEvent(const char* kind, int32_t subject, SimTime now) {
    fault_events_.push_back(FaultEventRow{kind, subject, now});
  }
  /// A replicated-ordering consensus transition (election started,
  /// leader elected). `kind` must point at a static string.
  void OnRaftEvent(const char* kind, int32_t replica, uint64_t term,
                   SimTime now) {
    raft_events_.push_back(RaftEventRow{kind, replica, term, now});
  }
  void OnOrdererEnqueue(TxId id, SimTime now) {
    Touch(id).orderer_enqueue = now;
  }
  /// Ordering-phase abort (Fabric++ / FabricSharp); never on chain.
  void OnEarlyAbort(TxId id, TxValidationCode code, SimTime now);
  /// Overload-protection drop (shed / deadline-expired / throttled /
  /// breaker-rejected). Terminal; files an attribution record carrying
  /// the admission failure class so the export answers "why did this
  /// transaction fail" for protection casualties too.
  void OnAdmissionDrop(TxId id, TraceTerminal terminal, TxValidationCode code,
                       SimTime now);
  void OnBlockCut(TxId id, uint64_t block_number, uint32_t tx_index,
                  SimTime now) {
    TxTrace& trace = Touch(id);
    trace.block_number = block_number;
    trace.tx_index = tx_index;
    trace.block_cut = now;
  }
  /// Validation verdict + commit on the reference peer. Completes the
  /// span chain and, for failed transactions, files the attribution
  /// record carried in `result`.
  void OnCommit(TxId id, uint64_t block_number, uint32_t tx_index,
                const TxValidationResult& result, SimTime now);
  /// Block commit completion on any peer (commit-skew observability).
  /// Block numbers are dense per channel, so the channel is part of
  /// the block identity. Not recorded in streaming mode: the
  /// (channel, block, peer) map grows with run length.
  void OnPeerCommit(PeerId peer, ChannelId channel, uint64_t block_number,
                    SimTime now);

  /// Declares how many channels the traced network hosts. Multi-
  /// channel exports are stamped schema version 2 and carry
  /// per-channel summary rows; 1 (the default) keeps the version-1
  /// export byte-identical.
  void set_num_channels(int num_channels) {
    num_channels_ = num_channels < 1 ? 1 : num_channels;
  }
  int num_channels() const { return num_channels_; }

  // --- queries -------------------------------------------------------
  /// Transactions observed (ever touched) — not bounded by what is
  /// still stored in streaming mode.
  size_t size() const { return size_; }
  /// Transactions currently held in memory: all of them in dense mode,
  /// only the in-flight window in streaming mode.
  size_t stored_traces() const {
    return streaming_ ? live_.size() : size_;
  }
  /// Dense mode: any observed trace. Streaming mode: in-flight traces
  /// only (terminal ones have been folded and released).
  const TxTrace* Find(TxId id) const;
  /// Dense mode: all traces ordered by transaction id. Streaming mode:
  /// the retained failure exemplars, id-ordered. Deterministic.
  std::vector<const TxTrace*> SortedTraces() const;
  /// Per-phase latency sketches over ledger transactions, folded at
  /// each commit in both modes (same values, same order), so dense and
  /// streaming runs agree bit-for-bit.
  const PhaseSketches& phases() const { return phases_; }
  /// Failure-class counters over ledger + early-aborted transactions,
  /// folded at each terminal event in both modes.
  const std::map<TxValidationCode, uint64_t>& failure_counts() const {
    return failure_counts_;
  }
  /// Failure exemplars retained by the streaming reservoir (empty in
  /// dense mode — there, every trace is already stored).
  const std::vector<TxTrace>& exemplars() const { return exemplars_.items(); }
  /// One fault transition observed.
  struct FaultEventRow {
    const char* kind;
    int32_t subject;
    SimTime at;
  };
  /// One consensus transition observed.
  struct RaftEventRow {
    const char* kind;
    int32_t replica;
    uint64_t term;
    SimTime at;
  };
  /// The keys most often named in MVCC/phantom failure attributions,
  /// most-conflicting first (ties broken by key for determinism).
  std::vector<std::pair<std::string, uint64_t>> TopConflictingKeys(
      size_t limit) const;

  /// Bytes of trace storage currently held (slots, spans, aggregate
  /// sketches, reservoir, event logs). An estimate — container
  /// bookkeeping is approximated — but faithful to growth: dense mode
  /// grows linearly with transactions, streaming mode stays flat.
  size_t ApproxMemoryBytes() const;

  /// Renders the whole trace as JSONL: a versioned header line, one
  /// row per transaction (sorted by id), then one row per (block,
  /// peer) commit. `config_echo` is echoed in the header. Streaming
  /// exports replace the full per-transaction body with one
  /// streaming_summary row plus the exemplar rows.
  std::string ExportJsonl(const std::string& config_echo) const;

 private:
  /// Per-channel failure roll-up (multi-channel exports), folded at
  /// each terminal event.
  struct ChannelCounts {
    uint64_t ledger = 0, valid = 0, endorse = 0, mvcc = 0, phantom = 0,
             early_abort = 0;
  };

  TxTrace& Touch(TxId id) {
    if (streaming_) {
      TxTrace& trace = live_[id];
      if (trace.id == 0 && id != 0) {
        trace.id = id;
        ++size_;
      }
      return trace;
    }
    if (id >= traces_.size()) traces_.resize(id + 1);
    TxTrace& trace = traces_[id];
    if (trace.id == 0 && id != 0) {
      trace.id = id;
      ++size_;
    }
    return trace;
  }

  /// Folds a terminal trace into the aggregates. Streaming mode then
  /// offers it to the failure reservoir and releases its live_ slot.
  void FoldTerminal(TxTrace& trace);
  void CountIntoChannel(const TxTrace& trace);

  const bool streaming_;
  /// Transaction ids are a dense counter starting at 1 (see
  /// Client::Submit), so dense-mode traces are stored in a vector
  /// indexed by id — every hook is an array index instead of a hash
  /// lookup, and iteration is already in id order. Slot 0 and any gap
  /// slots stay default-constructed (id == 0) and are skipped by the
  /// queries. Streaming mode keeps only in-flight traces, keyed by id
  /// in live_.
  std::vector<TxTrace> traces_;           ///< dense mode storage
  std::unordered_map<TxId, TxTrace> live_;  ///< streaming in-flight window
  size_t size_ = 0;  ///< number of transactions ever observed
  /// Event logs for ExportJsonl: each block's per-peer commit time in
  /// (channel, block, peer) order (empty in streaming mode), then the
  /// fault and consensus transitions in simulated-time order.
  std::map<std::tuple<ChannelId, uint64_t, PeerId>, SimTime> peer_commits_;
  std::vector<FaultEventRow> fault_events_;
  std::vector<RaftEventRow> raft_events_;
  int num_channels_ = 1;
  ReservoirSampler<TxTrace> exemplars_;
  /// Aggregates folded at terminal events (both modes).
  std::vector<ChannelCounts> channel_counts_;
  std::map<std::string, uint64_t> conflict_key_counts_;
  std::map<TxValidationCode, uint64_t> failure_counts_;
  PhaseSketches phases_;
};

}  // namespace fabricsim

#endif  // FABRICSIM_OBS_TRACER_H_
