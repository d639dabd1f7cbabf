#ifndef FABRICSIM_FABRIC_NETWORK_CONFIG_H_
#define FABRICSIM_FABRIC_NETWORK_CONFIG_H_

#include <optional>
#include <string>

#include "src/admission/admission.h"
#include "src/common/sim_time.h"
#include "src/faults/fault_plan.h"
#include "src/sim/network.h"
#include "src/statedb/latency_profile.h"
#include "src/statedb/state_backend.h"

namespace fabricsim {

/// Client-side robustness knobs. Everything is off by default, which
/// reproduces the paper's fire-and-forget Caliper client exactly.
struct ClientRetryPolicy {
  /// Per-attempt endorsement-collection timeout. 0 disables timeouts
  /// and retries entirely (legacy behaviour): the client waits forever
  /// and a lost proposal strands the transaction.
  SimTime endorse_timeout = 0;
  /// Re-proposal rounds after the first before the client gives up.
  /// Each retry goes to the org's next round-robin peer and only
  /// targets the orgs that have not answered yet.
  int max_endorse_retries = 2;
  /// Exponential backoff: the timeout for attempt k (0-based) is
  /// endorse_timeout * backoff_multiplier^k. Deterministic — no jitter
  /// draw, so enabling retries in a run without timeouts changes
  /// nothing.
  double backoff_multiplier = 2.0;
  /// Opt-in resubmission of MVCC/phantom-failed transactions as fresh
  /// transactions after a backoff — the "retry amplification" loop:
  /// each resubmission re-reads hot keys and can conflict again.
  bool resubmit_on_mvcc = false;
  /// Resubmission budget per original transaction.
  int max_resubmits = 2;
  /// Delay between learning of the MVCC failure and re-endorsing.
  SimTime resubmit_backoff = 50 * kMillisecond;
  /// Ceiling on the exponential backoff. Without it, a long outage at
  /// high retry counts schedules virtual sleeps of hours (timeout *
  /// multiplier^k grows without bound) — the client looks wedged long
  /// after the fault has cleared. The default caps any wait at 30
  /// simulated seconds; the stock max_endorse_retries=2 never reaches
  /// it, so existing configurations are unaffected.
  SimTime max_backoff = 30 * kSecond;

  bool retries_enabled() const { return endorse_timeout > 0; }

  /// Deterministic capped exponential backoff for retry round
  /// `attempt` (0-based): min(endorse_timeout * multiplier^attempt,
  /// max_backoff), floored at one tick.
  SimTime BackoffForAttempt(int attempt) const {
    double scale = 1.0;
    for (int i = 0; i < attempt; ++i) {
      scale *= backoff_multiplier;
      // Stop early once the cap is unreachable; keeps the loop safe
      // from overflow at absurd attempt counts.
      if (max_backoff > 0 &&
          static_cast<double>(endorse_timeout) * scale >=
              static_cast<double>(max_backoff)) {
        return max_backoff;
      }
    }
    SimTime wait =
        static_cast<SimTime>(static_cast<double>(endorse_timeout) * scale);
    if (max_backoff > 0 && wait > max_backoff) wait = max_backoff;
    if (wait < 1) wait = 1;
    return wait;
  }
};

/// Which Fabric build runs the experiment (paper §4.5).
enum class FabricVariant {
  kFabric14,       ///< stock Fabric 1.4 (Kafka ordering)
  kFabricPlusPlus, ///< Fabric++: intra-block reordering + early abort
  kStreamchain,    ///< Streamchain: blockless streaming, RAM disk
  kFabricSharp,    ///< FabricSharp: cross-block serializability aborts
};

const char* FabricVariantToString(FabricVariant variant);

/// Cluster topology (paper §4.2). The paper's two setups:
///  * C1: 3 workers — 2 orgs x 2 peers, 3 orderers, 5 clients.
///  * C2: 32 workers — 8 orgs x 4 peers, 3 orderers, 25 clients.
struct ClusterConfig {
  int num_orgs = 2;
  int peers_per_org = 2;
  int num_orderers = 3;
  int num_clients = 5;

  int total_peers() const { return num_orgs * peers_per_org; }

  static ClusterConfig C1() { return ClusterConfig{2, 2, 3, 5}; }
  static ClusterConfig C2() { return ClusterConfig{8, 4, 3, 25}; }
};

/// Replicated-ordering knobs. `replicated == false` (the default)
/// keeps the legacy single-leader latency model (`ConsensusModel`
/// sampled per block), which is byte-identical to the pre-replication
/// tree — all paper figures run in that compat mode. `replicated ==
/// true` instantiates `cluster.num_orderers` Raft-style orderer
/// replicas as real DES actors: leader-based block-log replication, a
/// block delivers to peers only after a quorum of replicas acked it,
/// and a crashed leader is replaced through a randomized-timeout
/// election.
struct OrderingConfig {
  bool replicated = false;
  /// Election timeout drawn uniformly from [min, max) per arming, from
  /// each replica's own seeded RNG stream — deterministic for a given
  /// run seed, yet staggered across replicas like real Raft.
  SimTime election_timeout_min = 500 * kMillisecond;
  SimTime election_timeout_max = 1 * kSecond;
  /// Leader heartbeat (empty AppendEntries) period. Must be well below
  /// election_timeout_min or healthy followers keep starting elections.
  SimTime heartbeat_interval = 100 * kMillisecond;
  /// Client-side failover: how long a client waits for the ordering
  /// ack (sent at quorum commit) before re-broadcasting the envelope
  /// to the next replica. Must exceed the block timeout plus
  /// replication latency, or healthy txs get re-broadcast.
  SimTime client_ack_timeout = 4 * kSecond;
  /// Re-broadcast budget per envelope before the client gives up.
  int max_client_rebroadcasts = 10;
};

/// Service-time calibration for the non-database parts of the
/// pipeline. Values are chosen so that the simulated testbed saturates
/// around 200 tps, like the paper's clusters.
struct TimingConfig {
  /// Proposal unmarshalling + ACL checks per endorsement request.
  SimTime proposal_overhead = 300;
  /// ECDSA signature over the endorsement response.
  SimTime endorsement_sign_cost = 700;
  /// Client-side handling per endorsement response.
  SimTime client_collect_cost = 100;
  /// Ordering-service consensus latency per block (Kafka round trip).
  SimTime consensus_latency = 4000;
  /// Orderer ingress cost per transaction.
  SimTime orderer_per_tx_cost = 40;
  /// Block assembly + signing per block.
  SimTime orderer_per_block_cost = 6000;
  /// Egress cost per delivered block message per peer.
  SimTime orderer_per_msg_cost = 150;
  /// Fabric validates endorsement signatures with a worker pool; the
  /// summed per-transaction VSCC cost is divided by this factor.
  int vscc_parallelism = 16;
  /// Per-block ledger append (block file write + fsync) at each peer.
  /// Scaled down by the RAM-disk storage profile under Streamchain.
  SimTime ledger_append_cost = 40000;
  /// Fractional half-width of the per-task service-time jitter on each
  /// peer (validation and endorsement). Real peers never take exactly
  /// the same time to validate a block (database variance, GC, CPU
  /// contention), so peers' committed heights transiently diverge — the
  /// root cause of endorsement policy failures. 0 disables the jitter.
  double peer_service_jitter = 0.12;
  /// Size of each peer's shared validation/commit worker pool: how
  /// many *different channels'* blocks one peer process can validate
  /// concurrently. Each channel's own blocks always commit strictly
  /// in order, so with a single channel this knob is inert and the
  /// pipeline degenerates to the classic serial validate queue.
  int peer_commit_workers = 2;
};

/// Everything needed to instantiate one Fabric network.
struct FabricConfig {
  FabricVariant variant = FabricVariant::kFabric14;
  ClusterConfig cluster = ClusterConfig::C1();
  DatabaseType db_type = DatabaseType::kCouchDb;

  /// Data structure behind each channel's world-state head: always the
  /// ordered map. A constant, not a setting; perfbench still reads it
  /// (see src/statedb/state_backend.h).
  static constexpr StateBackendType state_backend =
      StateBackendType::kOrderedMap;

  /// Number of channels (independent ledger shards) the network hosts.
  /// Every peer serves every channel, reading the channel's one shared
  /// world state at its own committed height and keeping its own chain
  /// per channel; the ordering service runs one block cutter
  /// (or one Raft group in replicated mode) per channel on the same
  /// orderer nodes. 1 reproduces the pre-channel pipeline exactly.
  int num_channels = 1;

  /// Endorsement policy text (PolicyParser grammar). When empty, the
  /// P0 preset (all orgs) is built for cluster.num_orgs.
  std::string policy_text;

  /// Block cutting parameters (paper §2, step 4).
  uint32_t block_size = 100;
  SimTime block_timeout = 2 * kSecond;
  uint64_t block_max_bytes = 100ull << 20;

  TimingConfig timing;
  NetworkConfig net;

  /// Replicated-ordering mode (off = legacy single-leader compat path).
  OrderingConfig ordering;

  /// Pumba-style chaos injection: extra one-way delay applied to every
  /// peer of `delayed_org` (< 0 disables). Paper Fig. 16 uses
  /// 100 ± 10 ms on one organization. Kept as the legacy shorthand for
  /// a whole-run DelayWindow on one org; `faults` below is the general
  /// mechanism.
  int delayed_org = -1;
  SimTime injected_delay = 0;
  SimTime injected_delay_jitter = 0;

  /// Deterministic fault schedule (crashes, pauses, partitions, delay
  /// and loss windows). Empty by default; an empty plan leaves the run
  /// bitwise identical to a build without the fault subsystem.
  FaultPlan faults;

  /// Client endorsement timeout/retry + MVCC resubmission. All off by
  /// default (the paper's client behaviour).
  ClientRetryPolicy retry;

  /// Overload protection (src/admission): deadline propagation,
  /// bounded endorsement/ordering queues, client circuit breaker and
  /// retry budget. All off by default; a disabled config leaves every
  /// run bitwise identical to a build without the subsystem.
  AdmissionConfig admission;

  /// Whether clients submit read-only transactions for ordering (the
  /// paper's default flow does; its recommendation #4 is not to).
  bool submit_read_only = true;

  /// Per-transaction lifecycle tracing (src/obs). Off by default: the
  /// tracer is a pure observer, but recording spans costs memory and a
  /// little time, so runs that only need the aggregate FailureReport
  /// keep it disabled. Disabled runs are bitwise identical to builds
  /// without the tracing subsystem.
  bool tracing = false;

  /// Memory-bounded observability for long/large runs. The tracer
  /// folds every terminal trace into quantile sketches and failure
  /// counters in either mode; streaming_obs only decides what is kept
  /// per transaction. With it the tracer holds just the in-flight
  /// window and a reservoir of failure exemplars, releasing each trace
  /// once folded. Implies a tracer even when `tracing` is false.
  /// Aggregates are identical to dense tracing; the full
  /// per-transaction export is replaced by the exemplar sample.
  bool streaming_obs = false;

  /// Drop each block after the commit-time fold instead of retaining
  /// the canonical BlockStore. Every run folds the reference peer's
  /// commits into StreamingLedgerStats and builds its FailureReport
  /// from that fold, so the report is the same either way; this knob
  /// only makes ledger memory O(channels) instead of O(transactions),
  /// the enabler for hour-long million-user runs. The chain-integrity
  /// audit runs at commit time from each channel's record, so it
  /// covers streaming runs too.
  bool streaming_ledger = false;

  /// Streamchain: ledger/world state on a RAM disk (paper §5.3.3).
  bool streamchain_ram_disk = true;

  /// Streamchain "virtual block boundary" (proposed by the Streamchain
  /// authors, highlighted as promising in paper §5.3.3): transactions
  /// stream one-by-one through ordering, but each peer group-commits
  /// every N streamed blocks, amortizing the per-block fixed costs
  /// (state-DB batch + ledger fsync). 1 disables grouping (the
  /// prototype's behaviour, which is why it needs the RAM disk).
  uint32_t streamchain_virtual_block_size = 1;

  /// FabricSharp: endorsers execute against block snapshots refreshed
  /// at this interval, introducing extra endorsement staleness
  /// (paper §5.4.1).
  SimTime fabricsharp_snapshot_interval = 300 * kMillisecond;

  /// Returns the database latency profile for db_type, scaled by the
  /// variant's storage profile (Streamchain RAM disk).
  DbLatencyProfile MakeDbProfile() const;
};

}  // namespace fabricsim

#endif  // FABRICSIM_FABRIC_NETWORK_CONFIG_H_
