#ifndef FABRICSIM_ADMISSION_ADMISSION_H_
#define FABRICSIM_ADMISSION_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/ledger/transaction.h"

namespace fabricsim {

/// How an endorsing peer bounds its shared serial endorsement queue.
enum class AdmissionQueuePolicy : uint8_t {
  /// Unbounded queue (legacy behaviour).
  kNone = 0,
  /// Arrivals beyond max_endorse_queue_depth are rejected immediately
  /// with a shed response — the client learns at one network RTT
  /// instead of after a full queue drain.
  kRejectNew,
  /// Arrivals beyond the bound evict the *oldest* queued proposal
  /// (which has absorbed the most staleness and is the most likely to
  /// fail MVCC anyway); the newcomer is admitted.
  kDropOldest,
  /// CoDel-style sojourn-time shedding at dequeue: while queueing
  /// delay stays above `codel_target` for a full `codel_interval`,
  /// proposals are dropped at an increasing rate (interval/sqrt(n))
  /// until the standing queue drains.
  kCoDel,
};

const char* AdmissionQueuePolicyToString(AdmissionQueuePolicy policy);

/// Client-side circuit breaker over submission outcomes. Deterministic
/// by construction: tumbling count windows, fixed open duration and a
/// fixed half-open probe budget — no wall clocks, no jitter draws.
struct CircuitBreakerConfig {
  bool enabled = false;
  /// Outcomes per evaluation window (closed state).
  uint32_t window = 20;
  /// Failure share within one window that opens the breaker.
  double open_threshold = 0.5;
  /// How long an open breaker rejects submissions outright.
  SimTime open_duration = 2 * kSecond;
  /// Probe submissions allowed in the half-open state; all must
  /// succeed to close the breaker again, any failure re-opens it.
  uint32_t half_open_probes = 3;
};

/// Token-bucket retry budget: retries (endorsement re-proposals and
/// MVCC resubmissions) spend one token each; tokens are earned as a
/// fraction of first-attempt submissions. Caps the retry share of
/// offered load at ratio/(1+ratio) under sustained failure.
struct RetryBudgetConfig {
  bool enabled = false;
  /// Tokens earned per first-attempt submission.
  double ratio = 0.2;
  /// Token-bucket ceiling (burst allowance).
  double capacity = 10.0;
};

/// Overload-protection knobs for one run. Everything is off by
/// default; a default-constructed config leaves the simulation
/// bitwise identical to a build without the admission subsystem.
struct AdmissionConfig {
  /// Client-stamped time-to-live per transaction: a transaction whose
  /// deadline (submit time + tx_deadline) has passed is early-aborted
  /// at the endorser queue, the orderer ingress, or validation —
  /// whichever notices first — instead of burning further work.
  /// 0 disables deadlines.
  SimTime tx_deadline = 0;

  /// Endorser queue policy + bound.
  AdmissionQueuePolicy endorse_policy = AdmissionQueuePolicy::kNone;
  /// Queue-depth bound for kRejectNew / kDropOldest (queued + busy).
  /// 0 keeps the queue unbounded even if a policy is set.
  uint32_t max_endorse_queue_depth = 0;
  /// CoDel control-law parameters (kCoDel only).
  SimTime codel_target = 5 * kMillisecond;
  SimTime codel_interval = 100 * kMillisecond;

  /// Orderer broadcast-ingress bound: envelopes arriving while the
  /// ordering queue holds this many entries are rejected with a
  /// throttle signal back to the client. 0 = unbounded (legacy).
  /// Compat ordering only: replicated replicas have no ingress bound,
  /// so FabricNetwork::Init refuses a nonzero value with
  /// `ordering.replicated` (InvalidArgument).
  uint32_t max_orderer_queue_depth = 0;

  CircuitBreakerConfig breaker;
  RetryBudgetConfig retry_budget;

  bool deadlines_enabled() const { return tx_deadline > 0; }
  bool endorse_bounded() const {
    return endorse_policy != AdmissionQueuePolicy::kNone &&
           (endorse_policy == AdmissionQueuePolicy::kCoDel ||
            max_endorse_queue_depth > 0);
  }
  bool orderer_bounded() const { return max_orderer_queue_depth > 0; }
  /// True when any protection mechanism is active. False reproduces
  /// the unprotected pipeline exactly.
  bool enabled() const {
    return deadlines_enabled() || endorse_bounded() || orderer_bounded() ||
           breaker.enabled || retry_budget.enabled;
  }
};

/// Run-wide overload-protection counters, owned by the harness and
/// shared by peers, orderers and clients. Only allocated when
/// AdmissionConfig::enabled() — a null stats pointer everywhere is the
/// legacy pipeline.
struct AdmissionStats {
  /// Proposals shed at endorser queues (all policies).
  uint64_t endorse_shed = 0;
  /// Proposals whose deadline had already passed when the endorser
  /// reached them (at arrival or at dequeue).
  uint64_t deadline_expired_endorse = 0;
  /// Sibling proposals turned into zero-cost husks by cancellation
  /// propagation: the client abandoned the transaction after another
  /// org refused it, so the work queued here was already dead.
  uint64_t endorse_cancelled = 0;
  /// Envelopes dropped at orderer ingress because the deadline passed
  /// while they queued.
  uint64_t deadline_expired_order = 0;
  /// Envelopes rejected by the bounded orderer ingress.
  uint64_t orderer_throttled = 0;
  /// Fresh submissions suppressed while a breaker was open (or its
  /// half-open probe budget was spent).
  uint64_t breaker_rejected = 0;
  /// Closed->open breaker transitions across all clients/classes.
  uint64_t breaker_opens = 0;
  /// Retries/resubmissions skipped because the token bucket was empty.
  uint64_t retry_budget_denials = 0;

  /// Transaction-level client drops (one per abandoned transaction,
  /// versus the per-event producer counters above: a transaction
  /// proposed to several orgs dies on its *first* refusal).
  uint64_t client_shed_drops = 0;      ///< abandoned on a shed response
  uint64_t client_expired_drops = 0;   ///< abandoned on an expired response
  uint64_t client_throttle_drops = 0;  ///< abandoned on an orderer throttle

  /// Per-org endorser sheds (index = OrgId); sized lazily.
  std::vector<uint64_t> shed_by_org;

  /// Sojourn time (ms) of every proposal that reached the head of an
  /// endorsement queue, shed or served — the congestion signal CoDel
  /// acts on.
  QuantileSketch endorse_sojourn_ms;
  /// Endorsement queue depth observed at each proposal arrival.
  QuantileSketch endorse_depth;

  void NoteShed(OrgId org) {
    ++endorse_shed;
    if (org >= 0) {
      if (static_cast<size_t>(org) >= shed_by_org.size()) {
        shed_by_org.resize(static_cast<size_t>(org) + 1, 0);
      }
      ++shed_by_org[static_cast<size_t>(org)];
    }
  }
};

/// Token bucket for retry spending. Deterministic: pure arithmetic on
/// the client's own submission/outcome sequence.
class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetConfig& config)
      : config_(config), tokens_(config.capacity) {}

  /// A first-attempt submission earns `ratio` tokens.
  void OnSubmit() {
    tokens_ = tokens_ + config_.ratio;
    if (tokens_ > config_.capacity) tokens_ = config_.capacity;
  }

  /// Spends one token for a retry; false when the bucket is empty
  /// (the caller must skip the retry).
  bool TrySpend() {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  RetryBudgetConfig config_;
  double tokens_;
};

/// Deterministic circuit breaker (closed / open / half-open).
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(const CircuitBreakerConfig& config, AdmissionStats* stats)
      : config_(config), stats_(stats) {}

  /// Whether a fresh submission may proceed at `now`. Open breakers
  /// reject until open_duration elapses, then admit up to
  /// half_open_probes probe submissions.
  bool AllowSubmit(SimTime now);

  /// Outcome feedback: success = envelope handed to ordering; failure
  /// = deadline expired, endorsement timed out, or ordering throttled.
  /// Fast-fail queue sheds are deliberately neither: a bounded queue
  /// rejecting within one RTT is a healthy backend, and tripping on
  /// sheds would turn graceful degradation into a client-side outage.
  void RecordSuccess(SimTime now);
  void RecordFailure(SimTime now);

  State state() const { return state_; }

 private:
  void Trip(SimTime now);

  CircuitBreakerConfig config_;
  AdmissionStats* stats_;
  State state_ = State::kClosed;
  uint32_t window_outcomes_ = 0;
  uint32_t window_failures_ = 0;
  SimTime opened_at_ = 0;
  uint32_t probes_issued_ = 0;
  uint32_t probe_successes_ = 0;
};

/// CoDel control law over endorsement-queue sojourn times (Nichols &
/// Jacobson), evaluated at each dequeue. Deterministic: driven purely
/// by simulated sojourn times.
class CoDelState {
 public:
  /// Returns true when the proposal dequeued at `now` after `sojourn`
  /// in queue should be shed.
  bool ShouldDrop(SimTime sojourn, SimTime now, SimTime target,
                  SimTime interval);

  uint64_t drops() const { return total_drops_; }

 private:
  static SimTime ControlLaw(SimTime t, SimTime interval, uint32_t count);

  /// When the sojourn first exceeded target (0 = below target now).
  SimTime first_above_time_ = 0;
  bool dropping_ = false;
  SimTime drop_next_ = 0;
  uint32_t count_ = 0;
  uint32_t last_count_ = 0;
  uint64_t total_drops_ = 0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_ADMISSION_ADMISSION_H_
