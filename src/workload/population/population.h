#ifndef FABRICSIM_WORKLOAD_POPULATION_POPULATION_H_
#define FABRICSIM_WORKLOAD_POPULATION_POPULATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/channels/channel_types.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/fabric/network_config.h"
#include "src/workload/workload_spec.h"

namespace fabricsim {

/// One state of a Markov-modulated Poisson process: while the chain
/// sits in this state, the class's aggregate arrival rate is scaled by
/// `rate_multiplier`; the sojourn is exponential with mean
/// `mean_sojourn`.
struct MmppState {
  double rate_multiplier = 1.0;
  SimTime mean_sojourn = 10 * kSecond;
};

/// Optional burstiness model for a behaviour class. Fewer than two
/// states means plain (unmodulated) Poisson arrivals. State
/// transitions pick uniformly among the other states, giving the
/// classic on/off (IPP) process for two states and a symmetric MMPP
/// beyond that.
struct MmppConfig {
  std::vector<MmppState> states;

  bool enabled() const { return states.size() >= 2; }

  /// Sojourn-weighted mean of the rate multipliers — the long-run
  /// effective rate scale of the modulated process (stationary
  /// distribution of the symmetric chain is sojourn-proportional).
  double MeanMultiplier() const;

  /// Two-state on/off burst model: `burst_multiplier` x rate for
  /// `burst_len` out of every `burst_len + quiet_len` (on average).
  static MmppConfig OnOff(double burst_multiplier, SimTime burst_len,
                          SimTime quiet_len) {
    MmppConfig config;
    config.states.push_back(MmppState{burst_multiplier, burst_len});
    config.states.push_back(MmppState{0.0, quiet_len});
    return config;
  }
};

/// One deterministic surge window: while simulated time is in
/// [start, end) the class's arrival rate is scaled by `multiplier`
/// (on top of any MMPP modulation). Unlike the MMPP — a random
/// environment — surges are scheduled facts ("flash sale at minute
/// two"), which is exactly what overload-protection experiments need:
/// the same overload hits at the same instant on every seed.
struct SurgeWindow {
  SimTime start = 0;
  SimTime end = 0;
  double multiplier = 1.0;
};

/// One behaviour class of the client population: `num_users` open-loop
/// users, each submitting at `per_user_tps`, sharing a retry policy,
/// channel affinity, and chaincode function mix. Small unmodulated
/// classes expand into per-client `Client` actors (bitwise identical
/// to the legacy path); classes at or above
/// PopulationConfig::aggregation_threshold, and every class with an
/// MMPP or a surge window, run as ONE Client on one aggregated
/// ArrivalProcess — the superposition of N independent Poisson
/// processes is Poisson at N x per_user_tps, so the aggregate
/// schedules arrivals, not clients, and a million users cost one
/// pending event instead of a million.
struct BehaviourClass {
  std::string name = "default";
  uint64_t num_users = 0;
  double per_user_tps = 0.0;
  /// Per-class retry/resubmission policy; unset inherits the network
  /// config's policy (exactly what the legacy path applied).
  std::optional<ClientRetryPolicy> retry;
  /// Per-class channel affinity; unset inherits the network's
  /// affinity config.
  std::optional<ChannelAffinityConfig> affinity;
  /// Per-class chaincode function mix on the same chaincode/key space;
  /// unset shares the run's workload generator.
  std::optional<WorkloadMix> mix;
  /// Optional MMPP modulation of the class's aggregate rate. A
  /// modulated class always runs aggregated: the modulation is one
  /// chain shared by all its users, not one chain per user.
  MmppConfig mmpp;
  /// Deterministic surge schedule (piecewise rate multiplier in
  /// absolute simulated time). Windows must be well-formed
  /// (start < end, multiplier >= 0) and non-overlapping; outside every
  /// window the multiplier is 1. A class with surges always runs
  /// aggregated: one arrival process carries the schedule for the
  /// whole class.
  std::vector<SurgeWindow> surges;

  double aggregate_rate_tps() const {
    return per_user_tps * static_cast<double>(num_users);
  }
};

/// Declarative description of the whole client population. Empty
/// classes == legacy mode (the flat `arrival_rate_tps` knob spread
/// over cluster.num_clients per-actor clients).
struct PopulationConfig {
  std::vector<BehaviourClass> classes;
  /// Classes with at least this many users run aggregated; below it
  /// unmodulated classes without surges expand into per-client actors.
  /// The default keeps every paper-scale config (5-25 clients) on the
  /// bitwise-identical per-actor path.
  uint64_t aggregation_threshold = 64;

  bool empty() const { return classes.empty(); }
  uint64_t TotalUsers() const;
  double TotalRateTps() const;
  Status Validate() const;

  /// Single Poisson class covering `num_users` identical users.
  static PopulationConfig SingleClass(uint64_t num_users,
                                      double total_rate_tps,
                                      std::string name = "default");
};

/// The arrival clock of one load actor: Poisson at `rate_tps`,
/// optionally modulated by an MMPP whose piecewise-constant rate is
/// integrated exactly (memorylessness lets each segment redraw) and
/// scaled by deterministic surge windows. A per-user Client runs a
/// plain Poisson process at its user's rate; an aggregated behaviour
/// class runs one Client whose process carries the class's superposed
/// rate, MMPP and surges.
///
/// The process keeps no Rng: each call draws from the stream it is
/// given, so a per-user client's gaps interleave with its payload
/// draws on one stream. Gaps are rounded to the nearest tick and
/// clamped to >= 1. Truncating the draw instead floored every gap,
/// which at high rates (a mean gap of a few ticks) inflated the
/// effective arrival rate by ~10% and piled same-timestamp
/// submissions; rounding is unbiased to within half a tick, and the
/// clamp keeps arrivals strictly ordered.
class ArrivalProcess {
 public:
  /// A silent process: NextGap always returns kSimTimeNever.
  ArrivalProcess() = default;
  explicit ArrivalProcess(double rate_tps, MmppConfig mmpp = {},
                          std::vector<SurgeWindow> surges = {});

  /// Gap from `now` to the next arrival, drawn from `rng`, advancing
  /// the modulation chain; kSimTimeNever once the rate is zero with no
  /// boundary ahead. A modulated process's first call draws the first
  /// MMPP sojourn before any gap. `now` anchors the deterministic
  /// surge schedule; with no surge window it changes neither the gap
  /// nor the draws (PopulationTest.ArrivalGapsArePinned pins the gaps).
  SimTime NextGap(SimTime now, Rng& rng);

  /// Long-run mean arrival rate, MMPP modulation included. Surge
  /// windows are transient and deliberately excluded.
  double mean_rate_tps() const;

 private:
  void AdvanceState(Rng& rng);
  /// Surge multiplier in effect at absolute time `t_us` (1.0 outside
  /// every window) and the first window boundary strictly after it
  /// (infinity when none remains).
  double SurgeMultiplierAt(double t_us) const;
  double NextSurgeBoundaryAfter(double t_us) const;

  double rate_tps_ = 0.0;
  MmppConfig mmpp_;
  std::vector<SurgeWindow> surges_;
  size_t state_ = 0;
  /// Set once the first MMPP sojourn is drawn (at the first NextGap).
  bool sojourn_drawn_ = false;
  /// Simulated time left in the current MMPP state (modulated only).
  double remaining_in_state_us_ = 0.0;
};

}  // namespace fabricsim

#endif  // FABRICSIM_WORKLOAD_POPULATION_POPULATION_H_
