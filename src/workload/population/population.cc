#include "src/workload/population/population.h"

#include <cmath>
#include <limits>
#include <utility>

namespace fabricsim {

double MmppConfig::MeanMultiplier() const {
  if (states.empty()) return 1.0;
  double weighted = 0.0;
  double total = 0.0;
  for (const MmppState& state : states) {
    double w = static_cast<double>(state.mean_sojourn);
    weighted += state.rate_multiplier * w;
    total += w;
  }
  return total > 0.0 ? weighted / total : 1.0;
}

uint64_t PopulationConfig::TotalUsers() const {
  uint64_t users = 0;
  for (const BehaviourClass& cls : classes) users += cls.num_users;
  return users;
}

double PopulationConfig::TotalRateTps() const {
  double rate = 0.0;
  for (const BehaviourClass& cls : classes) {
    rate += cls.aggregate_rate_tps() * cls.mmpp.MeanMultiplier();
  }
  return rate;
}

Status PopulationConfig::Validate() const {
  if (classes.empty()) {
    return Status::InvalidArgument("population has no behaviour classes");
  }
  for (const BehaviourClass& cls : classes) {
    if (cls.num_users == 0) {
      return Status::InvalidArgument("behaviour class '" + cls.name +
                                     "' has zero users");
    }
    if (!(cls.per_user_tps > 0.0)) {
      return Status::InvalidArgument("behaviour class '" + cls.name +
                                     "' needs per_user_tps > 0");
    }
    for (const MmppState& state : cls.mmpp.states) {
      if (state.rate_multiplier < 0.0 || state.mean_sojourn < 1) {
        return Status::InvalidArgument(
            "behaviour class '" + cls.name +
            "' has an MMPP state with negative rate or sub-tick sojourn");
      }
    }
    if (cls.mmpp.enabled() && cls.mmpp.MeanMultiplier() <= 0.0) {
      return Status::InvalidArgument("behaviour class '" + cls.name +
                                     "' modulates its rate to zero");
    }
    for (const SurgeWindow& surge : cls.surges) {
      if (surge.start < 0 || surge.end <= surge.start ||
          surge.multiplier < 0.0) {
        return Status::InvalidArgument(
            "behaviour class '" + cls.name +
            "' has a malformed surge window (need 0 <= start < end, "
            "multiplier >= 0)");
      }
      for (const SurgeWindow& other : cls.surges) {
        if (&other == &surge) continue;
        if (surge.start < other.end && other.start < surge.end) {
          return Status::InvalidArgument("behaviour class '" + cls.name +
                                         "' has overlapping surge windows");
        }
      }
    }
  }
  return Status::OK();
}

PopulationConfig PopulationConfig::SingleClass(uint64_t num_users,
                                               double total_rate_tps,
                                               std::string name) {
  PopulationConfig config;
  BehaviourClass cls;
  cls.name = std::move(name);
  cls.num_users = num_users;
  // Same per-user share arithmetic as the legacy StartLoad spread, so
  // a degenerate single class reproduces its doubles bit-for-bit.
  cls.per_user_tps = total_rate_tps / static_cast<double>(num_users);
  config.classes.push_back(std::move(cls));
  return config;
}

ArrivalProcess::ArrivalProcess(double rate_tps, MmppConfig mmpp,
                               std::vector<SurgeWindow> surges)
    : rate_tps_(rate_tps), mmpp_(std::move(mmpp)), surges_(std::move(surges)) {}

double ArrivalProcess::SurgeMultiplierAt(double t_us) const {
  for (const SurgeWindow& surge : surges_) {
    if (t_us >= static_cast<double>(surge.start) &&
        t_us < static_cast<double>(surge.end)) {
      return surge.multiplier;
    }
  }
  return 1.0;
}

double ArrivalProcess::NextSurgeBoundaryAfter(double t_us) const {
  double next = std::numeric_limits<double>::infinity();
  for (const SurgeWindow& surge : surges_) {
    double start = static_cast<double>(surge.start);
    double end = static_cast<double>(surge.end);
    if (start > t_us && start < next) next = start;
    if (end > t_us && end < next) next = end;
  }
  return next;
}

void ArrivalProcess::AdvanceState(Rng& rng) {
  // Uniform jump among the other states: on/off for two states, a
  // symmetric MMPP beyond. One draw even for two states keeps the
  // consumption pattern uniform across configs.
  size_t n = mmpp_.states.size();
  uint64_t jump = rng.UniformU64(n - 1);
  state_ = (state_ + 1 + static_cast<size_t>(jump)) % n;
  remaining_in_state_us_ =
      rng.Exponential(static_cast<double>(mmpp_.states[state_].mean_sojourn));
}

SimTime ArrivalProcess::NextGap(SimTime now, Rng& rng) {
  if (mmpp_.enabled() && !sojourn_drawn_) {
    remaining_in_state_us_ =
        rng.Exponential(static_cast<double>(mmpp_.states[0].mean_sojourn));
    sojourn_drawn_ = true;
  }
  // The instantaneous rate is piecewise constant along two clocks: the
  // MMPP sojourn (relative, random) and the surge schedule (absolute,
  // deterministic). Each iteration integrates one constant-rate segment
  // up to whichever boundary comes first; memorylessness makes the
  // segment-by-segment redraw exact. With no surge window the surge
  // factor is exactly 1.0 and the next boundary is infinite, so the
  // MMPP sojourn (or nothing) ends each segment.
  double offset_us = 0.0;
  for (;;) {
    double pos_us = static_cast<double>(now) + offset_us;
    double mmpp_mult =
        mmpp_.enabled() ? mmpp_.states[state_].rate_multiplier : 1.0;
    double segment_us = NextSurgeBoundaryAfter(pos_us) - pos_us;
    bool mmpp_first =
        mmpp_.enabled() && remaining_in_state_us_ <= segment_us;
    if (mmpp_first) segment_us = remaining_in_state_us_;
    double rate = rate_tps_ * mmpp_mult * SurgeMultiplierAt(pos_us);
    if (rate > 0.0) {
      double draw = rng.Exponential(1e6 / rate);
      if (draw < segment_us) {
        if (mmpp_.enabled()) remaining_in_state_us_ -= draw;
        SimTime gap = static_cast<SimTime>(std::llround(offset_us + draw));
        return gap < 1 ? 1 : gap;
      }
    } else if (std::isinf(segment_us)) {
      // Rate modulated to zero with no boundary ahead: silent forever.
      return kSimTimeNever;
    }
    offset_us += segment_us;
    if (mmpp_first) {
      AdvanceState(rng);
    } else if (mmpp_.enabled()) {
      remaining_in_state_us_ -= segment_us;
    }
  }
}

double ArrivalProcess::mean_rate_tps() const {
  return rate_tps_ * (mmpp_.enabled() ? mmpp_.MeanMultiplier() : 1.0);
}

}  // namespace fabricsim
