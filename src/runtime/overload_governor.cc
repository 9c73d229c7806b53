#include "runtime/overload_governor.h"

#include <cassert>
#include <utility>

namespace pipes {

const char* PressureStateToString(PressureState s) {
  switch (s) {
    case PressureState::kNormal:
      return "normal";
    case PressureState::kPressured:
      return "pressured";
    case PressureState::kBrownout:
      return "brownout";
  }
  return "unknown";
}

OverloadGovernor::OverloadGovernor(MetadataManager& manager,
                                   TaskScheduler& scheduler,
                                   OverloadControlOptions options)
    : manager_(manager), scheduler_(scheduler), options_(options) {
  assert(options_.governor_period > 0 && "governor needs a positive period");
  MutexLock lock(mu_);
  task_ = scheduler_.SchedulePeriodic(options_.governor_period,
                                      [this] { Tick(); });
}

OverloadGovernor::~OverloadGovernor() {
  MutexLock lock(mu_);
  // A tick scheduled but not yet run sees the cancelled handle and never
  // fires.
  task_.Cancel();
  if (state() != PressureState::kNormal) {
    manager_.SetPeriodicCadence(1.0, options_.default_staleness_factor);
  }
}

void OverloadGovernor::SetPressureProbe(std::function<bool()> probe) {
  MutexLock lock(mu_);
  probe_ = std::move(probe);
}

OverloadGovernorStats OverloadGovernor::stats() const {
  MutexLock lock(mu_);
  OverloadGovernorStats s;
  s.state = state();
  s.pressure_enters = pressure_enters_;
  s.brownout_enters = brownout_enters_;
  s.pressure_exits = pressure_exits_;
  return s;
}

void OverloadGovernor::Tick() {
  MutexLock lock(mu_);
  bool hot = probe_ ? probe_() : scheduler_.overloaded();
  if (hot) {
    ++hot_ticks_;
    cool_ticks_ = 0;
  } else {
    ++cool_ticks_;
    hot_ticks_ = 0;
  }

  const OverloadControlOptions& opt = options_;
  PressureState cur = state();
  PressureState next = cur;
  switch (cur) {
    case PressureState::kNormal:
      if (hot_ticks_ >= opt.ticks_to_pressure) next = PressureState::kPressured;
      break;
    case PressureState::kPressured:
      if (hot_ticks_ >= opt.ticks_to_brownout) {
        next = PressureState::kBrownout;
      } else if (cool_ticks_ >= opt.ticks_to_recover) {
        next = PressureState::kNormal;
      }
      break;
    case PressureState::kBrownout:
      // Recovery steps down one state at a time: brownout -> pressured ->
      // normal, each step needing a fresh run of calm ticks.
      if (cool_ticks_ >= opt.ticks_to_recover) next = PressureState::kPressured;
      break;
  }
  if (next == cur) return;

  // Tick counters restart per state, so every threshold above reads as
  // "consecutive ticks in the current state".
  hot_ticks_ = 0;
  cool_ticks_ = 0;
  state_.store(static_cast<int>(next), std::memory_order_release);
  double factor = 1.0;
  switch (next) {
    case PressureState::kPressured:
      if (cur == PressureState::kNormal) ++pressure_enters_;
      factor = opt.pressured_factor;
      break;
    case PressureState::kBrownout:
      ++brownout_enters_;
      factor = opt.brownout_factor;
      break;
    case PressureState::kNormal:
      ++pressure_exits_;
      break;
  }
  manager_.SetPeriodicCadence(factor, opt.default_staleness_factor);
}

}  // namespace pipes
