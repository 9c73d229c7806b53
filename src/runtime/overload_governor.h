/// \file overload_governor.h
/// \brief The metadata overload governor: a runtime consumer (paper §1,
/// motivation 2) that watches the scheduler's overload signal and, under
/// sustained pressure, stretches the cadence of every periodic metadata item
/// through MetadataManager::SetPeriodicCadence.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/mutex.h"
#include "common/scheduler.h"
#include "common/thread_annotations.h"
#include "metadata/manager.h"

namespace pipes {

/// \brief Pressure state of the overload governor — a brownout state machine
/// in the style of the handler health machine (kHealthy -> kDegraded ->
/// kQuarantined).
///
/// kNormal: maintenance runs at declared cadences. kPressured: the scheduler
/// reported sustained overload; periodic cadences are stretched by a first,
/// moderate factor. kBrownout: overload persisted; cadences are stretched
/// deeper — but never beyond each item's staleness bound, so consumers keep
/// a predictable freshness floor. Transitions are hysteretic (consecutive
/// governor ticks, not instantaneous signals) and recovery steps down one
/// state at a time.
enum class PressureState {
  kNormal = 0,
  kPressured = 1,
  kBrownout = 2,
};

/// Human-readable name of a pressure state.
const char* PressureStateToString(PressureState s);

/// \brief Tuning of the overload governor.
struct OverloadControlOptions {
  /// Cadence of the governor's pressure evaluation.
  Duration governor_period = 100 * kMicrosPerMilli;
  /// Period-stretch factor applied in kPressured.
  double pressured_factor = 2.0;
  /// Period-stretch factor applied in kBrownout.
  double brownout_factor = 4.0;
  /// Consecutive overloaded ticks in kNormal before entering kPressured.
  int ticks_to_pressure = 2;
  /// Consecutive overloaded ticks in kPressured before entering kBrownout.
  int ticks_to_brownout = 4;
  /// Consecutive calm ticks before stepping one state toward kNormal
  /// (hysteresis: recovery is gradual, re-entry needs fresh evidence).
  int ticks_to_recover = 3;
  /// Staleness cap for items without an explicit WithMaxStaleness bound:
  /// the stretched period never exceeds this multiple of the base period.
  double default_staleness_factor = 8.0;
};

/// Transition counters of the governor's state machine.
struct OverloadGovernorStats {
  PressureState state = PressureState::kNormal;  ///< current state (gauge)
  uint64_t pressure_enters = 0;  ///< transitions kNormal -> kPressured
  uint64_t brownout_enters = 0;  ///< transitions into kBrownout
  uint64_t pressure_exits = 0;   ///< full recoveries back to kNormal
};

/// \brief Periodic governor driving the kNormal -> kPressured -> kBrownout
/// machine for one metadata manager.
///
/// Construction arms the governor tick on `scheduler`; destruction cancels
/// it and restores every periodic cadence to its base period. Cadence
/// counters (stretches, restores, stretched items) are the manager's, since
/// the manager applies the cadence — also to items included later.
/// LoadShedder::WatchPressure and MetadataMonitor::WatchPressure consume the
/// state. `manager` and `scheduler` must outlive the governor. Thread
/// safety: all public methods are safe to call concurrently.
class OverloadGovernor {
 public:
  OverloadGovernor(MetadataManager& manager, TaskScheduler& scheduler,
                   OverloadControlOptions options = {});
  ~OverloadGovernor();

  OverloadGovernor(const OverloadGovernor&) = delete;
  OverloadGovernor& operator=(const OverloadGovernor&) = delete;

  /// Current state of the pressure machine (lock-free).
  PressureState state() const {
    return static_cast<PressureState>(state_.load(std::memory_order_acquire));
  }

  /// \brief Test seam: replaces the overload input with `probe` (called once
  /// per governor tick; true = overloaded). Pass nullptr to return to the
  /// scheduler signal. Deterministic tests under VirtualTimeScheduler need
  /// this — virtual time has no natural lateness.
  void SetPressureProbe(std::function<bool()> probe);

  OverloadGovernorStats stats() const;

 private:
  /// One governor tick: sample the pressure signal, advance the state
  /// machine, apply the state's cadence factor on transitions.
  void Tick();

  MetadataManager& manager_;
  TaskScheduler& scheduler_;
  const OverloadControlOptions options_;
  mutable Mutex mu_{"OverloadGovernor::mu", lockorder::kRankOverloadGovernor};
  std::function<bool()> probe_ PIPES_GUARDED_BY(mu_);
  TaskHandle task_ PIPES_GUARDED_BY(mu_);
  int hot_ticks_ PIPES_GUARDED_BY(mu_) = 0;
  int cool_ticks_ PIPES_GUARDED_BY(mu_) = 0;
  uint64_t pressure_enters_ PIPES_GUARDED_BY(mu_) = 0;
  uint64_t brownout_enters_ PIPES_GUARDED_BY(mu_) = 0;
  uint64_t pressure_exits_ PIPES_GUARDED_BY(mu_) = 0;
  /// Atomic mirror of the machine state so state() is lock-free.
  std::atomic<int> state_{0};
};

}  // namespace pipes
