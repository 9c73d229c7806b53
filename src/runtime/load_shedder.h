/// \file load_shedder.h
/// \brief Load shedding (paper §1, motivation 2; Tatbul et al. [21]):
/// "metadata on resource allocation is necessary to apply load shedding
/// techniques with the aim to keep overall resource usage in bounds."
///
/// The shedder subscribes to the measured CPU usage of monitored operators
/// and, when their sum exceeds the configured capacity, raises the drop
/// probability of the registered shed points proportionally to the excess.

#pragma once

#include <vector>

#include "common/scheduler.h"
#include "metadata/manager.h"
#include "stream/operators/basic.h"

namespace pipes {

class OverloadGovernor;

class LoadShedder {
 public:
  struct Options {
    /// Work units per second the system may spend.
    double cpu_capacity = 1e6;
    /// Control-loop interval.
    Duration control_period = Seconds(1);
    /// Per-step decay of the drop probability while under capacity.
    double relax_step = 0.05;
    /// Upper bound of the drop probability.
    double max_drop = 0.95;
    /// Per-step increase of the drop probability during a QoS violation.
    double qos_step = 0.1;
    /// Per-step increase while the watched overload governor reports
    /// kBrownout; any non-normal pressure state also suppresses relaxation.
    /// 0 disables the pressure input entirely (default — CPU and QoS behave
    /// as before).
    double pressure_step = 0.0;
  };

  LoadShedder(MetadataManager& manager, TaskScheduler& scheduler,
              Options options);
  ~LoadShedder();

  LoadShedder(const LoadShedder&) = delete;
  LoadShedder& operator=(const LoadShedder&) = delete;

  /// Adds an operator whose measured CPU usage counts against the capacity.
  Status MonitorLoad(OperatorNode& op);

  /// Adds a sink whose QoS must hold: when its measured processing latency
  /// exceeds its QoS maximum latency (both metadata items), shedding
  /// increases until the violation clears. This is the paper's query-level
  /// QoS specification driving a runtime adaptation.
  Status MonitorQos(SinkNode& sink);

  /// Takes `governor`'s pressure state as a third raise signal (see
  /// Options::pressure_step). The caller keeps `governor` alive for the
  /// shedder's lifetime.
  void WatchPressure(const OverloadGovernor& governor);

  /// Adds a drop operator the shedder may actuate.
  void AddShedPoint(RandomDropOperator& drop);

  void Start();
  void Stop();

  /// One control decision (public for deterministic harnesses).
  void ControlStep();

  /// Total measured CPU usage at the last step.
  double last_load() const { return last_load_; }

  /// Worst latency/limit ratio across QoS-monitored sinks at the last step
  /// (<= 1 means all QoS specifications hold).
  double last_qos_ratio() const { return last_qos_ratio_; }

  /// Drop probability applied at the last step.
  double current_drop() const { return current_drop_; }

  uint64_t activation_count() const { return activations_; }

 private:
  struct QosWatch {
    MetadataSubscription latency;
    MetadataSubscription limit;
  };

  MetadataManager& manager_;
  TaskScheduler& scheduler_;
  Options options_;
  std::vector<MetadataSubscription> loads_;
  std::vector<QosWatch> qos_;
  std::vector<RandomDropOperator*> shed_points_;
  const OverloadGovernor* pressure_ = nullptr;
  TaskHandle task_;
  double last_load_ = 0.0;
  double last_qos_ratio_ = 0.0;
  double current_drop_ = 0.0;
  uint64_t activations_ = 0;
};

}  // namespace pipes
