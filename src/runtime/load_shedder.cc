#include "runtime/load_shedder.h"

#include <algorithm>

#include "runtime/overload_governor.h"

namespace pipes {

LoadShedder::LoadShedder(MetadataManager& manager, TaskScheduler& scheduler,
                         Options options)
    : manager_(manager), scheduler_(scheduler), options_(options) {}

LoadShedder::~LoadShedder() { Stop(); }

Status LoadShedder::MonitorLoad(OperatorNode& op) {
  Result<MetadataSubscription> sub = manager_.Subscribe(op, keys::kCpuUsage);
  if (!sub.ok()) return sub.status();
  loads_.push_back(std::move(sub.value()));
  return Status::OK();
}

Status LoadShedder::MonitorQos(SinkNode& sink) {
  Result<MetadataSubscription> latency =
      manager_.Subscribe(sink, keys::kProcessingLatency);
  if (!latency.ok()) return latency.status();
  Result<MetadataSubscription> limit =
      manager_.Subscribe(sink, keys::kQosMaxLatency);
  if (!limit.ok()) return limit.status();
  qos_.push_back(
      QosWatch{std::move(latency.value()), std::move(limit.value())});
  return Status::OK();
}

void LoadShedder::WatchPressure(const OverloadGovernor& governor) {
  pressure_ = &governor;
}

void LoadShedder::AddShedPoint(RandomDropOperator& drop) {
  shed_points_.push_back(&drop);
}

void LoadShedder::Start() {
  Stop();
  task_ = scheduler_.SchedulePeriodic(options_.control_period,
                                      [this] { ControlStep(); });
}

void LoadShedder::Stop() { task_.Cancel(); }

void LoadShedder::ControlStep() {
  double load = 0.0;
  for (const MetadataSubscription& sub : loads_) {
    load += sub.GetDouble();
  }
  last_load_ = load;

  // QoS check: worst latency/limit ratio over the monitored queries.
  double qos_ratio = 0.0;
  for (const QosWatch& watch : qos_) {
    MetadataValue latency = watch.latency.Get();
    double limit = watch.limit.GetDouble();
    if (latency.is_null() || limit <= 0.0) continue;
    qos_ratio = std::max(qos_ratio, latency.AsDouble() / limit);
  }
  last_qos_ratio_ = qos_ratio;

  bool over_cpu = load > options_.cpu_capacity;
  bool qos_violated = qos_ratio > 1.0;
  // Metadata pressure as a third raise signal: brownout raises the drop
  // probability, and any non-normal state suppresses relaxation — shedding
  // must not unwind while the metadata layer is still degraded.
  PressureState pressure =
      pressure_ != nullptr ? pressure_->state() : PressureState::kNormal;
  bool pressure_raises = options_.pressure_step > 0.0 &&
                         pressure == PressureState::kBrownout;
  bool pressure_holds = options_.pressure_step > 0.0 &&
                        pressure != PressureState::kNormal;

  // Control-law ordering: relax runs first, only while every signal is
  // healthy, and clamps at zero *before* any raise applies. A raise must
  // start from the clamped value — otherwise a tick where one signal
  // relaxes while another raises would subtract relax_step below zero and
  // silently eat part (or all) of the raise.
  bool any_raise = over_cpu || qos_violated || pressure_raises;
  if (!any_raise && !pressure_holds) {
    // Relax gradually while healthy.
    current_drop_ = std::max(0.0, current_drop_ - options_.relax_step);
  }
  if (any_raise) {
    if (current_drop_ == 0.0) ++activations_;
    if (over_cpu) {
      // Shed the fraction of input needed to come back to capacity.
      double target =
          std::min(options_.max_drop, 1.0 - options_.cpu_capacity / load);
      current_drop_ = std::max(current_drop_, target);
    }
    if (qos_violated) {
      // Latency over the QoS limit: shed more until the backlog drains.
      current_drop_ =
          std::min(options_.max_drop, current_drop_ + options_.qos_step);
    }
    if (pressure_raises) {
      current_drop_ =
          std::min(options_.max_drop, current_drop_ + options_.pressure_step);
    }
  }
  for (RandomDropOperator* p : shed_points_) {
    p->set_drop_probability(current_drop_);
  }
}

}  // namespace pipes
