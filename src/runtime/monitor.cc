#include "runtime/monitor.h"

#include <ostream>

#include "metadata/persistence.h"
#include "runtime/overload_governor.h"

namespace pipes {

MetadataMonitor::MetadataMonitor(MetadataManager& manager,
                                 TaskScheduler& scheduler)
    : manager_(manager), scheduler_(scheduler) {}

MetadataMonitor::~MetadataMonitor() { StopSampling(); }

Status MetadataMonitor::Watch(MetadataProvider& provider,
                              const MetadataKey& key,
                              std::string series_name) {
  return WatchInternal(provider, key, std::move(series_name),
                       SampleKind::kValue, "");
}

Status MetadataMonitor::WatchHealth(MetadataProvider& provider,
                                    const MetadataKey& key,
                                    std::string series_name) {
  return WatchInternal(provider, key, std::move(series_name),
                       SampleKind::kHealth, ":health");
}

Status MetadataMonitor::WatchStaleness(MetadataProvider& provider,
                                       const MetadataKey& key,
                                       std::string series_name) {
  return WatchInternal(provider, key, std::move(series_name),
                       SampleKind::kStaleness, ":staleness");
}

Status MetadataMonitor::WatchPressure(const OverloadGovernor& governor,
                                      std::string series_name) {
  if (series_name.empty()) series_name = "metadata:pressure";
  MutexLock lock(mu_);
  if (watched_.count(series_name) > 0) {
    return Status::AlreadyExists("series already watched: " + series_name);
  }
  Watched w;
  w.kind = SampleKind::kPressure;
  w.governor = &governor;
  series_[series_name];  // ensure the series exists
  watched_.emplace(std::move(series_name), std::move(w));
  return Status::OK();
}

Status MetadataMonitor::WatchDurability(std::string series_name) {
  if (series_name.empty()) series_name = "metadata:durability";
  MutexLock lock(mu_);
  if (watched_.count(series_name) > 0) {
    return Status::AlreadyExists("series already watched: " + series_name);
  }
  Watched w;
  w.kind = SampleKind::kDurability;
  series_[series_name];  // ensure the series exists
  watched_.emplace(std::move(series_name), std::move(w));
  return Status::OK();
}

Status MetadataMonitor::WatchPeerHealth(RemoteMetadataProvider& remote,
                                        std::string series_name) {
  return WatchPeer(remote, std::move(series_name), SampleKind::kPeerHealth,
                   ":peer_health");
}

Status MetadataMonitor::WatchPeerLag(RemoteMetadataProvider& remote,
                                     std::string series_name) {
  return WatchPeer(remote, std::move(series_name), SampleKind::kPeerLag,
                   ":peer_lag");
}

Status MetadataMonitor::WatchPeer(RemoteMetadataProvider& remote,
                                  std::string series_name, SampleKind kind,
                                  const char* default_suffix) {
  if (series_name.empty()) {
    series_name = remote.remote_label() + default_suffix;
  }
  MutexLock lock(mu_);
  if (watched_.count(series_name) > 0) {
    return Status::AlreadyExists("series already watched: " + series_name);
  }
  Watched w;
  w.kind = kind;
  w.remote = &remote;
  series_[series_name];  // ensure the series exists
  watched_.emplace(std::move(series_name), std::move(w));
  return Status::OK();
}

Status MetadataMonitor::WatchInternal(MetadataProvider& provider,
                                      const MetadataKey& key,
                                      std::string series_name, SampleKind kind,
                                      const char* default_suffix) {
  if (series_name.empty()) {
    series_name = provider.label() + "." + key + default_suffix;
  }
  Result<MetadataSubscription> sub = manager_.Subscribe(provider, key);
  if (!sub.ok()) return sub.status();
  MutexLock lock(mu_);
  if (watched_.count(series_name) > 0) {
    return Status::AlreadyExists("series already watched: " + series_name);
  }
  watched_.emplace(series_name, Watched{std::move(sub.value()), kind});
  series_[series_name];  // ensure the series exists
  return Status::OK();
}

Status MetadataMonitor::Unwatch(const std::string& series_name) {
  MutexLock lock(mu_);
  if (watched_.erase(series_name) == 0) {
    return Status::NotFound("series not watched: " + series_name);
  }
  return Status::OK();
}

void MetadataMonitor::StartSampling(Duration interval) {
  StopSampling();
  sampling_task_ =
      scheduler_.SchedulePeriodic(interval, [this] { SampleOnce(); });
}

void MetadataMonitor::StopSampling() { sampling_task_.Cancel(); }

void MetadataMonitor::SampleOnce() {
  Timestamp now = scheduler_.clock().Now();
  MutexLock lock(mu_);
  for (auto& [name, watched] : watched_) {
    switch (watched.kind) {
      case SampleKind::kValue: {
        MetadataValue v = watched.subscription.Get();
        if (!v.is_null()) {
          series_[name].Record(now, v.AsDouble());
        }
        break;
      }
      case SampleKind::kHealth: {
        const auto& h = watched.subscription.handler();
        if (h != nullptr) {
          series_[name].Record(now, static_cast<double>(h->health()));
        }
        break;
      }
      case SampleKind::kStaleness: {
        const auto& h = watched.subscription.handler();
        if (h != nullptr) {
          series_[name].Record(now, ToSeconds(h->staleness(now)));
        }
        break;
      }
      case SampleKind::kPressure: {
        series_[name].Record(
            now, static_cast<double>(watched.governor->state()));
        break;
      }
      case SampleKind::kDurability: {
        MetadataDurability* d = manager_.durability();
        series_[name].Record(
            now, d != nullptr ? static_cast<double>(d->stats().journal_records)
                              : 0.0);
        break;
      }
      case SampleKind::kPeerHealth: {
        series_[name].Record(
            now, static_cast<double>(watched.remote->health()));
        break;
      }
      case SampleKind::kPeerLag: {
        series_[name].Record(now, ToSeconds(watched.remote->lag(now)));
        break;
      }
    }
  }
}

const TimeSeries& MetadataMonitor::series(const std::string& name) const {
  static const TimeSeries kEmpty;
  MutexLock lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second;
}

std::vector<std::string> MetadataMonitor::series_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

void MetadataMonitor::ExportCsv(std::ostream& out) const {
  MutexLock lock(mu_);
  out << "time_s,series,value\n";
  for (const auto& [name, series] : series_) {
    for (const auto& [t, v] : series.points()) {
      out << ToSeconds(t) << "," << name << "," << v << "\n";
    }
  }
}

double MetadataMonitor::LastValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end() || it->second.empty()) return 0.0;
  return it->second.points().back().second;
}

}  // namespace pipes
