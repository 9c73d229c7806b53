/// \file recovery.cpp
/// \brief Crash recovery walkthrough: journal + checkpoint, a simulated
/// crash, and a second "process" that rebuilds the metadata graph from disk.
///
/// Process one defines a small sensor topology (a static calibration, an
/// on-demand rate, a periodic average), enables durability with per-record
/// fsync, commits values, checkpoints, and stops journaling before its
/// teardown (DisableDurability — the documented way to preserve durable
/// state; letting the provider destruct while journaling would record a
/// clean `kProviderGone` teardown, telling recovery to forget its items).
/// From the on-disk files' point of view the result is identical to a
/// crash right after the last committed record; the fork()-based crash
/// matrix in tests/metadata/durability_test.cc kills a live process at
/// every fsync/rename window to prove that too.
/// Process two starts from nothing, calls
/// MetadataManager::RecoverFrom, and immediately serves the last-known-good
/// values with real staleness; the periodic item comes back as a *shell*
/// (its evaluator was code and could not be persisted) that degrades
/// gracefully until the application re-defines it — which the example then
/// does, showing live values resume.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/journal.h"
#include "metadata/handler.h"
#include "metadata/manager.h"
#include "metadata/persistence.h"
#include "metadata/provider.h"

using namespace pipes;

namespace {

class SensorProvider final : public MetadataProvider {
 public:
  using MetadataProvider::MetadataProvider;
};

std::string TempDurabilityDir() {
  char tmpl[] = "/tmp/pipes_recovery_example_XXXXXX";
  char* p = ::mkdtemp(tmpl);
  return p != nullptr ? std::string(p) : std::string("/tmp/pipes_recovery");
}

}  // namespace

int main() {
  const std::string dir = TempDurabilityDir();
  std::printf("durability directory: %s\n\n", dir.c_str());

  // ------------------------------------------------------------------
  // Process one: run with durability on, then "crash".
  // ------------------------------------------------------------------
  {
    VirtualClock clock;
    clock.set_wall_anchor(1'000'000'000);  // pretend wall time, for the demo
    VirtualTimeScheduler scheduler(&clock);
    MetadataManager manager(scheduler);
    SensorProvider sensor("sensor");

    (void)sensor.metadata_registry().Define(
        MetadataDescriptor::Static("calibration", 0.98));
    (void)sensor.metadata_registry().Define(
        MetadataDescriptor::OnDemand("rate").WithEvaluator(
            [](EvalContext& ctx) {
              return MetadataValue(120.0 + double(ctx.eval_index()));
            }));
    (void)sensor.metadata_registry().Define(
        MetadataDescriptor::Periodic("avg-rate", Millis(100))
            .WithEvaluator([](EvalContext& ctx) {
              double prev =
                  ctx.Previous().is_null() ? 120.0 : ctx.Previous().AsDouble();
              return MetadataValue(0.9 * prev + 12.5);
            })
            .WithMaxStaleness(Seconds(1)));

    DurabilityConfig cfg;
    cfg.dir = dir;
    cfg.fsync_policy = FsyncPolicy::kEveryRecord;
    cfg.checkpoint_period = Millis(250);
    Status st = manager.EnableDurability(cfg, {&sensor});
    if (!st.ok()) {
      std::printf("EnableDurability failed: %s\n", st.ToString().c_str());
      return 1;
    }

    auto cal = manager.Subscribe(sensor, "calibration").value();
    auto rate = manager.Subscribe(sensor, "rate").value();
    auto avg = manager.Subscribe(sensor, "avg-rate").value();
    scheduler.RunFor(Millis(600));  // periodic refreshes + two checkpoints
    std::printf("process 1: calibration=%.2f rate=%.1f avg=%.1f\n",
                cal.GetDouble(), rate.GetDouble(), avg.GetDouble());

    DurabilityStats stats = manager.durability()->stats();
    std::printf(
        "process 1: journal_records=%llu journal_fsyncs=%llu "
        "checkpoints=%llu generation=%llu\n\n",
        (unsigned long long)stats.journal_records,
        (unsigned long long)stats.fsyncs,
        (unsigned long long)stats.checkpoints,
        (unsigned long long)stats.current_generation);

    // Stop journaling *before* teardown so the subscriptions and the
    // provider dying below are not recorded as a clean shutdown. On disk
    // this is indistinguishable from a crash right after the last
    // committed record (kEveryRecord: everything is already fsynced).
    manager.DisableDurability();
  }

  // ------------------------------------------------------------------
  // Process two: recover from disk.
  // ------------------------------------------------------------------
  VirtualClock clock;
  clock.set_wall_anchor(1'003'000'000);  // rebooted 3 s of wall time later
  VirtualTimeScheduler scheduler(&clock);
  MetadataManager manager(scheduler);
  SensorProvider sensor("sensor");

  auto recovered = manager.RecoverFrom(dir, {&sensor});
  if (!recovered.ok()) {
    std::printf("RecoverFrom failed: %s\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  RecoveryReport report = std::move(recovered).value();
  std::printf("process 2: recovered in %lld us from snapshot generation %llu\n",
              (long long)report.recovery_duration,
              (unsigned long long)report.snapshot_generation);
  std::printf(
      "process 2: definitions=%llu (shells=%llu) subscriptions=%llu "
      "values=%llu replayed=%llu corrupt=%llu torn_bytes=%llu\n",
      (unsigned long long)report.definitions_restored,
      (unsigned long long)report.shells_defined,
      (unsigned long long)report.subscriptions_restored,
      (unsigned long long)report.values_restored,
      (unsigned long long)report.journal_records_replayed,
      (unsigned long long)report.corrupt_records_skipped,
      (unsigned long long)report.torn_bytes_truncated);

  auto cal = manager.Subscribe(sensor, "calibration").value();
  auto avg = manager.Subscribe(sensor, "avg-rate").value();
  std::printf(
      "process 2: calibration=%.2f avg=%.1f (last known good, %.1f s stale "
      "across the restart)\n",
      cal.GetDouble(), avg.GetDouble(),
      double(avg.handler()->staleness(clock.Now())) / kMicrosPerSecond);

  // The shell degrades through fault containment while its evaluator is
  // missing...
  scheduler.RunFor(Millis(300));
  std::printf("process 2: shell health after 300 ms: %s (value still %.1f)\n",
              HandlerHealthToString(avg.handler()->health()),
              avg.GetDouble());

  // ...until the application re-defines the item. Redefinition requires the
  // item to be excluded, so release every recovered handle on it first.
  avg.Reset();
  report.subscriptions.clear();
  Status redefined = sensor.metadata_registry().DefineOrRedefine(
      MetadataDescriptor::Periodic("avg-rate", Millis(100))
          .WithEvaluator([](EvalContext& ctx) {
            double prev =
                ctx.Previous().is_null() ? 120.0 : ctx.Previous().AsDouble();
            return MetadataValue(0.9 * prev + 12.5);
          })
          .WithMaxStaleness(Seconds(1)));
  if (!redefined.ok()) {
    std::printf("re-definition failed: %s\n", redefined.ToString().c_str());
    return 1;
  }
  auto live = manager.Subscribe(sensor, "avg-rate").value();
  scheduler.RunFor(Millis(300));
  std::printf("process 2: after re-definition: health=%s avg=%.1f\n",
              HandlerHealthToString(live.handler()->health()),
              live.GetDouble());
  return 0;
}
