/// End-to-end metadata-cost benchmark on the real-time StreamEngine
/// (ThreadPoolScheduler + SystemClock).
///
///   e2e_metadata_cost --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                     [--trace-dir <dir>] [--corrupt <check>]
///
/// Workloads (see README.md for the make-up of each):
///   join_tailored      Figure 3 joins fed by one generator thread; the
///                      paper's four consumers attached.
///   join_maintain_all  the same, with every item of every node subscribed.
///   estimate_waves     metadata only: window-resize waves through the
///                      Figure 3 estimates, a concurrent reader, and churn.
///   join_metadata_off  reference only: the join input with no consumers and
///                      no subscriptions on the data path.
/// Every workload also runs an open-loop churn thread that subscribes to
/// est_cpu_usage on a pool of otherwise idle plans and resets the
/// subscription again.
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). --corrupt join|formula|reader|glitch corrupts one
/// expectation so that the named check must fail (self-test).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.h"
#include "metadata/keys.h"
#include "metadata/manager.h"
#include "plans.h"
#include "runtime/load_shedder.h"
#include "runtime/monitor.h"
#include "runtime/optimizer.h"
#include "runtime/resource_manager.h"
#include "stream/engine.h"
#include "trace.h"

namespace e2e {
namespace {

using pipes::Millis;
using SteadyClock = std::chrono::steady_clock;

// --- Workload parameters (README.md "Inputs") ---------------------------------

constexpr int kJoinPlans = 4;
constexpr int64_t kJoinKeys = 10000;
constexpr Duration kJoinWindow = pipes::kMicrosPerSecond;
constexpr Duration kJoinInterval = 50;  // 20,000 elements/s per source
constexpr Duration kMetadataPeriod = Millis(100);
constexpr Duration kConsumerPeriod = Millis(100);
constexpr int kPlansPerResizer = 8;
constexpr int kChurnPoolPlans = 16;
constexpr double kChurnPerSecond = 100.0;
constexpr int64_t kChurnSpinNs = 500'000;
constexpr int kWindowSetSize = 8;
constexpr int kSetups = 15;
constexpr double kWarmupSeconds = 0.5;
constexpr double kRoundSeconds = 0.5;
constexpr size_t kSamplesPerRound = size_t{1} << 16;
constexpr size_t kMaxSpansPerThread = size_t{1} << 18;
/// A window-resize wave refreshes est_element_validity, est_state_size and
/// est_cpu_usage of its plan: each at most once per wave.
constexpr uint64_t kResizeClosure = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// "<prefix><i>"; spelled out because GCC 12 warns (-Wrestrict, a false
/// positive) on `"literal" + std::to_string(i)`.
std::string Name(const char* prefix, size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

size_t HostThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// --- Arguments -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  std::string corrupt;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      out->workload = v;
    } else if (k == "--seed") {
      out->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      out->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      out->trace = v == "1";
    } else if (k == "--trace-dir") {
      out->trace_dir = v;
    } else if (k == "--corrupt") {
      out->corrupt = v;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  static const char* const kWorkloads[] = {"join_tailored", "join_maintain_all",
                                           "estimate_waves",
                                           "join_metadata_off"};
  bool known = false;
  for (const char* w : kWorkloads) known = known || out->workload == w;
  static const char* const kChecks[] = {"", "join", "formula", "reader",
                                        "glitch"};
  bool check_ok = false;
  for (const char* c : kChecks) check_ok = check_ok || out->corrupt == c;
  return known && check_ok && out->seconds > 0;
}

// --- Operation accounting ----------------------------------------------------------

enum OpKind { kPush, kResize, kRead, kSubscribe, kUnsubscribe, kCheck, kOpKinds };
const char* const kOpNames[kOpKinds] = {"pushes",    "resize events",
                                        "reads",     "subscribes",
                                        "unsubscribes", "checks"};

/// Per-thread operation counters, merged after the thread is joined.
struct OpCounts {
  uint64_t attempted[kOpKinds] = {};
  uint64_t failed[kOpKinds] = {};
  void Count(OpKind k, bool ok) {
    ++attempted[k];
    if (!ok) ++failed[k];
  }
  void Merge(const OpCounts& o) {
    for (int k = 0; k < kOpKinds; ++k) {
      attempted[k] += o.attempted[k];
      failed[k] += o.failed[k];
    }
  }
};

/// Correctness failures: counted in full, the first few kept for the log.
struct CheckLog {
  uint64_t failures = 0;
  std::vector<std::string> first;
  void Fail(std::string msg) {
    if (++failures <= 5) first.push_back(std::move(msg));
  }
  void Merge(const CheckLog& o) {
    failures += o.failures;
    for (const auto& m : o.first) {
      if (first.size() < 10) first.push_back(m);
    }
  }
};

// --- Latency samples -------------------------------------------------------------

/// Fixed-capacity uniform sample of latencies (reservoir sampling). The
/// buffer is allocated and touched up front, so peak RSS does not grow with
/// the number of operations a faster program completes.
class Reservoir {
 public:
  Reservoir() : buf_(kSamplesPerRound, 0), rng_(0x5EED) {}
  void Add(int64_t ns) {
    uint32_t v = static_cast<uint32_t>(
        std::clamp<int64_t>(ns, 0, int64_t{UINT32_MAX}));
    if (seen_ < buf_.size()) {
      buf_[seen_] = v;
    } else {
      uint64_t j = rng_.Next() % (seen_ + 1);
      if (j < buf_.size()) buf_[j] = v;
    }
    ++seen_;
  }
  void AppendTo(std::vector<uint32_t>* out) const {
    out->insert(out->end(), buf_.begin(),
                buf_.begin() + static_cast<ptrdiff_t>(
                                   std::min<uint64_t>(seen_, buf_.size())));
  }

 private:
  std::vector<uint32_t> buf_;
  uint64_t seen_ = 0;
  SeededRng rng_;
};

/// q-quantile (nearest rank) of `v` in microseconds; reorders `v`.
double QuantileUs(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void PrintSetups(const std::vector<double>& setup_s) {
  std::printf("set-ups [s]:");
  for (double s : setup_s) std::printf(" %.6f", s);
  std::printf("\n");
}

/// Measurement schedule: warm-up, then rounds of kRoundSeconds. End-to-end
/// figures are medians over the rounds: many short rounds keep a few seconds
/// of host noise from moving the median.
struct Schedule {
  int rounds;
  double round_s;
  explicit Schedule(double seconds)
      : rounds(std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)))),
        round_s(seconds / rounds) {}
};

/// Phase shared by the measuring threads: -1 warm-up, 0..rounds-1 a round,
/// rounds = stop.
class Phase {
 public:
  int Get() const { return phase_.load(std::memory_order_relaxed); }
  void Set(int p) { phase_.store(p, std::memory_order_relaxed); }

 private:
  std::atomic<int> phase_{-1};
};

/// Main thread: warm up, step through the rounds, and record each round's
/// wall-clock length.
std::vector<double> DriveRounds(Phase& phase, const Schedule& sched) {
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(kWarmupSeconds);
  std::vector<double> lengths;
  for (int r = 0; r < sched.rounds; ++r) {
    int64_t t0 = NowNs();
    phase.Set(r);
    sleep_s(sched.round_s);
    lengths.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  phase.Set(sched.rounds);
  return lengths;
}

// --- Churn ---------------------------------------------------------------------------

/// Open-loop subscription churn: at a fixed rate, subscribe to est_cpu_usage
/// of the next pool plan (a full Figure 3 inclusion), check its first value
/// against the formula, and reset the subscription (exclusion). Latency is
/// timed from the due time, so a stalled subscribe delays the next ones.
struct Churn {
  pipes::MetadataManager* manager = nullptr;
  std::vector<EstimatePlan>* pool = nullptr;
  bool corrupt_formula = false;

  OpCounts ops;
  CheckLog log;
  std::vector<uint32_t> subscribe_ns;  // measured rounds only
  uint64_t cycles = 0;                 // whole run
  double lateness_sum_us = 0.0;

  void Run(const Phase& phase, int stop_phase) {
    const int64_t period_ns = static_cast<int64_t>(1e9 / kChurnPerSecond);
    const int64_t start = NowNs();
    for (uint64_t k = 0;; ++k) {
      int64_t due = start + static_cast<int64_t>(k) * period_ns;
      // Sleep to shortly before the due time, then spin until it: a plain
      // sleep wakes 100-200 us late on a busy host, and a yielding wait can
      // lose the CPU for a whole time slice; either delay would be charged
      // to the subscription.
      for (int64_t left = due - NowNs(); left > kChurnSpinNs;
           left = due - NowNs()) {
        if (phase.Get() >= stop_phase) return;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(left - kChurnSpinNs, 2'000'000)));
      }
      while (NowNs() < due) {
      }
      int p = phase.Get();
      if (p >= stop_phase) return;
      lateness_sum_us += static_cast<double>(NowNs() - due) / 1e3;
      ++cycles;
      EstimatePlan& ep = (*pool)[k % pool->size()];
      pipes::Result<pipes::MetadataSubscription> sub =
          pipes::Status::Internal("not run");
      {
        Span span(SpanKind::kMetadataSubscribe);
        sub = manager->Subscribe(*ep.plan.join, pipes::keys::kEstCpuUsage);
      }
      int64_t subscribed = NowNs();
      ops.Count(kSubscribe, sub.ok());
      if (!sub.ok()) {
        log.Fail("churn subscribe failed: " + sub.status().ToString());
        continue;
      }
      if (p >= 0) {
        subscribe_ns.push_back(static_cast<uint32_t>(
            std::min<int64_t>(subscribed - due, int64_t{UINT32_MAX})));
      }
      pipes::MetadataValue v;
      {
        Span span(SpanKind::kMetadataGet);
        v = sub.value().Get();
      }
      ops.Count(kRead, !v.is_null());
      EstimateParams want = ep.params;
      if (corrupt_formula) want.c *= 1.5;
      double expect = ExpectedCpuUsage(want, ep.w_left, ep.w_right);
      bool ok = !v.is_null() && SameEstimate(v.AsDouble(), expect);
      ops.Count(kCheck, ok);
      if (!ok) {
        log.Fail("churn first value of " + ep.plan.join->label() +
                 " est_cpu_usage " + v.ToString() + " != formula " +
                 std::to_string(expect));
      }
      {
        Span span(SpanKind::kMetadataUnsubscribe);
        sub.value().Reset();
      }
      ops.Count(kUnsubscribe, true);
    }
  }
};

std::vector<EstimatePlan> BuildChurnPool(pipes::QueryGraph& g, uint64_t seed,
                                         const std::vector<Duration>& windows) {
  SeededRng rng(seed ^ 0xC4u);
  std::vector<EstimatePlan> pool;
  for (int i = 0; i < kChurnPoolPlans; ++i) {
    pool.push_back(BuildEstimatePlan(g, Name("churn", static_cast<size_t>(i)),
                                     rng, windows));
  }
  return pool;
}

/// Seeded set of window sizes (ms granularity, 100 ms .. 5 s).
std::vector<Duration> WindowSet(uint64_t seed) {
  SeededRng rng(seed ^ 0x3171u);
  std::vector<Duration> out;
  while (out.size() < static_cast<size_t>(kWindowSetSize)) {
    Duration w = Millis(static_cast<double>(rng.Int(100, 5000)));
    if (std::find(out.begin(), out.end(), w) == out.end()) out.push_back(w);
  }
  return out;
}

// --- Results -----------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Outcome {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  OpCounts ops;
  CheckLog log;
};

struct StatsWindow {
  pipes::MetadataManagerStats m0, m1;
  pipes::SchedulerStats s0, s1;
};

/// Per-layer metrics shared by all workloads: span totals plus manager and
/// scheduler stats deltas over the driven phase (warm-up + rounds).
void AddLayerMetrics(Outcome* out, const StatsWindow& w, double driven_s,
                     uint64_t churn_subscribes, double churn_lateness_us,
                     const std::vector<uint32_t>& churn_latencies) {
  std::vector<SpanTotals> spans = CollectSpanTotals();
  auto span = [&](SpanKind k) { return spans[static_cast<size_t>(k)]; };
  auto& L = out->layer;
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  L["stream.push.calls"] = {double(span(SpanKind::kStreamPush).count), "count"};
  L["stream.push.busy_us"] = {span(SpanKind::kStreamPush).busy_us, "us"};

  double evals = d(w.m0.evaluations, w.m1.evaluations);
  double waves = d(w.m0.waves, w.m1.waves);
  double refreshes = d(w.m0.wave_refreshes, w.m1.wave_refreshes);
  L["metadata.evaluations"] = {evals, "count"};
  L["metadata.evaluations_per_s"] = {ratio(evals, driven_s), "1/s"};
  L["metadata.waves"] = {waves, "count"};
  L["metadata.wave_refreshes"] = {refreshes, "count"};
  L["metadata.refreshes_per_wave"] = {ratio(refreshes, waves), "ratio"};
  L["metadata.wave_plan_hit_ratio"] = {
      ratio(d(w.m0.wave_plan_hits, w.m1.wave_plan_hits), waves), "ratio"};
  L["metadata.waves_deferred"] = {d(w.m0.waves_deferred, w.m1.waves_deferred),
                                  "count"};
  SpanTotals fire = span(SpanKind::kMetadataFireEvent);
  L["metadata.fire_event.calls"] = {double(fire.count), "count"};
  L["metadata.fire_event.busy_us"] = {fire.busy_us, "us"};
  L["metadata.ns_per_refreshed_node"] = {
      fire.count > 0 ? ratio(fire.busy_us * 1e3, refreshes) : 0.0, "ns"};
  SpanTotals sub = span(SpanKind::kMetadataSubscribe);
  L["metadata.subscribe.calls"] = {double(sub.count), "count"};
  L["metadata.subscribe.busy_us"] = {sub.busy_us, "us"};
  L["metadata.unsubscribe.busy_us"] = {
      span(SpanKind::kMetadataUnsubscribe).busy_us, "us"};
  L["metadata.handlers_per_subscribe"] = {
      ratio(d(w.m0.handlers_created, w.m1.handlers_created),
            double(churn_subscribes)),
      "ratio"};
  SpanTotals get = span(SpanKind::kMetadataGet);
  L["metadata.get.calls"] = {double(get.count), "count"};
  L["metadata.get.busy_us"] = {get.busy_us, "us"};
  L["metadata.get.per_s"] = {ratio(double(get.count), driven_s), "1/s"};
  L["metadata.active_handlers"] = {double(w.m1.active_handlers), "count"};

  double tasks = d(w.s0.tasks_run, w.s1.tasks_run);
  L["scheduler.tasks_run"] = {tasks, "count"};
  L["scheduler.mean_lateness_us"] = {
      ratio(static_cast<double>(w.s1.total_lateness - w.s0.total_lateness),
            tasks),
      "us"};
  L["scheduler.max_lateness_us"] = {static_cast<double>(w.s1.max_lateness),
                                    "us"};
  L["scheduler.tasks_stolen"] = {d(w.s0.tasks_stolen, w.s1.tasks_stolen),
                                 "count"};
  L["scheduler.cv_notifies"] = {d(w.s0.cv_notifies, w.s1.cv_notifies), "count"};
  L["scheduler.cv_notifies_skipped"] = {
      d(w.s0.cv_notifies_skipped, w.s1.cv_notifies_skipped), "count"};

  SpanTotals mon = span(SpanKind::kRuntimeMonitorSample);
  L["runtime.monitor_sample.calls"] = {double(mon.count), "count"};
  L["runtime.monitor_sample.busy_us"] = {mon.busy_us, "us"};
  L["runtime.resource_control.busy_us"] = {
      span(SpanKind::kRuntimeResourceControl).busy_us, "us"};
  L["runtime.shedder_control.busy_us"] = {
      span(SpanKind::kRuntimeShedderControl).busy_us, "us"};
  L["runtime.advisor_evaluate.busy_us"] = {
      span(SpanKind::kRuntimeAdvisorEvaluate).busy_us, "us"};

  L["churn.lateness_us"] = {ratio(churn_lateness_us, double(churn_subscribes)),
                            "us"};
  std::vector<uint32_t> lat = churn_latencies;
  L["churn.subscribe_p99_us"] = {QuantileUs(lat, 0.99), "us"};

  // Per-layer count / busy / self, from the spans named after each layer.
  std::map<std::string, SpanTotals> layers;
  for (size_t k = 0; k < spans.size(); ++k) {
    std::string name = SpanName(static_cast<SpanKind>(k));
    SpanTotals& t = layers[name.substr(0, name.find('.'))];
    t.count += spans[k].count;
    t.busy_us += spans[k].busy_us;
    t.self_us += spans[k].self_us;
  }
  for (const auto& [layer, t] : layers) {
    L[layer + ".self_us"] = {t.self_us, "us"};
  }

  std::printf("\nper-layer spans (traced run)\n");
  std::printf("  %-26s %12s %14s %14s\n", "span", "count", "busy_us", "self_us");
  for (size_t k = 0; k < spans.size(); ++k) {
    std::printf("  %-26s %12" PRIu64 " %14.1f %14.1f\n",
                SpanName(static_cast<SpanKind>(k)), spans[k].count,
                spans[k].busy_us, spans[k].self_us);
  }
  std::printf("  %-26s %12s %14s %14s\n", "layer", "count", "busy_us", "self_us");
  for (const auto& [layer, t] : layers) {
    std::printf("  %-26s %12" PRIu64 " %14.1f %14.1f\n", layer.c_str(), t.count,
                t.busy_us, t.self_us);
  }
  std::printf("  ratios: refreshes_per_wave base waves=%.0f, "
              "wave_plan_hit_ratio base waves=%.0f, handlers_per_subscribe "
              "base churn subscribes=%" PRIu64 ", ns_per_refreshed_node base "
              "wave_refreshes=%.0f\n",
              waves, waves, churn_subscribes, refreshes);
  std::printf("  spans kept in memory: %" PRIu64 ", past the per-thread bound: "
              "%" PRIu64 "\n",
              KeptSpans(), DroppedSpans());
}

/// Builds a System kSetups times, timing each construction, and keeps the
/// last one; the set-up's operations and check failures go into `out`.
template <typename System, typename... Args>
std::unique_ptr<System> SetUp(Outcome* out, std::vector<double>* setup_s,
                              const Args&... args) {
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    int64_t t0 = NowNs();
    sys = std::make_unique<System>(args...);
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    out->ops.Merge(sys->ops);
    out->log.Merge(sys->log);
  }
  return sys;
}

/// The end-to-end metrics, from per-round figures and the churn samples.
void SetEndToEnd(Outcome* out, const std::vector<double>& setup_s, double rss,
                 const std::vector<double>& tput, const std::vector<double>& p50,
                 const std::vector<double>& p99,
                 std::vector<uint32_t> subscribe_ns) {
  PrintSetups(setup_s);
  out->e2e["setup_s"] = {Median(setup_s), "s"};
  out->e2e["peak_rss_mb"] = {rss, "MB"};
  out->e2e["throughput_per_s"] = {Median(tput), "1/s"};
  out->e2e["latency_p50_us"] = {Median(p50), "us"};
  out->e2e["latency_p99_us"] = {Median(p99), "us"};
  out->e2e["subscribe_latency_p50_us"] = {QuantileUs(subscribe_ns, 0.50), "us"};
}

// --- Join workloads ------------------------------------------------------------------

enum class Provision { kOff, kTailored, kMaintainAll };

/// One complete join configuration: engine, data-path plans, consumers,
/// subscriptions, and the churn pool. Construction is the timed set-up.
struct JoinSystem {
  std::unique_ptr<pipes::StreamEngine> engine;
  std::vector<JoinPlan> plans;
  std::vector<EstimatePlan> churn_pool;
  std::unique_ptr<pipes::MetadataMonitor> monitor;
  std::unique_ptr<pipes::AdaptiveResourceManager> resources;
  std::unique_ptr<pipes::LoadShedder> shedder;
  std::unique_ptr<pipes::JoinOrderAdvisor> advisor;
  std::vector<pipes::MetadataSubscription> all_items;
  std::vector<pipes::TaskHandle> tasks;
  OpCounts ops;
  CheckLog log;

  JoinSystem(Provision provision, uint64_t seed) {
    size_t workers = std::max<size_t>(1, HostThreads() - 1);
    engine = std::make_unique<pipes::StreamEngine>(pipes::EngineMode::kRealTime,
                                                   workers, kMetadataPeriod);
    auto& g = engine->graph();
    for (int i = 0; i < kJoinPlans; ++i) {
      plans.push_back(BuildJoinPlan(g, Name("p", static_cast<size_t>(i)), kJoinWindow,
                                    static_cast<double>(kJoinKeys), 1.0));
    }
    churn_pool = BuildChurnPool(g, seed, WindowSet(seed));
    if (provision == Provision::kOff) return;

    auto& mgr = engine->metadata();
    auto& sched = engine->scheduler();
    monitor = std::make_unique<pipes::MetadataMonitor>(mgr, sched);
    pipes::AdaptiveResourceManager::Options ro;
    ro.min_window = ro.max_window = kJoinWindow;  // observe, never resize
    resources = std::make_unique<pipes::AdaptiveResourceManager>(mgr, sched, ro);
    shedder = std::make_unique<pipes::LoadShedder>(mgr, sched,
                                                   pipes::LoadShedder::Options{});
    advisor = std::make_unique<pipes::JoinOrderAdvisor>(
        mgr, sched, pipes::JoinOrderAdvisor::Options{});
    auto attach = [this](const char* what, const std::function<pipes::Status()>& fn) {
      pipes::Status st;
      {
        Span span(SpanKind::kMetadataSubscribe);
        st = fn();
      }
      ops.Count(kSubscribe, st.ok());
      if (!st.ok()) log.Fail(std::string(what) + ": " + st.ToString());
    };
    for (JoinPlan& p : plans) {
      attach("monitor", [&] { return monitor->Watch(*p.join, pipes::keys::kEstCpuUsage); });
      attach("resources", [&] {
        return resources->Manage(*p.join, {p.lwin.get(), p.rwin.get()});
      });
      attach("shedder load", [&] { return shedder->MonitorLoad(*p.join); });
      attach("shedder qos", [&] { return shedder->MonitorQos(*p.sink); });
      attach("advisor left", [&] { return advisor->AddStream(*p.left); });
      attach("advisor right", [&] { return advisor->AddStream(*p.right); });
    }
    if (provision == Provision::kMaintainAll) {
      for (JoinPlan& p : plans) {
        for (pipes::MetadataProvider* prov : p.Providers()) {
          for (const auto& key : prov->metadata_registry().AvailableKeys()) {
            pipes::Result<pipes::MetadataSubscription> sub =
                pipes::Status::Internal("not run");
            {
              Span span(SpanKind::kMetadataSubscribe);
              sub = mgr.Subscribe(*prov, key);
            }
            ops.Count(kSubscribe, sub.ok());
            if (!sub.ok()) {
              log.Fail(prov->label() + "." + key + ": " + sub.status().ToString());
              continue;
            }
            all_items.push_back(std::move(sub.value()));
          }
        }
      }
    }
    auto every = [&](SpanKind kind, std::function<void()> step) {
      tasks.push_back(sched.SchedulePeriodic(kConsumerPeriod, [kind, step] {
        Span task(SpanKind::kSchedulerTask);
        Span call(kind);
        step();
      }));
    };
    every(SpanKind::kRuntimeMonitorSample, [m = monitor.get()] { m->SampleOnce(); });
    every(SpanKind::kRuntimeResourceControl,
          [r = resources.get()] { r->ControlStep(); });
    every(SpanKind::kRuntimeShedderControl,
          [s = shedder.get()] { s->ControlStep(); });
    every(SpanKind::kRuntimeAdvisorEvaluate,
          [a = advisor.get()] { (void)a->Evaluate(); });
  }

  /// Stops the workers first: the periodic consumer steps and metadata
  /// refreshes reference the consumers and nodes torn down below.
  ~JoinSystem() {
    static_cast<pipes::ThreadPoolScheduler&>(engine->scheduler()).Shutdown();
    all_items.clear();
    advisor.reset();
    shedder.reset();
    resources.reset();
    monitor.reset();
    churn_pool.clear();
    plans.clear();
    engine.reset();
  }
  JoinSystem(const JoinSystem&) = delete;
  JoinSystem& operator=(const JoinSystem&) = delete;
};

Outcome RunJoin(const Args& args, Provision provision) {
  Outcome out;
  Schedule sched(args.seconds);
  std::vector<Reservoir> rounds(static_cast<size_t>(sched.rounds));

  // Set-up, several times; the last system is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<JoinSystem> sys =
      SetUp<JoinSystem>(&out, &setup_s, provision, args.seed);

  JoinInput input;
  input.seed = args.seed;
  input.plans = kJoinPlans;
  input.keys = kJoinKeys;
  input.window = kJoinWindow;
  input.interval = kJoinInterval;

  Churn churn;
  churn.manager = &sys->engine->metadata();
  churn.pool = &sys->churn_pool;
  churn.corrupt_formula = args.corrupt == "formula";
  Phase phase;

  StatsWindow sw;
  sw.m0 = sys->engine->metadata().stats();
  sw.s0 = sys->engine->scheduler().stats();
  int64_t driven_start = NowNs();
  std::thread churn_thread([&] { churn.Run(phase, sched.rounds); });

  // The generator: this thread, closed loop, in batches between clock reads.
  constexpr int kBatch = 256;
  uint64_t g = 0;
  Reservoir warm;
  auto push_batch = [&](Reservoir& res) {
    for (int b = 0; b < kBatch; ++b, ++g) {
      JoinInput::Element e = input.At(g);
      const JoinPlan& p = sys->plans[static_cast<size_t>(e.plan)];
      pipes::StreamElement se(
          pipes::Tuple({pipes::Value(e.key), pipes::Value(static_cast<double>(g))}),
          e.ts);
      pipes::ManualSource& src = e.side == 0 ? *p.left : *p.right;
      int64_t t0 = NowNs();
      {
        Span span(SpanKind::kStreamPush);
        src.PushElement(se);
      }
      res.Add(NowNs() - t0);
    }
  };
  int64_t warm_end = driven_start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  while (NowNs() < warm_end) push_batch(warm);
  std::vector<double> tput, p50, p99;
  for (int r = 0; r < sched.rounds; ++r) {
    phase.Set(r);
    int64_t t0 = NowNs();
    int64_t end = t0 + static_cast<int64_t>(sched.round_s * 1e9);
    uint64_t g0 = g;
    int64_t now = t0;
    while (now < end) {
      push_batch(rounds[static_cast<size_t>(r)]);
      now = NowNs();
    }
    tput.push_back(static_cast<double>(g - g0) /
                   (static_cast<double>(now - t0) / 1e9));
    std::vector<uint32_t> lat;
    rounds[static_cast<size_t>(r)].AppendTo(&lat);
    p50.push_back(QuantileUs(lat, 0.50));
    p99.push_back(QuantileUs(lat, 0.99));
  }
  phase.Set(sched.rounds);
  churn_thread.join();
  double driven_s = static_cast<double>(NowNs() - driven_start) / 1e9;
  double rss = PeakRssMb();
  sw.m1 = sys->engine->metadata().stats();
  sw.s1 = sys->engine->scheduler().stats();
  out.ops.attempted[kPush] += g;  // PushElement has no failure mode
  out.ops.Merge(churn.ops);
  out.log.Merge(churn.log);

  uint64_t results = 0, state = 0;
  std::vector<uint64_t> got;
  for (const JoinPlan& p : sys->plans) {
    got.push_back(p.sink->count());
    results += p.sink->count();
    state += p.join->StateCount();
  }
  // Quiesce the workers before tracing totals are read.
  static_cast<pipes::ThreadPoolScheduler&>(sys->engine->scheduler()).Shutdown();

  std::vector<uint64_t> want = ReferenceJoinCounts(input, g);
  if (args.corrupt == "join") want[0] += 1;
  for (size_t i = 0; i < want.size(); ++i) {
    bool ok = got[i] == want[i];
    out.ops.Count(kCheck, ok);
    if (!ok) {
      out.log.Fail("plan p" + std::to_string(i) + " sink count " +
                   std::to_string(got[i]) + " != reference " +
                   std::to_string(want[i]));
    }
  }
  std::printf("join results: %" PRIu64 " over %" PRIu64 " pushes, %zu plans "
              "checked against the reference count\n",
              results, g, want.size());

  SetEndToEnd(&out, setup_s, rss, tput, p50, p99, churn.subscribe_ns);
  std::printf("rounds: %d x %.2f s; tuples/s per round:", sched.rounds,
              sched.round_s);
  for (double t : tput) std::printf(" %.0f", t);
  std::printf("\n");

  if (args.trace) {
    AddLayerMetrics(&out, sw, driven_s, churn.cycles, churn.lateness_sum_us,
                    churn.subscribe_ns);
    out.layer["stream.join.results"] = {static_cast<double>(results), "count"};
    out.layer["stream.join.state_elements"] = {static_cast<double>(state),
                                               "count"};
  }
  sys.reset();
  return out;
}

// --- estimate_waves ------------------------------------------------------------------------

struct WaveSystem {
  std::unique_ptr<pipes::StreamEngine> engine;
  std::vector<std::vector<EstimatePlan>> resizer_plans;
  std::vector<std::vector<pipes::MetadataSubscription>> state_subs, cpu_subs;
  std::vector<EstimatePlan> churn_pool;
  std::vector<Duration> windows;
  OpCounts ops;
  CheckLog log;

  WaveSystem(uint64_t seed, size_t resizers) : windows(WindowSet(seed)) {
    engine = std::make_unique<pipes::StreamEngine>(pipes::EngineMode::kRealTime,
                                                   1, kMetadataPeriod);
    auto& g = engine->graph();
    auto& mgr = engine->metadata();
    SeededRng rng(seed ^ 0xD41u);
    resizer_plans.resize(resizers);
    state_subs.resize(resizers);
    cpu_subs.resize(resizers);
    for (size_t d = 0; d < resizers; ++d) {
      for (int i = 0; i < kPlansPerResizer; ++i) {
        resizer_plans[d].push_back(BuildEstimatePlan(
            g, Name("d", d) + Name("p", static_cast<size_t>(i)), rng, windows));
        pipes::SlidingWindowJoin& join = *resizer_plans[d].back().plan.join;
        for (auto [key, subs] : {std::pair{&pipes::keys::kEstStateSize, &state_subs[d]},
                                 std::pair{&pipes::keys::kEstCpuUsage, &cpu_subs[d]}}) {
          pipes::Result<pipes::MetadataSubscription> sub =
              pipes::Status::Internal("not run");
          {
            Span span(SpanKind::kMetadataSubscribe);
            sub = mgr.Subscribe(join, *key);
          }
          ops.Count(kSubscribe, sub.ok());
          if (!sub.ok()) {
            log.Fail(join.label() + ": " + sub.status().ToString());
            subs->emplace_back();
          } else {
            subs->push_back(std::move(sub.value()));
          }
        }
      }
    }
    churn_pool = BuildChurnPool(g, seed, windows);
  }

  ~WaveSystem() {
    static_cast<pipes::ThreadPoolScheduler&>(engine->scheduler()).Shutdown();
    state_subs.clear();
    cpu_subs.clear();
    resizer_plans.clear();
    churn_pool.clear();
    engine.reset();
  }
  WaveSystem(const WaveSystem&) = delete;
  WaveSystem& operator=(const WaveSystem&) = delete;
};

/// Counts one read of `v` and its check, whose outcome is `ok`.
void CheckValue(const pipes::MetadataValue& v, bool ok, OpCounts& ops,
                CheckLog& log, const std::string& what) {
  ops.Count(kRead, !v.is_null());
  ops.Count(kCheck, ok);
  if (!ok) log.Fail(what + " read " + v.ToString());
}

Outcome RunEstimateWaves(const Args& args) {
  Outcome out;
  Schedule sched(args.seconds);
  // One core stays idle besides the resizers, the reader and the churn
  // thread: with every core busy, losing one to another process convoys the
  // wave path (a competing CPU hog cost 31% of the events/s at nproc - 2
  // resizers on 4 cores, and nothing at nproc - 3).
  size_t resizers = HostThreads() > 4 ? HostThreads() - 3 : 1;
  std::vector<std::vector<Reservoir>> lat(resizers);
  for (auto& v : lat) v.resize(static_cast<size_t>(sched.rounds));

  std::vector<double> setup_s;
  std::unique_ptr<WaveSystem> sys =
      SetUp<WaveSystem>(&out, &setup_s, args.seed, resizers);

  Phase phase;
  const int stop = sched.rounds;
  std::vector<OpCounts> resizer_ops(resizers);
  std::vector<CheckLog> resizer_log(resizers);
  std::vector<std::vector<uint64_t>> events(
      resizers, std::vector<uint64_t>(static_cast<size_t>(sched.rounds), 0));
  OpCounts reader_ops;
  CheckLog reader_log;
  Churn churn;
  churn.manager = &sys->engine->metadata();
  churn.pool = &sys->churn_pool;
  churn.corrupt_formula = args.corrupt == "formula";
  const bool corrupt_formula = args.corrupt == "formula";
  const double reader_skew = args.corrupt == "reader" ? 1.0 + 1e-6 : 1.0;

  StatsWindow sw;
  sw.m0 = sys->engine->metadata().stats();
  sw.s0 = sys->engine->scheduler().stats();
  int64_t driven_start = NowNs();

  std::vector<std::thread> threads;
  for (size_t d = 0; d < resizers; ++d) {
    threads.emplace_back([&, d] {
      std::vector<EstimatePlan>& plans = sys->resizer_plans[d];
      const auto& windows = sys->windows;
      SeededRng rng(args.seed ^ (0xE7E47u + d));
      OpCounts& ops = resizer_ops[d];
      for (uint64_t n = 0;; ++n) {
        int p = phase.Get();
        if (p >= stop) return;
        size_t i = n % plans.size();
        EstimatePlan& ep = plans[i];
        bool left = (rng.Next() & 1) == 0;
        Duration& cur = left ? ep.w_left : ep.w_right;
        size_t wi = rng.Next() % windows.size();
        if (windows[wi] == cur) wi = (wi + 1) % windows.size();
        pipes::TimeWindowOperator& win = left ? *ep.plan.lwin : *ep.plan.rwin;
        int64_t t0 = NowNs();
        {
          Span span(SpanKind::kMetadataFireEvent);
          win.set_window_size(windows[wi]);
        }
        int64_t t1 = NowNs();
        cur = windows[wi];
        ops.Count(kResize, true);
        if (p >= 0) {
          lat[d][static_cast<size_t>(p)].Add(t1 - t0);
          ++events[d][static_cast<size_t>(p)];
        }
        EstimateParams want = ep.params;
        if (corrupt_formula) want.c *= 1.5;
        pipes::MetadataValue s, c;
        {
          Span span(SpanKind::kMetadataGet);
          s = sys->state_subs[d][i].Get();
        }
        {
          Span span(SpanKind::kMetadataGet);
          c = sys->cpu_subs[d][i].Get();
        }
        double ws = ExpectedStateSize(want, ep.w_left, ep.w_right);
        double wc = ExpectedCpuUsage(want, ep.w_left, ep.w_right);
        std::string label = ep.plan.join->label();
        CheckValue(s, !s.is_null() && SameEstimate(s.AsDouble(), ws), ops,
                   resizer_log[d], label + " est_state_size after resize, want " +
                                      std::to_string(ws));
        CheckValue(c, !c.is_null() && SameEstimate(c.AsDouble(), wc), ops,
                   resizer_log[d], label + " est_cpu_usage after resize, want " +
                                      std::to_string(wc));
      }
    });
  }
  std::vector<uint64_t> reads(static_cast<size_t>(sched.rounds), 0);
  threads.emplace_back([&] {
    for (;;) {
      for (size_t d = 0; d < resizers; ++d) {
        for (size_t i = 0; i < sys->resizer_plans[d].size(); ++i) {
          int p = phase.Get();
          if (p >= stop) return;
          const EstimatePlan& ep = sys->resizer_plans[d][i];
          pipes::MetadataValue s, c;
          {
            Span span(SpanKind::kMetadataGet);
            s = sys->state_subs[d][i].Get();
          }
          {
            Span span(SpanKind::kMetadataGet);
            c = sys->cpu_subs[d][i].Get();
          }
          CheckValue(s, !s.is_null() && InAllowed(ep.allowed_state,
                                                  s.AsDouble() * reader_skew),
                     reader_ops, reader_log,
                     "reader: " + ep.plan.join->label() + " est_state_size");
          CheckValue(c, !c.is_null() && InAllowed(ep.allowed_cpu,
                                                  c.AsDouble() * reader_skew),
                     reader_ops, reader_log,
                     "reader: " + ep.plan.join->label() + " est_cpu_usage");
          if (p >= 0) reads[static_cast<size_t>(p)] += 2;
        }
      }
    }
  });
  threads.emplace_back([&] { churn.Run(phase, stop); });

  std::vector<double> lengths = DriveRounds(phase, sched);
  for (auto& t : threads) t.join();
  double driven_s = static_cast<double>(NowNs() - driven_start) / 1e9;
  double rss = PeakRssMb();
  sw.m1 = sys->engine->metadata().stats();
  sw.s1 = sys->engine->scheduler().stats();
  for (size_t d = 0; d < resizers; ++d) {
    out.ops.Merge(resizer_ops[d]);
    out.log.Merge(resizer_log[d]);
  }
  out.ops.Merge(reader_ops);
  out.log.Merge(reader_log);
  out.ops.Merge(churn.ops);
  out.log.Merge(churn.log);

  // Glitch freedom: no handler refreshes twice in one wave.
  uint64_t waves = sw.m1.waves - sw.m0.waves;
  uint64_t refreshes = sw.m1.wave_refreshes - sw.m0.wave_refreshes;
  uint64_t closure = args.corrupt == "glitch" ? kResizeClosure - 2 : kResizeClosure;
  bool glitch_free = refreshes <= waves * closure;
  out.ops.Count(kCheck, glitch_free);
  if (!glitch_free) {
    out.log.Fail("wave_refreshes " + std::to_string(refreshes) + " > waves " +
                 std::to_string(waves) + " x closure " + std::to_string(closure));
  }
  uint64_t resizes = 0;
  for (const OpCounts& o : resizer_ops) resizes += o.attempted[kResize];
  std::printf("waves: %" PRIu64 " for %" PRIu64 " resize events, %" PRIu64
              " wave refreshes (closure %" PRIu64 ")\n",
              waves, resizes, refreshes, closure);

  std::vector<double> tput, p50, p99, rps;
  for (int r = 0; r < sched.rounds; ++r) {
    uint64_t n = 0;
    std::vector<uint32_t> v;
    for (size_t d = 0; d < resizers; ++d) {
      n += events[d][static_cast<size_t>(r)];
      lat[d][static_cast<size_t>(r)].AppendTo(&v);
    }
    double len = lengths[static_cast<size_t>(r)];
    tput.push_back(static_cast<double>(n) / len);
    rps.push_back(static_cast<double>(reads[static_cast<size_t>(r)]) / len);
    p50.push_back(QuantileUs(v, 0.50));
    p99.push_back(QuantileUs(v, 0.99));
  }
  SetEndToEnd(&out, setup_s, rss, tput, p50, p99, churn.subscribe_ns);
  std::printf("rounds: %d x %.2f s; events/s per round:", sched.rounds,
              sched.round_s);
  for (double t : tput) std::printf(" %.0f", t);
  std::printf("; reader reads/s median %.0f\n", Median(rps));

  if (args.trace) {
    static_cast<pipes::ThreadPoolScheduler&>(sys->engine->scheduler()).Shutdown();
    AddLayerMetrics(&out, sw, driven_s, churn.cycles, churn.lateness_sum_us,
                    churn.subscribe_ns);
    out.layer["stream.join.results"] = {0.0, "count"};
    out.layer["stream.join.state_elements"] = {0.0, "count"};
  }
  sys.reset();
  return out;
}

// --- Output ---------------------------------------------------------------------------

void PrintJsonMetrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_metadata_cost --workload join_tailored|"
                 "join_maintain_all|estimate_waves|join_metadata_off --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--corrupt join|formula|reader|glitch]\n");
    return 64;
  }
  if (args.trace) EnableTracing(kMaxSpansPerThread);
  std::printf("host: hardware_concurrency=%zu build_type=%s compiler=\"%s\" "
              "lock_order_validator=%s seed=%" PRIu64 " workload=%s seconds=%g "
              "trace=%d\n",
              HostThreads(), E2E_BUILD_TYPE, E2E_COMPILER,
              PIPES_LOCK_ORDER_CHECKS ? "on" : "off", args.seed,
              args.workload.c_str(), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out;
  if (args.workload == "estimate_waves") {
    out = RunEstimateWaves(args);
  } else if (args.workload == "join_tailored") {
    out = RunJoin(args, Provision::kTailored);
  } else if (args.workload == "join_maintain_all") {
    out = RunJoin(args, Provision::kMaintainAll);
  } else {
    out = RunJoin(args, Provision::kOff);
  }

  if (args.trace && !args.trace_dir.empty()) {
    std::string path = args.trace_dir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".csv";
    if (!WriteSpans(path)) std::printf("could not write %s\n", path.c_str());
  }

  uint64_t attempted = 0, failed = 0;
  std::printf("\noperations  %-14s %12s %8s\n", "kind", "attempted", "failed");
  for (int k = 0; k < kOpKinds; ++k) {
    std::printf("            %-14s %12" PRIu64 " %8" PRIu64 "\n", kOpNames[k],
                out.ops.attempted[k], out.ops.failed[k]);
    attempted += out.ops.attempted[k];
    failed += out.ops.failed[k];
  }
  bool correct = out.log.failures == 0;
  std::printf("checks: %s (%" PRIu64 " failures)\n", correct ? "pass" : "FAIL",
              out.log.failures);
  for (const auto& m : out.log.first) std::printf("  %s\n", m.c_str());
  std::printf("end-to-end:");
  for (const auto& [name, m] : out.e2e) {
    std::printf(" %s=%.6g %s", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\n");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  PrintJsonMetrics(args.trace ? out.layer : out.e2e);
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
