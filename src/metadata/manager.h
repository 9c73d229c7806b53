/// \file manager.h
/// \brief The publish-subscribe coordinator for dynamic metadata
/// (paper §2, §3.2.3).
///
/// A MetadataManager serves one query graph. It resolves metadata
/// dependencies into handlers (automatic inclusion/exclusion via a
/// depth-first traversal of the dependency graph, §2.4), shares handlers
/// between consumers via reference counting (§2.1), runs update-propagation
/// waves along the inverted dependency graph in topological order (§3.2.3),
/// and owns the graph-level lock of the three-level locking scheme (§4.2).

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/reentrant_shared_mutex.h"
#include "common/scheduler.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "metadata/handler.h"
#include "metadata/provider.h"

namespace pipes {

class MetadataManager;
class MetadataDurability;
struct DurabilityConfig;
struct RecoveryReport;

/// \brief RAII consumer-side subscription to one metadata item (paper §2.1).
///
/// Move-only. Destruction unsubscribes; dependent items included on behalf
/// of this subscription are automatically excluded when no longer needed.
class MetadataSubscription {
 public:
  MetadataSubscription() = default;
  ~MetadataSubscription();

  MetadataSubscription(const MetadataSubscription&) = delete;
  MetadataSubscription& operator=(const MetadataSubscription&) = delete;
  MetadataSubscription(MetadataSubscription&& other) noexcept;
  MetadataSubscription& operator=(MetadataSubscription&& other) noexcept;

  /// Current value of the subscribed item.
  MetadataValue Get() const;

  /// Numeric convenience.
  double GetDouble() const { return Get().AsDouble(); }

  /// The shared handler (nullptr for an empty subscription).
  const std::shared_ptr<MetadataHandler>& handler() const { return handler_; }

  /// True if this subscription is live.
  bool valid() const { return handler_ != nullptr; }

  /// Unsubscribes now (idempotent).
  void Reset();

 private:
  friend class MetadataManager;
  MetadataSubscription(MetadataManager* manager,
                       std::shared_ptr<MetadataHandler> handler)
      : manager_(manager), handler_(std::move(handler)) {}

  MetadataManager* manager_ = nullptr;
  std::shared_ptr<MetadataHandler> handler_;
};

/// \brief Counters describing metadata-framework activity; the cost unit of
/// the scalability experiments.
struct MetadataManagerStats {
  uint64_t subscriptions = 0;      ///< external Subscribe calls
  uint64_t unsubscriptions = 0;    ///< external unsubscribes
  uint64_t handlers_created = 0;
  uint64_t handlers_removed = 0;
  uint64_t active_handlers = 0;    ///< currently included items
  uint64_t evaluations = 0;        ///< evaluator invocations (maintenance cost)
  uint64_t waves = 0;              ///< propagation waves
  uint64_t wave_refreshes = 0;     ///< triggered-handler refreshes in waves
  uint64_t events_fired = 0;       ///< manual event notifications
  uint64_t wave_plan_hits = 0;     ///< waves served by a cached plan
  uint64_t wave_plan_rebuilds = 0; ///< waves that re-derived their plan
  uint64_t wave_stripes = 0;       ///< striped propagation locks (gauge)
  /// Nested cross-stripe waves handed to the scheduler instead of blocking
  /// on a stripe another thread's wave holds.
  uint64_t waves_deferred = 0;

  // Fault containment (see HandlerHealth / RetryPolicy).
  uint64_t eval_failures = 0;      ///< contained evaluator faults
  uint64_t evals_skipped = 0;      ///< evals skipped by quarantine backoff
  uint64_t degradations = 0;       ///< transitions into kDegraded
  uint64_t quarantines = 0;        ///< transitions into kQuarantined
  uint64_t recoveries = 0;         ///< transitions back to kHealthy
  uint64_t degraded_handlers = 0;    ///< currently kDegraded (gauge)
  uint64_t quarantined_handlers = 0; ///< currently kQuarantined (gauge)

  // Periodic cadence (see SetPeriodicCadence).
  uint64_t periods_stretched = 0;  ///< periodic items currently degraded (gauge)
  uint64_t period_stretches = 0;   ///< cadence-stretch applications
  uint64_t period_restores = 0;    ///< cadence-restore applications

  // Storm damping (see EnableStormDamping).
  uint64_t events_coalesced = 0;   ///< damped events absorbed into pending waves
  uint64_t storm_flushes = 0;      ///< coalesced-wave flushes executed
  uint64_t breaker_trips = 0;      ///< origins converted to batch refresh
  uint64_t breakers_active = 0;    ///< origins currently batch-refreshing (gauge)
};

/// \brief Tuning of triggered-wave storm damping (see
/// MetadataManager::EnableStormDamping).
struct StormDampingOptions {
  /// Steady-state budget of propagation waves per origin, per second
  /// (token-bucket refill rate).
  double max_waves_per_sec = 100.0;
  /// Token-bucket capacity: short bursts up to this many back-to-back waves
  /// pass undamped.
  double burst = 4.0;
  /// Events coalesced since the last executed wave at which the origin's
  /// circuit breaker trips into batch-refresh mode.
  uint64_t breaker_trip_coalesced = 64;
  /// Batch-refresh cadence of a tripped origin. The breaker resets when a
  /// whole batch interval passes without a single event.
  Duration breaker_batch_interval = 100 * kMicrosPerMilli;
};

/// \brief Publish-subscribe metadata coordinator for one query graph.
///
/// Thread safety: all public methods are safe to call concurrently.
class MetadataManager {
 public:
  /// `scheduler` runs periodic updates and deferred events; it must outlive
  /// the manager. `wave_stripes` is the number of striped propagation locks
  /// (waves from origins on different stripes run concurrently): 0 picks
  /// hardware_concurrency, and any value is clamped to [1, 64] so a stripe
  /// set always fits one held-stripe bitmask.
  explicit MetadataManager(TaskScheduler& scheduler, size_t wave_stripes = 0);
  ~MetadataManager();

  MetadataManager(const MetadataManager&) = delete;
  MetadataManager& operator=(const MetadataManager&) = delete;

  /// \brief Subscribes to item `key` of `provider`.
  ///
  /// Performs the automatic-inclusion traversal: all transitively required
  /// dependencies are resolved (honoring dynamic resolvers) and included
  /// depth-first, stopping at already-provided items. The whole subscription
  /// is atomic: on error (unknown item, unresolvable dependency, dependency
  /// cycle) nothing is included.
  Result<MetadataSubscription> Subscribe(MetadataProvider& provider,
                                         const MetadataKey& key);

  /// \brief Fires the event notification for an included item (paper §3.2.3):
  /// starts a propagation wave over its dependents. No-op when the item is
  /// not included.
  void FireEvent(MetadataProvider& provider, const MetadataKey& key);

  /// Like FireEvent but runs asynchronously on the scheduler — for calls
  /// from element-processing threads that hold node state locks exclusively.
  void FireEventDeferred(MetadataProvider& provider, const MetadataKey& key);

  /// \brief Runs one update-propagation wave starting at `origin`: all
  /// transitive dependents reachable through triggered/on-demand handlers
  /// are collected and triggered handlers among them are refreshed in
  /// topological (dependencies-first) order, each at most once per wave.
  void PropagateFrom(MetadataHandler& origin, Timestamp now);

  /// The scheduler driving periodic updates.
  TaskScheduler& scheduler() { return scheduler_; }

  /// Number of striped propagation locks (fixed at construction).
  size_t wave_stripe_count() const { return stripes_.size(); }

  /// The clock shared with the scheduler.
  Clock& clock() { return scheduler_.clock(); }

  /// Graph-level metadata lock (paper §4.2): exclusive during structural
  /// changes (inclusion/exclusion), shared during propagation.
  ReentrantSharedMutex& structure_mutex()
      PIPES_RETURN_CAPABILITY(structure_mu_) {
    return structure_mu_;
  }

  /// \brief Stretches every included periodic item's refresh cadence by
  /// `factor`, or restores the base periods at `factor` <= 1.
  ///
  /// Each stretched period is capped by the item's WithMaxStaleness bound
  /// or, without one, by `staleness_cap_factor` x its base period, so
  /// consumers keep a predictable freshness floor. Items included later
  /// start at the cadence in effect, so a stretch cannot be escaped by
  /// re-subscribing. The overload-control seam: OverloadGovernor
  /// (runtime/overload_governor.h) calls it on pressure transitions.
  void SetPeriodicCadence(double factor, double staleness_cap_factor);

  /// Number of periodic handlers the cadence setter reaches (the included
  /// periodic items, retired ones until their exclusion).
  size_t periodic_roster_size() const;

  /// \name Triggered-wave storm damping
  ///
  /// Arms per-origin event coalescing: waves from one origin are admitted
  /// through a token bucket; events arriving without a token are coalesced
  /// into one deferred flush wave (metadata is last-writer-wins, so dropping
  /// the intermediate waves loses nothing consumers could still observe). An
  /// origin storming hard enough to coalesce breaker_trip_coalesced events
  /// trips a circuit breaker that converts it to fixed-cadence batch refresh
  /// until a whole batch interval passes quietly. Off by default: undamped
  /// propagation stays exactly as before.
  ///@{
  void EnableStormDamping(const StormDampingOptions& opts = {});
  void DisableStormDamping();
  ///@}

  /// \name Durability (write-ahead journal + checkpoint/restore)
  ///
  /// With durability enabled, every definition, subscription, retirement,
  /// and committed value is appended to a write-ahead journal, and a
  /// periodic task checkpoints the full metadata image (descriptors,
  /// subscription counts, last-known-good values with wall-clock
  /// timestamps) into atomic snapshot files, rotating the journal. After a
  /// crash, RecoverFrom rebuilds the state a fresh manager serves
  /// immediately: recovered values appear as last-known-good with real
  /// staleness; items whose evaluators are not yet re-defined come back as
  /// shells degrading through the fault-containment path. Off by default —
  /// the journal hooks then cost one atomic load each: registries, handlers
  /// and providers call MetadataDurability's On* hooks through durability().
  /// See persistence.h.
  ///@{
  /// Starts journaling into `config.dir` and checkpoints the current state.
  /// `providers` seeds the checkpoint roster with providers whose items
  /// were defined before enabling (later definitions register themselves);
  /// providers without a manager are attached to this one. Fails when
  /// durability is already enabled or the directory cannot be prepared.
  Status EnableDurability(const DurabilityConfig& config,
                          const std::vector<MetadataProvider*>& providers = {});
  /// Flushes, closes the journal, and stops journaling. Providers torn down
  /// after this are not recorded as gone — the documented way to preserve
  /// durable state across a planned shutdown.
  void DisableDurability();
  bool durability_enabled() const {
    return durability_.load(std::memory_order_acquire) != nullptr;
  }
  /// The active durability engine (nullptr while disabled).
  MetadataDurability* durability() const {
    return durability_.load(std::memory_order_acquire);
  }
  /// \brief Rebuilds metadata state from the journal/snapshot directory
  /// `dir`, resolving persisted provider labels against `providers`.
  ///
  /// Requires durability to be disabled (recover first, then enable). The
  /// returned report owns the re-established subscriptions. See
  /// MetadataDurability::Recover for the full protocol.
  Result<RecoveryReport> RecoverFrom(
      const std::string& dir, const std::vector<MetadataProvider*>& providers);

  ///@}

  /// Snapshot of activity counters.
  MetadataManagerStats stats() const;

  /// \brief Test seam: the handler's currently stored value, without
  /// invoking its evaluator.
  ///
  /// Unlike MetadataSubscription::Get(), which evaluates on-demand items
  /// (and would therefore perturb the very state a checker wants to
  /// observe), this is a pure lock-free slot read — the same read the
  /// durability checkpoint uses. The deterministic simulation harness uses
  /// it to extract the system's served state for comparison against its
  /// reference model without side effects.
  static MetadataValue PeekValue(const MetadataHandler& handler) {
    return handler.LoadValue();
  }

  /// Number of currently included items across all providers.
  uint64_t active_handler_count() const {
    return stats_active_.load(std::memory_order_relaxed);
  }

  /// Internal: one evaluator invocation happened (called by handlers).
  void CountEvaluation() {
    stats_evaluations_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Internal: one evaluator fault was contained (called by handlers).
  void CountEvaluationFailure() {
    stats_eval_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Internal: one evaluation was skipped by quarantine backoff.
  void CountSkippedEvaluation() {
    stats_evals_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Internal: a handler's health changed from `from` to `to`; updates the
  /// transition counters and the degraded/quarantined gauges.
  void CountHealthTransition(HandlerHealth from, HandlerHealth to);

 private:
  friend class MetadataSubscription;
  friend class MetadataDurability;
  /// Remote pushes inject peer values as last-known-good (InjectRecoveredValue)
  /// before starting an ordinary propagation wave — the same protocol crash
  /// recovery uses.
  friend class RemoteMetadataProvider;

  struct PlanEntry {
    MetadataProvider* provider;
    MetadataKey key;
    std::shared_ptr<const MetadataDescriptor> desc;
    std::vector<MetadataRef> deps;
  };

  /// Depth-first planning of the inclusion closure (cycle + existence
  /// checks); appends entries dependencies-first. Runs under the exclusive
  /// structure lock (machine-checked under Clang -Wthread-safety).
  Status PlanInclude(const MetadataRef& ref, std::vector<PlanEntry>* plan,
                     std::unordered_set<MetadataRef, MetadataRefHash>* planned,
                     std::unordered_set<MetadataRef, MetadataRefHash>* in_path)
      PIPES_REQUIRES(structure_mu_);

  /// Creates the handler for one plan entry (dependencies already exist).
  std::shared_ptr<MetadataHandler> Instantiate(const PlanEntry& entry,
                                               Timestamp now)
      PIPES_REQUIRES(structure_mu_);

  /// Drops one external reference and removes the handler (and, recursively,
  /// its now-unneeded dependencies) when the last reference is gone.
  void UnsubscribeExternal(const std::shared_ptr<MetadataHandler>& handler);

  /// Removes `handler` if it has neither external nor internal references,
  /// appending every handler it removes to `removed`.
  void MaybeRemove(const std::shared_ptr<MetadataHandler>& handler,
                   std::vector<MetadataHandler*>* removed)
      PIPES_REQUIRES(structure_mu_);

  /// \brief Marks stale the cached wave plan of every origin whose affected
  /// closure contains one of `changed` (the handlers one subscription
  /// included, or one unsubscription excluded; all still alive).
  ///
  /// Walks up from their dependencies, continuing past a handler only when
  /// it propagates through — the inverse of RebuildWavePlan's closure rule.
  /// One walk per operation, run after its last instantiation or removal,
  /// so each handler is expanded once and a wave fired from an activation
  /// hook in between cannot leave a plan current. Plans of origins the
  /// change cannot reach stay cached.
  void MarkPlansStale(const std::vector<MetadataHandler*>& changed)
      PIPES_REQUIRES(structure_mu_);

  /// Refreshes one handler in a wave with exception containment, so a
  /// faulting refresh cannot abort the wave.
  void RefreshContained(MetadataHandler& h, Timestamp now);

  /// \brief Runs the wave proper (post-admission): rebuilds a stale plan,
  /// then walks it. Caller holds at least a shared structure lock and the
  /// origin's wave stripe (a dynamic capability Clang TSA cannot express;
  /// the runtime lock-order validator covers the discipline instead).
  void RunWaveLocked(MetadataHandler& origin, Timestamp now)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// \brief Storm-damping admission for a wave originating at `origin`.
  /// Requires the origin's wave stripe (dynamic capability, see above).
  ///
  /// True = a token was available (wave runs now). False = the event was
  /// coalesced into `origin`'s pending flush (scheduled here if none is);
  /// may trip the origin's circuit breaker.
  bool AdmitWave(MetadataHandler& origin, Timestamp now)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Schedules a coalesced-flush task for `origin` at `when`. Requires the
  /// origin's wave stripe. A rejected admission (scheduler queue bound)
  /// leaves flush_scheduled false so the next event retries — the coalesced
  /// events are shed, not leaked.
  void ScheduleStormFlush(MetadataHandler& origin, Timestamp when)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Deferred flush of an origin's coalesced events: runs one wave for the
  /// whole run, re-arms the batch cadence while the breaker is tripped, and
  /// resets the breaker after a quiet interval.
  void FlushStorm(const std::weak_ptr<MetadataHandler>& weak)
      PIPES_NO_THREAD_SAFETY_ANALYSIS;

  /// Schedules a top-level wave from `weak` at the current time; dropped if
  /// the handler is gone or retired by then. `count_event` counts it as a
  /// fired event.
  void ScheduleWave(std::weak_ptr<MetadataHandler> weak, bool count_event);

  /// Applies the current cadence to every live periodic handler in the
  /// roster and refreshes the stretched-items gauge.
  void ApplyCadenceLocked() PIPES_REQUIRES(periodic_mu_);

  /// Recovery-time value injection: publishes `v` with update time `ts` as
  /// `handler`'s last-known-good value without invoking its evaluator.
  void InjectRecoveredValue(MetadataHandler& handler, const MetadataValue& v,
                            Timestamp ts);

  /// \brief Rebuilds `origin`'s stale wave plan.
  ///
  /// Derives the affected closure (BFS over dependents through
  /// propagate-through handlers) and Kahn-orders its triggered handlers into
  /// `origin.wave_plan_.refresh`. The scratch is local to the rebuild, so
  /// rebuilds from different origins share nothing writable: the caller
  /// holds the origin's stripe and a shared structure lock (the graph cannot
  /// change shape underneath), and no other stripe.
  void RebuildWavePlan(MetadataHandler& origin) PIPES_NO_THREAD_SAFETY_ANALYSIS;

  TaskScheduler& scheduler_;
  /// Graph-level lock of the three-level scheme (§4.2). Outer to the
  /// wave stripes and every handler lock; see lock_order.h ranks.
  ReentrantSharedMutex structure_mu_{"MetadataManager::structure_mu",
                                     lockorder::kRankMetadataStructure};

  /// \brief Striped propagation locks, each shared by the origins mapped
  /// to its stripe.
  ///
  /// Stripe protocol (DESIGN.md §3.9): a wave — plan rebuild included —
  /// holds only its origin's stripe; a nested wave (fired by a refresh
  /// evaluator) re-enters its own stripe recursively (§3.2.3) but only
  /// try-locks a foreign stripe, deferring the wave to the scheduler on
  /// contention. Sized in the constructor, never resized; unique_ptr keeps
  /// stripe addresses stable for the validator.
  // pipes-analyze: unguarded(sized in the ctor, never resized; stripes are internally locked)
  std::vector<std::unique_ptr<RecursiveMutex>> stripes_;
  /// Round-robin stripe assignment for newly included handlers (mutated
  /// under the exclusive structure lock, atomic so lock-free readers of the
  /// counter — none today — stay well-defined).
  std::atomic<uint64_t> stripe_seq_{0};

  /// \name Periodic-handler roster (see SetPeriodicCadence)
  ///
  /// `periodic_mu_` is taken under the exclusive structure lock (roster
  /// insert in Instantiate, removal in MaybeRemove) and held while applying
  /// a cadence (handler period locks, scheduler locks).
  ///@{
  mutable Mutex periodic_mu_{"MetadataManager::periodic_mu",
                             lockorder::kRankPeriodicRoster};
  double cadence_factor_ PIPES_GUARDED_BY(periodic_mu_) = 1.0;
  double cadence_cap_factor_ PIPES_GUARDED_BY(periodic_mu_) = 1.0;
  /// Every included periodic handler; each knows its slot
  /// (PeriodicMetadataHandler::roster_slot_), so removal is a swap with the
  /// last entry. Weak: the roster never extends a handler's lifetime.
  std::vector<std::weak_ptr<MetadataHandler>> periodic_roster_
      PIPES_GUARDED_BY(periodic_mu_);
  ///@}

  /// Storm damping switch. Atomic so the undamped fast path is one relaxed
  /// load; flipped by Enable/DisableStormDamping.
  std::atomic<bool> storm_damping_enabled_{false};
  /// Storm damping configuration. Written under ALL wave stripes
  /// (EnableStormDamping) and read under any one stripe (AdmitWave,
  /// FlushStorm), so writers exclude every reader — the striped analogue of
  /// the old propagation-lock guard.
  // pipes-analyze: unguarded(written under all wave stripes, read under any one stripe)
  StormDampingOptions storm_options_;

  std::atomic<uint64_t> stats_subscriptions_{0};
  std::atomic<uint64_t> stats_unsubscriptions_{0};
  std::atomic<uint64_t> stats_created_{0};
  std::atomic<uint64_t> stats_removed_{0};
  std::atomic<uint64_t> stats_active_{0};
  std::atomic<uint64_t> stats_evaluations_{0};
  std::atomic<uint64_t> stats_waves_{0};
  std::atomic<uint64_t> stats_wave_refreshes_{0};
  std::atomic<uint64_t> stats_wave_plan_rebuilds_{0};
  std::atomic<uint64_t> stats_waves_deferred_{0};
  std::atomic<uint64_t> stats_events_{0};
  std::atomic<uint64_t> stats_eval_failures_{0};
  std::atomic<uint64_t> stats_evals_skipped_{0};
  std::atomic<uint64_t> stats_degradations_{0};
  std::atomic<uint64_t> stats_quarantines_{0};
  std::atomic<uint64_t> stats_recoveries_{0};
  std::atomic<uint64_t> stats_degraded_now_{0};
  std::atomic<uint64_t> stats_quarantined_now_{0};
  std::atomic<uint64_t> stats_period_stretches_{0};
  std::atomic<uint64_t> stats_period_restores_{0};
  std::atomic<uint64_t> stats_stretched_now_{0};
  std::atomic<uint64_t> stats_events_coalesced_{0};
  std::atomic<uint64_t> stats_storm_flushes_{0};
  std::atomic<uint64_t> stats_breaker_trips_{0};
  std::atomic<uint64_t> stats_breakers_now_{0};

  /// \name Durability state
  ///
  /// The engine is owned under the admin lock; hot-path hooks read the
  /// atomic mirror only. Disable parks the old engine in the graveyard
  /// instead of destroying it, so a hook that loaded the raw pointer just
  /// before the swap still dereferences live (stopped, journal closed —
  /// appends fail harmlessly) memory.
  ///@{
  mutable Mutex durability_admin_mu_{"MetadataManager::durability_admin_mu",
                                     lockorder::kRankDurabilityAdmin};
  std::unique_ptr<MetadataDurability> durability_owner_
      PIPES_GUARDED_BY(durability_admin_mu_);
  std::vector<std::unique_ptr<MetadataDurability>> durability_graveyard_
      PIPES_GUARDED_BY(durability_admin_mu_);
  std::atomic<MetadataDurability*> durability_{nullptr};
  ///@}
};

}  // namespace pipes
