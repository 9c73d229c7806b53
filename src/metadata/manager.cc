#include "metadata/manager.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_map>

#include "metadata/persistence.h"

namespace pipes {

// ---------------------------------------------------------------------------
// Per-thread held-stripe tracking
// ---------------------------------------------------------------------------

namespace {

/// Which wave stripes of which managers this thread currently holds. A flat
/// thread_local array (no heap, no hashing) because the propagation fast
/// path must stay allocation-free; kStripeSlots bounds how many *distinct*
/// managers one thread can hold stripes of simultaneously — nested waves
/// stay within one manager, so even 2 would do.
struct ThreadStripeSlot {
  const void* manager = nullptr;
  uint64_t mask = 0;
};
constexpr int kStripeSlots = 8;
thread_local ThreadStripeSlot t_stripes[kStripeSlots];

/// The held-stripe mask slot for `manager`, creating one when absent.
uint64_t* StripeMaskSlot(const void* manager) {
  ThreadStripeSlot* free_slot = nullptr;
  for (auto& slot : t_stripes) {
    if (slot.manager == manager) return &slot.mask;
    if (slot.manager == nullptr && free_slot == nullptr) free_slot = &slot;
  }
  assert(free_slot != nullptr &&
         "thread holds wave stripes of too many managers at once");
  free_slot->manager = manager;
  free_slot->mask = 0;
  return &free_slot->mask;
}

/// Returns an emptied slot to the pool.
void ReleaseStripeSlotIfEmpty(const void* manager, const uint64_t* mask) {
  if (*mask != 0) return;
  for (auto& slot : t_stripes) {
    if (slot.manager == manager) {
      slot.manager = nullptr;
      return;
    }
  }
}

/// \brief Scoped acquisition of one wave stripe under the stripe protocol.
///
/// Blocking when the thread holds no stripe of this manager (it cannot then
/// be part of a stripe wait cycle) or already holds exactly this stripe
/// (recursive re-entry). Otherwise — a nested wave crossing stripes — only a
/// try_lock: blocking there could close an ABBA cycle between two in-flight
/// waves, so on contention the guard stays disengaged and the caller defers
/// the wave. Tracks the held-stripe mask so nested frames see the protocol
/// state.
class ScopedStripe {
 public:
  ScopedStripe(RecursiveMutex& mu, const void* manager, uint64_t bit)
      : mu_(mu), manager_(manager), bit_(bit), mask_(StripeMaskSlot(manager)) {
    const bool already_held = (*mask_ & bit_) != 0;
    if (*mask_ == 0 || already_held) {
      mu_.lock();
      engaged_ = true;
    } else {
      engaged_ = mu_.try_lock();
    }
    if (engaged_) {
      newly_held_ = !already_held;
      *mask_ |= bit_;
    } else {
      ReleaseStripeSlotIfEmpty(manager_, mask_);
    }
  }

  ~ScopedStripe() {
    if (engaged_) {
      if (newly_held_) *mask_ &= ~bit_;
      mu_.unlock();
    }
    ReleaseStripeSlotIfEmpty(manager_, mask_);
  }

  ScopedStripe(const ScopedStripe&) = delete;
  ScopedStripe& operator=(const ScopedStripe&) = delete;

  /// False only for a contended nested cross-stripe acquisition.
  bool engaged() const { return engaged_; }

 private:
  RecursiveMutex& mu_;
  const void* manager_;
  uint64_t bit_;
  uint64_t* mask_;
  bool engaged_ = false;
  bool newly_held_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// MetadataSubscription
// ---------------------------------------------------------------------------

MetadataSubscription::~MetadataSubscription() { Reset(); }

MetadataSubscription::MetadataSubscription(MetadataSubscription&& other) noexcept
    : manager_(other.manager_), handler_(std::move(other.handler_)) {
  other.manager_ = nullptr;
  other.handler_ = nullptr;
}

MetadataSubscription& MetadataSubscription::operator=(
    MetadataSubscription&& other) noexcept {
  if (this != &other) {
    Reset();
    manager_ = other.manager_;
    handler_ = std::move(other.handler_);
    other.manager_ = nullptr;
    other.handler_ = nullptr;
  }
  return *this;
}

MetadataValue MetadataSubscription::Get() const {
  return handler_ ? handler_->Get() : MetadataValue::Null();
}

void MetadataSubscription::Reset() {
  if (handler_ && manager_) {
    manager_->UnsubscribeExternal(handler_);
  }
  handler_ = nullptr;
  manager_ = nullptr;
}

// ---------------------------------------------------------------------------
// Dependency resolution context
// ---------------------------------------------------------------------------

namespace {

class ResolutionContextImpl final : public ResolutionContext {
 public:
  ResolutionContextImpl(
      MetadataProvider& self,
      const std::unordered_set<MetadataRef, MetadataRefHash>& planned)
      : self_(self), planned_(planned) {}

  MetadataProvider& self() const override { return self_; }

  bool IsIncluded(const MetadataRef& ref) const override {
    if (ref.provider == nullptr) return false;
    if (ref.provider->metadata_registry().IsIncluded(ref.key)) return true;
    return planned_.count(ref) > 0;
  }

  bool IsAvailable(const MetadataRef& ref) const override {
    return ref.provider != nullptr &&
           ref.provider->metadata_registry().IsAvailable(ref.key);
  }

  std::vector<MetadataRef> ResolveSpec(const DependencySpec& spec) const override {
    std::vector<MetadataRef> out;
    switch (spec.target) {
      case DependencySpec::Target::kSelf:
        out.push_back(MetadataRef{&self_, spec.key});
        break;
      case DependencySpec::Target::kUpstream: {
        auto ups = self_.MetadataUpstreams();
        if (spec.index < 0) {
          for (auto* p : ups) out.push_back(MetadataRef{p, spec.key});
        } else if (static_cast<size_t>(spec.index) < ups.size()) {
          out.push_back(MetadataRef{ups[spec.index], spec.key});
        } else {
          error_ = "upstream index " + std::to_string(spec.index) +
                   " out of range for '" + self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kDownstream: {
        auto downs = self_.MetadataDownstreams();
        if (spec.index < 0) {
          for (auto* p : downs) out.push_back(MetadataRef{p, spec.key});
        } else if (static_cast<size_t>(spec.index) < downs.size()) {
          out.push_back(MetadataRef{downs[spec.index], spec.key});
        } else {
          error_ = "downstream index " + std::to_string(spec.index) +
                   " out of range for '" + self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kModule: {
        MetadataProvider* module = self_.MetadataModule(spec.module);
        if (module != nullptr) {
          out.push_back(MetadataRef{module, spec.key});
        } else {
          error_ = "unknown module '" + spec.module + "' on '" +
                   self_.label() + "'";
        }
        break;
      }
      case DependencySpec::Target::kExplicit:
        if (spec.provider != nullptr) {
          out.push_back(MetadataRef{spec.provider, spec.key});
        } else {
          error_ = "explicit dependency with null provider on '" +
                   self_.label() + "'";
        }
        break;
    }
    return out;
  }

  const std::string& error() const { return error_; }

 private:
  MetadataProvider& self_;
  const std::unordered_set<MetadataRef, MetadataRefHash>& planned_;
  mutable std::string error_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MetadataManager
// ---------------------------------------------------------------------------

MetadataManager::MetadataManager(TaskScheduler& scheduler, size_t wave_stripes)
    : scheduler_(scheduler) {
  if (wave_stripes == 0) {
    wave_stripes = std::thread::hardware_concurrency();
    if (wave_stripes == 0) wave_stripes = 1;
  }
  // Clamped to 64 so a stripe set always fits one held-stripe bitmask.
  wave_stripes = std::min<size_t>(std::max<size_t>(wave_stripes, 1), 64);
  stripes_.reserve(wave_stripes);
  for (size_t i = 0; i < wave_stripes; ++i) {
    stripes_.push_back(std::make_unique<RecursiveMutex>(
        "MetadataManager::wave_stripe_mu", lockorder::kRankWaveStripe));
  }
}

MetadataManager::~MetadataManager() {
  // Stop durability first: its flush/checkpoint tasks walk manager state.
  DisableDurability();
}

Result<MetadataSubscription> MetadataManager::Subscribe(
    MetadataProvider& provider, const MetadataKey& key) {
  ExclusiveLock lock(structure_mu_);

  // Phase 1: plan the inclusion closure (validates everything up front so
  // the subscription is atomic).
  std::vector<PlanEntry> plan;
  std::unordered_set<MetadataRef, MetadataRefHash> planned;
  std::unordered_set<MetadataRef, MetadataRefHash> in_path;
  MetadataRef root{&provider, key};
  Status st = PlanInclude(root, &plan, &planned, &in_path);
  if (!st.ok()) return st;

  // Phase 2: instantiate handlers dependencies-first; the new dependents
  // join the closures of the origins above them.
  Timestamp now = clock().Now();
  std::vector<MetadataHandler*> included;
  included.reserve(plan.size());
  for (const PlanEntry& entry : plan) {
    included.push_back(Instantiate(entry, now).get());
  }
  MarkPlansStale(included);

  std::shared_ptr<MetadataHandler> handler =
      provider.metadata_registry().GetHandler(key);
  assert(handler != nullptr);
  handler->external_refs_ += 1;
  stats_subscriptions_.fetch_add(1, std::memory_order_relaxed);
  // Journaled under the exclusive structure lock, after the ref-count
  // mutation: the checkpoint gather (shared structure lock) sees the count
  // and the record's LSN move together, so replay never double-applies.
  if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
    d->OnSubscribe(provider, key);
  }
  return MetadataSubscription(this, std::move(handler));
}

Status MetadataManager::PlanInclude(
    const MetadataRef& ref, std::vector<PlanEntry>* plan,
    std::unordered_set<MetadataRef, MetadataRefHash>* planned,
    std::unordered_set<MetadataRef, MetadataRefHash>* in_path) {
  if (ref.provider == nullptr) {
    return Status::InvalidArgument("metadata reference with null provider");
  }
  // "The traversal stops at items already provided." (§2.4)
  if (ref.provider->metadata_registry().IsIncluded(ref.key)) return Status::OK();
  if (planned->count(ref) > 0) return Status::OK();
  if (in_path->count(ref) > 0) {
    return Status::CycleDetected("metadata dependency cycle through '" +
                                 ref.provider->label() + "." + ref.key + "'");
  }
  std::shared_ptr<const MetadataDescriptor> desc =
      ref.provider->metadata_registry().Find(ref.key);
  if (desc == nullptr) {
    return Status::NotFound("no metadata item '" + ref.key + "' on '" +
                            ref.provider->label() + "'");
  }

  in_path->insert(ref);

  std::vector<MetadataRef> deps;
  if (desc->dependency_resolver()) {
    ResolutionContextImpl ctx(*ref.provider, *planned);
    deps = desc->dependency_resolver()(ctx);
    if (!ctx.error().empty()) {
      in_path->erase(ref);
      return Status::InvalidArgument("resolving dependencies of '" + ref.key +
                                     "': " + ctx.error());
    }
    // De-duplicate while preserving resolver order: hashed membership test
    // instead of a quadratic scan, since wide resolvers (e.g. all-upstream
    // fan-in at an aggregation point) can return hundreds of refs.
    std::unordered_set<MetadataRef, MetadataRefHash> seen;
    seen.reserve(deps.size());
    std::vector<MetadataRef> unique;
    unique.reserve(deps.size());
    for (const auto& d : deps) {
      if (seen.insert(d).second) unique.push_back(d);
    }
    deps = std::move(unique);
  }

  for (const MetadataRef& dep : deps) {
    Status st = PlanInclude(dep, plan, planned, in_path);
    if (!st.ok()) {
      in_path->erase(ref);
      return st;
    }
  }

  in_path->erase(ref);
  planned->insert(ref);
  plan->push_back(PlanEntry{ref.provider, ref.key, std::move(desc),
                            std::move(deps)});
  return Status::OK();
}

std::shared_ptr<MetadataHandler> MetadataManager::Instantiate(
    const PlanEntry& entry, Timestamp now) {
  // Collect dependency handlers (created earlier in the plan or preexisting).
  std::vector<std::shared_ptr<MetadataHandler>> dep_handlers;
  dep_handlers.reserve(entry.deps.size());
  for (const MetadataRef& dep : entry.deps) {
    auto h = dep.provider->metadata_registry().GetHandler(dep.key);
    assert(h != nullptr && "dependency handler missing during instantiation");
    dep_handlers.push_back(std::move(h));
  }

  std::shared_ptr<MetadataHandler> handler;
  switch (entry.desc->mechanism()) {
    case UpdateMechanism::kStatic:
      handler = std::shared_ptr<MetadataHandler>(new StaticMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kOnDemand:
      handler = std::shared_ptr<MetadataHandler>(new OnDemandMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kPeriodic:
      handler = std::shared_ptr<MetadataHandler>(new PeriodicMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
    case UpdateMechanism::kTriggered:
      handler = std::shared_ptr<MetadataHandler>(new TriggeredMetadataHandler(
          *entry.provider, entry.desc, *this, std::move(dep_handlers)));
      break;
  }

  // Pin the handler to a wave stripe for life. Round-robin instead of a
  // pointer hash: with ≤ stripe-count origins (the common bench and test
  // shape) every origin lands on its own stripe, so independent waves never
  // share a lock by accident of address alignment.
  handler->wave_stripe_ = static_cast<uint32_t>(
      stripe_seq_.fetch_add(1, std::memory_order_relaxed) % stripes_.size());

  // Wire the inverted dependency graph and internal reference counts.
  for (const auto& dep : handler->dependencies()) {
    dep->AddDependent(handler.get());
    dep->internal_refs_ += 1;
  }

  // Providers learn their manager on first inclusion, so that
  // FireMetadataEvent works without explicit attachment.
  if (entry.provider->metadata_manager() == nullptr) {
    entry.provider->AttachMetadataManager(this);
  }

  entry.provider->metadata_registry().AddHandler(entry.key, handler);

  // Activate the node-side monitoring code (paper §4.4.1), then the handler.
  if (entry.desc->activate_monitoring()) {
    entry.desc->activate_monitoring()(*entry.provider);
  }
  handler->Activate(now);

  // Periodic items join the cadence roster; one included while cadences
  // are stretched starts stretched too, so a brownout cannot be escaped by
  // re-subscribing.
  if (entry.desc->mechanism() == UpdateMechanism::kPeriodic) {
    auto* ph = static_cast<PeriodicMetadataHandler*>(handler.get());
    MutexLock plock(periodic_mu_);
    ph->roster_slot_ = periodic_roster_.size();
    periodic_roster_.push_back(handler);
    if (cadence_factor_ > 1.0) {
      Duration before = ph->effective_period();
      Duration after =
          ph->ApplyDegradationFactor(cadence_factor_, cadence_cap_factor_);
      if (after > before) {
        stats_period_stretches_.fetch_add(1, std::memory_order_relaxed);
        stats_stretched_now_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  stats_created_.fetch_add(1, std::memory_order_relaxed);
  stats_active_.fetch_add(1, std::memory_order_relaxed);
  return handler;
}

void MetadataManager::UnsubscribeExternal(
    const std::shared_ptr<MetadataHandler>& handler) {
  ExclusiveLock lock(structure_mu_);
  assert(handler->external_refs_ > 0);
  handler->external_refs_ -= 1;
  stats_unsubscriptions_.fetch_add(1, std::memory_order_relaxed);
  // Skipped for retired handlers: their owner may already be destroyed (the
  // kRetire record has zeroed the durable subscription count anyway).
  if (!handler->retired()) {
    if (MetadataDurability* d = durability_.load(std::memory_order_acquire)) {
      d->OnUnsubscribe(handler->owner(), handler->key());
    }
  }
  // Removed handlers stay alive until `handler` is released, after the
  // lock: their plans are stale before any other wave can run.
  std::vector<MetadataHandler*> removed;
  MaybeRemove(handler, &removed);
  MarkPlansStale(removed);
}

void MetadataManager::CountHealthTransition(HandlerHealth from,
                                            HandlerHealth to) {
  switch (to) {
    case HandlerHealth::kDegraded:
      stats_degradations_.fetch_add(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kQuarantined:
      stats_quarantines_.fetch_add(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kHealthy:
      stats_recoveries_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (from == HandlerHealth::kDegraded) {
    stats_degraded_now_.fetch_sub(1, std::memory_order_relaxed);
  } else if (from == HandlerHealth::kQuarantined) {
    stats_quarantined_now_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (to == HandlerHealth::kDegraded) {
    stats_degraded_now_.fetch_add(1, std::memory_order_relaxed);
  } else if (to == HandlerHealth::kQuarantined) {
    stats_quarantined_now_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MetadataManager::MaybeRemove(
    const std::shared_ptr<MetadataHandler>& handler,
    std::vector<MetadataHandler*>* removed) {
  if (handler->external_refs_ > 0 || handler->internal_refs_ > 0) return;

  // The handler leaves the graph: cached wave plans may hold raw pointers to
  // it, so the caller marks them stale before releasing the exclusive
  // structure lock, which keeps every other wave out until then.
  removed->push_back(handler.get());

  handler->Deactivate();
  // A retired handler's owner is gone (or going): its registry and the
  // monitoring hooks (which take the provider) must not be touched.
  if (!handler->retired()) {
    if (handler->descriptor().deactivate_monitoring()) {
      handler->descriptor().deactivate_monitoring()(handler->owner());
    }
    handler->owner().metadata_registry().RemoveHandler(handler->key());
  }
  // Keep the health gauges consistent when an unhealthy handler dies.
  switch (handler->health()) {
    case HandlerHealth::kDegraded:
      stats_degraded_now_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kQuarantined:
      stats_quarantined_now_.fetch_sub(1, std::memory_order_relaxed);
      break;
    case HandlerHealth::kHealthy:
      break;
  }
  if (handler->mechanism() == UpdateMechanism::kPeriodic) {
    // Swap-remove from the cadence roster: O(1), so exclusion cost does not
    // grow with the number of periodic items ever included.
    auto* ph = static_cast<PeriodicMetadataHandler*>(handler.get());
    MutexLock plock(periodic_mu_);
    const size_t slot = ph->roster_slot_;
    assert(slot < periodic_roster_.size());
    if (slot + 1 != periodic_roster_.size()) {
      periodic_roster_[slot] = std::move(periodic_roster_.back());
      if (auto moved = periodic_roster_[slot].lock()) {
        static_cast<PeriodicMetadataHandler*>(moved.get())->roster_slot_ =
            slot;
      }
    }
    periodic_roster_.pop_back();
  }
  stats_removed_.fetch_add(1, std::memory_order_relaxed);
  stats_active_.fetch_sub(1, std::memory_order_relaxed);

  // "For an unsubscription, the same traversal cancels the provision of
  // dependent metadata items by an implicit exclusion." (§2.4)
  for (const auto& dep : handler->dependencies()) {
    dep->RemoveDependent(handler.get());
    assert(dep->internal_refs_ > 0);
    dep->internal_refs_ -= 1;
    MaybeRemove(dep, removed);
  }
}

void MetadataManager::MarkPlansStale(
    const std::vector<MetadataHandler*>& changed) {
  // An origin's closure holds its direct dependents, plus the dependents of
  // every closure member that propagates through. So a changed handler is in
  // the closure of each of its dependencies, and of every handler reachable
  // upward from one through propagate-through handlers only.
  std::vector<MetadataHandler*> stack;
  std::unordered_set<MetadataHandler*> expanded;
  for (const MetadataHandler* h : changed) {
    for (const auto& dep : h->dependencies()) stack.push_back(dep.get());
  }
  while (!stack.empty()) {
    MetadataHandler* h = stack.back();
    stack.pop_back();
    h->wave_plan_.stale = true;
    if (!h->PropagatesThrough() || !expanded.insert(h).second) continue;
    for (const auto& dep : h->dependencies()) stack.push_back(dep.get());
  }
}

void MetadataManager::FireEvent(MetadataProvider& provider,
                                const MetadataKey& key) {
  std::shared_ptr<MetadataHandler> handler;
  {
    SharedLock lock(structure_mu_);
    handler = provider.metadata_registry().GetHandler(key);
  }
  if (handler == nullptr) return;
  stats_events_.fetch_add(1, std::memory_order_relaxed);
  PropagateFrom(*handler, clock().Now());
}

void MetadataManager::FireEventDeferred(MetadataProvider& provider,
                                        const MetadataKey& key) {
  // Resolve the handler now and hand the task a weak_ptr: the provider may
  // be torn down before the scheduler runs the task, so capturing `&provider`
  // (or a raw handler pointer) would dangle. A dead or retired handler means
  // the event has nothing left to notify — drop it.
  std::weak_ptr<MetadataHandler> weak;
  {
    SharedLock lock(structure_mu_);
    std::shared_ptr<MetadataHandler> handler =
        provider.metadata_registry().GetHandler(key);
    if (handler == nullptr) return;
    weak = handler;
  }
  ScheduleWave(std::move(weak), /*count_event=*/true);
}

void MetadataManager::RefreshContained(MetadataHandler& h, Timestamp now) {
  // Handler-level containment (EvaluateAndStore) already catches evaluator
  // faults; this guard additionally isolates the wave from anything a future
  // handler override might let escape, so one poisoned refresh can never
  // abort a whole propagation wave.
  try {
    h.RefreshFromWave(now);
  } catch (...) {
    stats_eval_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MetadataManager::PropagateFrom(MetadataHandler& origin, Timestamp now) {
  SharedLock lock(structure_mu_);
  ScopedStripe hold(*stripes_[origin.wave_stripe_], this,
                    uint64_t{1} << origin.wave_stripe_);
  if (!hold.engaged()) {
    // A nested wave (fired from inside another wave's refresh) crossing into
    // a stripe another thread's wave holds right now. Blocking here could
    // deadlock two in-flight waves against each other, so defer: the task
    // re-enters PropagateFrom from a worker holding no stripes, which blocks
    // on the contended stripe instead of deferring again. weak_ptr, not
    // &origin: the origin may retire before the task runs. Under overload
    // the scheduler may shed the task — an acceptable loss, since metadata
    // is last-writer-wins and the next event from this origin propagates
    // the same state.
    stats_waves_deferred_.fetch_add(1, std::memory_order_relaxed);
    ScheduleWave(origin.weak_from_this(), /*count_event=*/false);
    return;
  }
  if (storm_damping_enabled_.load(std::memory_order_relaxed) &&
      !AdmitWave(origin, now)) {
    return;
  }
  RunWaveLocked(origin, now);
}

void MetadataManager::ScheduleWave(std::weak_ptr<MetadataHandler> weak,
                                   bool count_event) {
  scheduler_.ScheduleAt(clock().Now(), [this, weak = std::move(weak),
                                        count_event] {
    std::shared_ptr<MetadataHandler> h = weak.lock();
    if (h == nullptr || h->retired()) return;
    if (count_event) stats_events_.fetch_add(1, std::memory_order_relaxed);
    PropagateFrom(*h, clock().Now());
  });
}

void MetadataManager::RunWaveLocked(MetadataHandler& origin, Timestamp now) {
  // Fast path: on an unchanged graph, a wave is one flag test and a linear
  // walk over the cached flattened plan — no set, no map, no Kahn re-run,
  // and zero heap allocations. Plans go stale only under the exclusive
  // structure lock, which every wave excludes by holding it shared, so no
  // plan changes while a wave (nested ones included) walks it.
  MetadataHandler::WavePlan& plan = origin.wave_plan_;
  if (plan.stale) {
    RebuildWavePlan(origin);
    stats_wave_plan_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
  stats_waves_.fetch_add(1, std::memory_order_relaxed);

  if (plan.refresh.empty()) return;
  for (MetadataHandler* h : plan.refresh) {
    RefreshContained(*h, now);
  }
  stats_wave_refreshes_.fetch_add(plan.refresh.size(),
                                  std::memory_order_relaxed);
}

void MetadataManager::RebuildWavePlan(MetadataHandler& origin) {
  // Collect the affected closure: dependents reachable through triggered and
  // on-demand handlers. Periodic handlers update on their own cadence and
  // static handlers never change, so the wave does not continue past them.
  // The scratch is this rebuild's own: the closure in discovery order, and
  // each member's in-degree within the closure (membership = has an entry).
  std::vector<MetadataHandler*> closure;
  std::unordered_map<MetadataHandler*, int> indegree;

  // Iterate a handler's dependents in place (under its dependents lock,
  // rank above the wave stripes) instead of via dependents(), whose snapshot
  // copy would allocate per handler.
  auto for_each_dependent = [](MetadataHandler& h, auto&& fn) {
    MutexLock deps_lock(h.dependents_mu_);
    for (MetadataHandler* d : h.dependents_) fn(d);
  };

  auto discover = [&](MetadataHandler* d) {
    if (indegree.emplace(d, 0).second) closure.push_back(d);
  };
  for_each_dependent(origin, discover);
  for (size_t i = 0; i < closure.size(); ++i) {
    MetadataHandler* h = closure[i];
    if (!h->PropagatesThrough()) continue;
    for_each_dependent(*h, discover);
  }

  MetadataHandler::WavePlan& plan = origin.wave_plan_;
  plan.refresh.clear();
  plan.stale = false;
  if (closure.empty()) return;

  // Order the closure topologically (dependencies-first): Kahn's algorithm
  // over the dependency edges restricted to the closure, with the ready
  // queue consumed by index. This is the paper's "update order is basically
  // determined by the inverted dependency graph" (§3.2.3); flattening only
  // the triggered handlers into the plan guarantees each refreshes at most
  // once per wave with all its affected inputs already up to date.
  for (MetadataHandler* h : closure) {
    int& deg = indegree[h];
    for (const auto& dep : h->dependencies()) {
      deg += static_cast<int>(indegree.count(dep.get()));
    }
  }
  std::vector<MetadataHandler*> ready;
  for (MetadataHandler* h : closure) {
    if (indegree[h] == 0) ready.push_back(h);
  }
  for (size_t i = 0; i < ready.size(); ++i) {
    MetadataHandler* h = ready[i];
    if (h->mechanism() == UpdateMechanism::kTriggered) {
      plan.refresh.push_back(h);
    }
    for_each_dependent(*h, [&](MetadataHandler* d) {
      auto it = indegree.find(d);
      if (it != indegree.end() && --it->second == 0) ready.push_back(d);
    });
  }
  assert(ready.size() == closure.size() && "dependency cycle in propagation");
}

// ---------------------------------------------------------------------------
// Triggered-wave storm damping
// ---------------------------------------------------------------------------

void MetadataManager::EnableStormDamping(const StormDampingOptions& opts) {
  assert(opts.max_waves_per_sec > 0 && "damping needs a positive wave budget");
  // Writing the options must quiesce every stripe: admission decisions read
  // them under whichever stripe the wave holds. All stripes, ascending, from
  // an empty hold set, so no two all-stripes writers can deadlock.
  for (auto& s : stripes_) s->lock();
  storm_options_ = opts;
  storm_damping_enabled_.store(true, std::memory_order_relaxed);
  for (auto& s : stripes_) s->unlock();
}

void MetadataManager::DisableStormDamping() {
  storm_damping_enabled_.store(false, std::memory_order_relaxed);
}

bool MetadataManager::AdmitWave(MetadataHandler& origin, Timestamp now) {
  // Runs under the origin's wave stripe, which guards its StormState.
  MetadataHandler::StormState& st = origin.storm_;
  const StormDampingOptions& opt = storm_options_;

  // Token refill since the last admission decision; the bucket starts full
  // so the first waves of a well-behaved origin are never deferred.
  if (st.refill_at == kTimestampNever) {
    st.tokens = opt.burst;
  } else if (now > st.refill_at) {
    double refill = static_cast<double>(now - st.refill_at) *
                    opt.max_waves_per_sec / 1e6;
    st.tokens = std::min(opt.burst, st.tokens + refill);
  }
  st.refill_at = now;

  if (!st.breaker && st.tokens >= 1.0) {
    st.tokens -= 1.0;
    st.coalesced_run = 0;
    return true;
  }

  // Out of budget (or batch-refreshing): coalesce. Metadata is
  // last-writer-wins, so the deferred flush wave sees everything the
  // collapsed events would have propagated.
  ++st.coalesced_run;
  stats_events_coalesced_.fetch_add(1, std::memory_order_relaxed);

  if (!st.breaker && st.coalesced_run >= opt.breaker_trip_coalesced) {
    st.breaker = true;
    stats_breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    stats_breakers_now_.fetch_add(1, std::memory_order_relaxed);
    // Batch refresh starts on the breaker cadence now — not at the possibly
    // distant next-token instant a pre-trip flush was deferred to.
    st.flush_task.Cancel();
    st.flush_scheduled = false;
  }

  if (!st.flush_scheduled) {
    Timestamp when;
    if (st.breaker) {
      when = now + opt.breaker_batch_interval;
    } else {
      // Earliest instant the bucket holds a whole token again.
      double deficit = std::max(0.0, 1.0 - st.tokens);
      when = now +
             static_cast<Duration>(deficit * 1e6 / opt.max_waves_per_sec) + 1;
    }
    ScheduleStormFlush(origin, when);
  }
  return false;
}

void MetadataManager::ScheduleStormFlush(MetadataHandler& origin,
                                         Timestamp when) {
  std::weak_ptr<MetadataHandler> weak = origin.weak_from_this();
  TaskHandle task =
      scheduler_.ScheduleAt(when, [this, weak] { FlushStorm(weak); });
  // A rejected admission (scheduler queue bound under overload) sheds the
  // flush; flush_scheduled stays false so the next event tries again.
  origin.storm_.flush_scheduled = task.valid();
  origin.storm_.flush_task = std::move(task);
}

void MetadataManager::FlushStorm(const std::weak_ptr<MetadataHandler>& weak) {
  std::shared_ptr<MetadataHandler> origin = weak.lock();
  if (origin == nullptr || origin->retired()) return;
  Timestamp now = clock().Now();

  SharedLock lock(structure_mu_);
  // A flush runs as a scheduler task, so it holds no stripes on entry: the
  // ScopedStripe blocks (top-level) and always engages.
  ScopedStripe hold(*stripes_[origin->wave_stripe_], this,
                    uint64_t{1} << origin->wave_stripe_);
  MetadataHandler::StormState& st = origin->storm_;
  st.flush_scheduled = false;

  if (st.coalesced_run == 0) {
    // A whole deferral interval without one event: the storm is over.
    if (st.breaker) {
      st.breaker = false;
      stats_breakers_now_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }

  st.coalesced_run = 0;
  st.tokens = std::max(0.0, st.tokens - 1.0);
  stats_storm_flushes_.fetch_add(1, std::memory_order_relaxed);
  RunWaveLocked(*origin, now);

  // A tripped origin keeps batch-refreshing on the breaker cadence; the
  // quiet-interval branch above is the only way out while damping is on.
  // With damping off this was the last flush: reset the breaker, or it would
  // still coalesce the origin's first event after re-enabling.
  if (!st.breaker) return;
  if (storm_damping_enabled_.load(std::memory_order_relaxed)) {
    ScheduleStormFlush(*origin, now + storm_options_.breaker_batch_interval);
  } else {
    st.breaker = false;
    stats_breakers_now_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Periodic cadence
// ---------------------------------------------------------------------------

void MetadataManager::SetPeriodicCadence(double factor,
                                         double staleness_cap_factor) {
  MutexLock lock(periodic_mu_);
  cadence_factor_ = factor;
  cadence_cap_factor_ = staleness_cap_factor;
  ApplyCadenceLocked();
}

size_t MetadataManager::periodic_roster_size() const {
  MutexLock lock(periodic_mu_);
  return periodic_roster_.size();
}

void MetadataManager::ApplyCadenceLocked() {
  uint64_t stretched = 0;
  for (const std::weak_ptr<MetadataHandler>& weak : periodic_roster_) {
    std::shared_ptr<MetadataHandler> h = weak.lock();
    if (h == nullptr || h->retired()) continue;
    auto* ph = static_cast<PeriodicMetadataHandler*>(h.get());
    Duration before = ph->effective_period();
    Duration after =
        ph->ApplyDegradationFactor(cadence_factor_, cadence_cap_factor_);
    if (after > before) {
      stats_period_stretches_.fetch_add(1, std::memory_order_relaxed);
    } else if (after < before) {
      stats_period_restores_.fetch_add(1, std::memory_order_relaxed);
    }
    if (after > ph->period()) ++stretched;
  }
  stats_stretched_now_.store(stretched, std::memory_order_relaxed);
}

MetadataManagerStats MetadataManager::stats() const {
  MetadataManagerStats s;
  s.subscriptions = stats_subscriptions_.load(std::memory_order_relaxed);
  s.unsubscriptions = stats_unsubscriptions_.load(std::memory_order_relaxed);
  s.handlers_created = stats_created_.load(std::memory_order_relaxed);
  s.handlers_removed = stats_removed_.load(std::memory_order_relaxed);
  s.active_handlers = stats_active_.load(std::memory_order_relaxed);
  s.evaluations = stats_evaluations_.load(std::memory_order_relaxed);
  s.waves = stats_waves_.load(std::memory_order_relaxed);
  s.wave_refreshes = stats_wave_refreshes_.load(std::memory_order_relaxed);
  s.events_fired = stats_events_.load(std::memory_order_relaxed);
  s.wave_plan_rebuilds =
      stats_wave_plan_rebuilds_.load(std::memory_order_relaxed);
  // Every wave that did not rebuild walked its cached plan (saturating: the
  // two relaxed counters are read one after the other).
  s.wave_plan_hits = s.waves - std::min(s.waves, s.wave_plan_rebuilds);
  s.wave_stripes = stripes_.size();
  s.waves_deferred = stats_waves_deferred_.load(std::memory_order_relaxed);
  s.eval_failures = stats_eval_failures_.load(std::memory_order_relaxed);
  s.evals_skipped = stats_evals_skipped_.load(std::memory_order_relaxed);
  s.degradations = stats_degradations_.load(std::memory_order_relaxed);
  s.quarantines = stats_quarantines_.load(std::memory_order_relaxed);
  s.recoveries = stats_recoveries_.load(std::memory_order_relaxed);
  s.degraded_handlers = stats_degraded_now_.load(std::memory_order_relaxed);
  s.quarantined_handlers =
      stats_quarantined_now_.load(std::memory_order_relaxed);
  s.periods_stretched = stats_stretched_now_.load(std::memory_order_relaxed);
  s.period_stretches = stats_period_stretches_.load(std::memory_order_relaxed);
  s.period_restores = stats_period_restores_.load(std::memory_order_relaxed);
  s.events_coalesced = stats_events_coalesced_.load(std::memory_order_relaxed);
  s.storm_flushes = stats_storm_flushes_.load(std::memory_order_relaxed);
  s.breaker_trips = stats_breaker_trips_.load(std::memory_order_relaxed);
  s.breakers_active = stats_breakers_now_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

Status MetadataManager::EnableDurability(
    const DurabilityConfig& config,
    const std::vector<MetadataProvider*>& providers) {
  MutexLock lock(durability_admin_mu_);
  if (durability_owner_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  auto engine = std::make_unique<MetadataDurability>(*this, config);
  Status started = engine->Start();
  if (!started.ok()) return started;
  for (MetadataProvider* p : providers) {
    if (p == nullptr) continue;
    // Attach so the provider's teardown reaches OnProviderTeardown —
    // the roster must never hold a pointer to a silently-dead provider.
    if (p->metadata_manager() == nullptr) p->AttachMetadataManager(this);
    engine->RegisterProvider(p);
  }
  // Capture everything that existed before enabling: the initial checkpoint
  // is the durable baseline the journal then extends.
  Status ckpt = engine->CheckpointNow();
  if (!ckpt.ok()) {
    engine->Stop();
    return ckpt;
  }
  durability_.store(engine.get(), std::memory_order_release);
  durability_owner_ = std::move(engine);
  return Status::OK();
}

void MetadataManager::DisableDurability() {
  std::unique_ptr<MetadataDurability> engine;
  {
    MutexLock lock(durability_admin_mu_);
    if (durability_owner_ == nullptr) return;
    durability_.store(nullptr, std::memory_order_release);
    engine = std::move(durability_owner_);
  }
  // Stop outside the admin lock: Stop() waits for the flush/checkpoint
  // tasks, which must not be serialized against a concurrent RecoverFrom.
  engine->Stop();
  MutexLock lock(durability_admin_mu_);
  // Hooks that loaded the raw pointer just before the swap may still be
  // inside the (now stopped) engine; keep it alive for the manager's
  // lifetime rather than freeing under them.
  durability_graveyard_.push_back(std::move(engine));
}

Result<RecoveryReport> MetadataManager::RecoverFrom(
    const std::string& dir, const std::vector<MetadataProvider*>& providers) {
  if (durability_enabled()) {
    return Status::FailedPrecondition(
        "disable durability before recovering (recover first, then enable)");
  }
  return MetadataDurability::Recover(*this, dir, providers);
}

void MetadataManager::InjectRecoveredValue(MetadataHandler& handler,
                                           const MetadataValue& v,
                                           Timestamp ts) {
  handler.StoreValue(v, ts);
}

}  // namespace pipes
