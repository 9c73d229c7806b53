/// Ablation A1 — topological vs. naive-recursive update propagation
/// (the design choice of §3.2.3: "updates have to be performed in the right
/// order" along the inverted dependency graph).
///
/// A diamond lattice of triggered handlers of growing depth sits on top of
/// one on-demand base item. One event notification is fired per mode and
/// two quantities are compared:
///  - refreshes per wave (topological: exactly one per affected handler;
///    naive recursion: one per *path*, exponential in diamond depth), and
///  - glitches: a "difference" handler computes left-right of two handlers
///    that always carry equal values; any nonzero observation during a wave
///    is an inconsistent intermediate state. Topological order never
///    produces one.
///
/// The topological column is the manager's own wave. The naive column is a
/// walker in this file that recurses over the same handler graph through
/// the public handler API.

#include <cinttypes>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

#include "bench/support.h"
#include "metadata/handler.h"

namespace pipes::bench {
namespace {

struct ProviderOnly : MetadataProvider {
  using MetadataProvider::MetadataProvider;
};

struct WaveResult {
  uint64_t refreshes;
  uint64_t glitches;
};

/// The ablation baseline: on every update, recurse into the dependents at
/// once and re-evaluate each triggered one reached, without deduplication.
/// Diamonds make this exponential and let a handler see one input updated
/// and the other not yet. Evaluated values live in the walker; handlers not
/// refreshed yet are read with MetadataManager::PeekValue, on-demand ones
/// with Get() (they compute on access).
class NaiveWalker {
 public:
  explicit NaiveWalker(Timestamp now) : now_(now) {}

  /// Refreshes `h`'s dependents depth-first.
  void Propagate(MetadataHandler& h, int depth = 0) {
    // Recursion bound as a safety net; the dependency graph is acyclic.
    if (depth > 64) return;
    for (MetadataHandler* d : h.dependents()) {
      if (d->mechanism() == UpdateMechanism::kTriggered) {
        Context ctx(*this, *d);
        values_[d] = d->descriptor().evaluator()(ctx);
        ++refreshes_;
        Propagate(*d, depth + 1);
      } else if (d->mechanism() == UpdateMechanism::kOnDemand) {
        Propagate(*d, depth + 1);
      }
    }
  }

  uint64_t refreshes() const { return refreshes_; }

 private:
  class Context final : public EvalContext {
   public:
    Context(NaiveWalker& walker, MetadataHandler& h) : walker_(walker), h_(h) {}
    MetadataProvider& provider() const override { return h_.owner(); }
    Timestamp now() const override { return walker_.now_; }
    Duration elapsed() const override { return now() - h_.last_updated(); }
    size_t dep_count() const override { return h_.dependencies().size(); }
    MetadataValue Dep(size_t i) const override {
      return walker_.Value(*h_.dependencies()[i]);
    }
    MetadataValue Previous() const override { return walker_.Value(h_); }
    uint64_t eval_index() const override { return h_.eval_count(); }

   private:
    NaiveWalker& walker_;
    MetadataHandler& h_;
  };

  MetadataValue Value(MetadataHandler& h) {
    if (h.mechanism() == UpdateMechanism::kOnDemand) return h.Get();
    auto it = values_.find(&h);
    return it != values_.end() ? it->second : MetadataManager::PeekValue(h);
  }

  Timestamp now_;
  std::unordered_map<const MetadataHandler*, MetadataValue> values_;
  uint64_t refreshes_ = 0;
};

/// Diamond lattice: base -> (l0, r0) -> join0 -> (l1, r1) -> join1 -> ...
/// Every joinK checks that its two inputs agree.
WaveResult RunLattice(bool naive, int depth) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  ProviderOnly p("p");
  auto& reg = p.metadata_registry();
  auto glitches = std::make_shared<uint64_t>(0);
  auto base = std::make_shared<double>(0.0);

  (void)reg.Define(MetadataDescriptor::OnDemand("j0").WithEvaluator(
      [base](EvalContext&) { return MetadataValue(*base); }));
  for (int k = 0; k < depth; ++k) {
    std::string in = "j" + std::to_string(k);
    std::string l = "l" + std::to_string(k);
    std::string r = "r" + std::to_string(k);
    std::string out = "j" + std::to_string(k + 1);
    for (const std::string& side : {l, r}) {
      (void)reg.Define(MetadataDescriptor::Triggered(side)
                           .DependsOnSelf(in)
                           .WithEvaluator([](EvalContext& ctx) {
                             return MetadataValue(ctx.DepDouble(0) + 1);
                           }));
    }
    (void)reg.Define(
        MetadataDescriptor::Triggered(out)
            .DependsOnSelf(l)
            .DependsOnSelf(r)
            .WithEvaluator([glitches](EvalContext& ctx) -> MetadataValue {
              double lhs = ctx.DepDouble(0);
              double rhs = ctx.DepDouble(1);
              if (lhs != rhs) ++*glitches;  // inconsistent intermediate state
              return MetadataValue(std::max(lhs, rhs));
            }));
  }

  auto sub = manager.Subscribe(p, "j" + std::to_string(depth)).value();
  *base = 1.0;
  if (naive) {
    NaiveWalker walker(manager.clock().Now());
    walker.Propagate(*reg.GetHandler("j0"));
    return WaveResult{walker.refreshes(), *glitches};
  }
  uint64_t refreshes_before = manager.stats().wave_refreshes;
  manager.FireEvent(p, "j0");
  return WaveResult{manager.stats().wave_refreshes - refreshes_before,
                    *glitches};
}

void Run() {
  Banner("A1", "propagation: topological wave vs. naive recursion",
         "topological: refreshes = handlers, zero glitches; naive: "
         "refreshes grow exponentially with diamond depth and intermediate "
         "states are inconsistent");

  TablePrinter table({"diamond depth", "handlers", "topo refreshes",
                      "topo glitches", "naive refreshes", "naive glitches"});
  for (int depth : {1, 2, 3, 4, 6, 8}) {
    WaveResult topo = RunLattice(/*naive=*/false, depth);
    WaveResult naive = RunLattice(/*naive=*/true, depth);
    table.AddRow({std::to_string(depth), std::to_string(3 * depth),
                  TablePrinter::Fmt(topo.refreshes),
                  TablePrinter::Fmt(topo.glitches),
                  TablePrinter::Fmt(naive.refreshes),
                  TablePrinter::Fmt(naive.glitches)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace pipes::bench

int main() {
  pipes::bench::Run();
  return 0;
}
