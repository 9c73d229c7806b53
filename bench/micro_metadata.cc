/// M1 — google-benchmark micro-operations of the metadata framework:
/// per-mechanism Get() cost, probe overhead when monitoring is off vs. on,
/// subscribe/unsubscribe cycles, and propagation waves.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/scheduler.h"
#include "metadata/handler.h"
#include "metadata/manager.h"
#include "metadata/derived.h"
#include "metadata/probes.h"
#include "stream/expr.h"

namespace pipes {
namespace {

struct ProviderOnly : MetadataProvider {
  using MetadataProvider::MetadataProvider;
};

struct Fixture {
  VirtualTimeScheduler scheduler;
  MetadataManager manager{scheduler};
  ProviderOnly provider{"p"};
};

void BM_GetStatic(benchmark::State& state) {
  Fixture fx;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::Static("x", 42));
  auto sub = fx.manager.Subscribe(fx.provider, "x").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.Get());
  }
}
BENCHMARK(BM_GetStatic);

void BM_GetOnDemand(benchmark::State& state) {
  Fixture fx;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::OnDemand("x").WithEvaluator(
          [](EvalContext&) { return MetadataValue(1.0); }));
  auto sub = fx.manager.Subscribe(fx.provider, "x").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.Get());
  }
}
BENCHMARK(BM_GetOnDemand);

void BM_GetPeriodic(benchmark::State& state) {
  Fixture fx;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::Periodic("x", Seconds(1))
          .WithEvaluator([](EvalContext&) { return MetadataValue(1.0); }));
  auto sub = fx.manager.Subscribe(fx.provider, "x").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.Get());
  }
}
BENCHMARK(BM_GetPeriodic);

void BM_GetTriggered(benchmark::State& state) {
  Fixture fx;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::Triggered("x").WithEvaluator(
          [](EvalContext&) { return MetadataValue(1.0); }));
  auto sub = fx.manager.Subscribe(fx.provider, "x").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.Get());
  }
}
BENCHMARK(BM_GetTriggered);

void BM_ProbeDisabled(benchmark::State& state) {
  CounterProbe probe;
  for (auto _ : state) {
    probe.Increment();
  }
  benchmark::DoNotOptimize(probe.Value());
}
BENCHMARK(BM_ProbeDisabled);

void BM_ProbeEnabled(benchmark::State& state) {
  CounterProbe probe;
  probe.Enable();
  for (auto _ : state) {
    probe.Increment();
  }
  benchmark::DoNotOptimize(probe.Value());
}
BENCHMARK(BM_ProbeEnabled);

void DefineChain(ProviderOnly& p, int depth) {
  (void)p.metadata_registry().Define(
      MetadataDescriptor::OnDemand("c0").WithEvaluator(
          [](EvalContext&) { return MetadataValue(1.0); }));
  for (int i = 1; i < depth; ++i) {
    (void)p.metadata_registry().Define(
        MetadataDescriptor::OnDemand("c" + std::to_string(i))
            .DependsOnSelf("c" + std::to_string(i - 1))
            .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
  }
}

void BM_SubscribeUnsubscribeChain(benchmark::State& state) {
  Fixture fx;
  int depth = static_cast<int>(state.range(0));
  DefineChain(fx.provider, depth);
  std::string top = "c" + std::to_string(depth - 1);
  for (auto _ : state) {
    auto sub = fx.manager.Subscribe(fx.provider, top).value();
    benchmark::DoNotOptimize(sub.handler());
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_SubscribeUnsubscribeChain)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_SubscribeShared(benchmark::State& state) {
  // Re-subscription to an already provided item: the O(1) fast path.
  Fixture fx;
  DefineChain(fx.provider, 32);
  auto keep = fx.manager.Subscribe(fx.provider, "c31").value();
  for (auto _ : state) {
    auto sub = fx.manager.Subscribe(fx.provider, "c31").value();
    benchmark::DoNotOptimize(sub.handler());
  }
}
BENCHMARK(BM_SubscribeShared);

void BM_PropagationWave(benchmark::State& state) {
  // A chain of triggered handlers refreshed per event.
  Fixture fx;
  int depth = static_cast<int>(state.range(0));
  double value = 0.0;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::OnDemand("t0").WithEvaluator(
          [&value](EvalContext&) { return MetadataValue(value); }));
  for (int i = 1; i < depth; ++i) {
    (void)fx.provider.metadata_registry().Define(
        MetadataDescriptor::Triggered("t" + std::to_string(i))
            .DependsOnSelf("t" + std::to_string(i - 1))
            .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
  }
  auto sub =
      fx.manager.Subscribe(fx.provider, "t" + std::to_string(depth - 1))
          .value();
  for (auto _ : state) {
    value += 1.0;
    fx.manager.FireEvent(fx.provider, "t0");
  }
  state.SetItemsProcessed(state.iterations() * (depth - 1));
}
BENCHMARK(BM_PropagationWave)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_PropagationWaveRebuild(benchmark::State& state) {
  // Forced slow path: include and exclude a triggered leaf dependent of t0
  // before every event, which marks t0's plan stale, so each wave rebuilds
  // it. The gap to BM_PropagationWave is the price of a structural change
  // (inclusion, exclusion and plan rebuild) per wave.
  Fixture fx;
  int depth = static_cast<int>(state.range(0));
  double value = 0.0;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::OnDemand("t0").WithEvaluator(
          [&value](EvalContext&) { return MetadataValue(value); }));
  for (int i = 1; i < depth; ++i) {
    (void)fx.provider.metadata_registry().Define(
        MetadataDescriptor::Triggered("t" + std::to_string(i))
            .DependsOnSelf("t" + std::to_string(i - 1))
            .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
  }
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::Triggered("leaf")
          .DependsOnSelf("t0")
          .WithEvaluator([](EvalContext& ctx) { return ctx.Dep(0); }));
  auto sub =
      fx.manager.Subscribe(fx.provider, "t" + std::to_string(depth - 1))
          .value();
  for (auto _ : state) {
    value += 1.0;
    fx.manager.Subscribe(fx.provider, "leaf").value().Reset();
    fx.manager.FireEvent(fx.provider, "t0");
  }
  state.SetItemsProcessed(state.iterations() * (depth - 1));
}
BENCHMARK(BM_PropagationWaveRebuild)->Arg(8)->Arg(32);

void BM_ExprEval(benchmark::State& state) {
  // A realistic filter predicate: (id % 4 == 0) && (value > 0.25).
  using namespace pipes::expr;  // NOLINT
  ExprPtr e = And(Eq(Mod(Col(0), Const(int64_t{4})), Const(int64_t{0})),
                  Gt(Col(1), Const(0.25)));
  Tuple t({Value(int64_t{8}), Value(0.7)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->Eval(t));
  }
}
BENCHMARK(BM_ExprEval);

void BM_DerivedChainRefresh(benchmark::State& state) {
  // One event refreshing a chain of derived statistics: avg -> ewma -> max.
  Fixture fx;
  double value = 0.0;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::OnDemand("src").WithEvaluator(
          [&value](EvalContext&) { return MetadataValue(value); }));
  (void)derived::DefineRunningAverage(fx.provider.metadata_registry(), "avg",
                                      "src");
  (void)derived::DefineEwma(fx.provider.metadata_registry(), "ewma", "avg",
                            0.2);
  (void)derived::DefineMax(fx.provider.metadata_registry(), "max", "ewma");
  auto sub = fx.manager.Subscribe(fx.provider, "max").value();
  for (auto _ : state) {
    value += 1.0;
    fx.manager.FireEvent(fx.provider, "src");
  }
  benchmark::DoNotOptimize(sub.Get());
}
BENCHMARK(BM_DerivedChainRefresh);

void BM_FireEventNoDependents(benchmark::State& state) {
  Fixture fx;
  (void)fx.provider.metadata_registry().Define(
      MetadataDescriptor::OnDemand("x").WithEvaluator(
          [](EvalContext&) { return MetadataValue(1.0); }));
  auto sub = fx.manager.Subscribe(fx.provider, "x").value();
  for (auto _ : state) {
    fx.manager.FireEvent(fx.provider, "x");
  }
}
BENCHMARK(BM_FireEventNoDependents);

}  // namespace
}  // namespace pipes

BENCHMARK_MAIN();
