#include "plans.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "costmodel/costmodel.h"
#include "metadata/descriptor.h"
#include "metadata/keys.h"
#include "trace.h"

namespace e2e {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<pipes::MetadataProvider*> JoinPlan::Providers() const {
  std::vector<pipes::MetadataProvider*> out = {
      left.get(), right.get(), lwin.get(), rwin.get(), join.get(), sink.get()};
  out.push_back(&join->left_area());
  out.push_back(&join->right_area());
  return out;
}

JoinPlan BuildJoinPlan(pipes::QueryGraph& g, const std::string& prefix,
                       Duration window, double key_hint,
                       double predicate_cost) {
  JoinPlan p;
  p.left = g.AddNode<pipes::ManualSource>(prefix + ".left", pipes::PairSchema());
  p.right =
      g.AddNode<pipes::ManualSource>(prefix + ".right", pipes::PairSchema());
  p.lwin = g.AddNode<pipes::TimeWindowOperator>(prefix + ".lwin", window);
  p.rwin = g.AddNode<pipes::TimeWindowOperator>(prefix + ".rwin", window);
  p.join = g.AddNode<pipes::SlidingWindowJoin>(prefix + ".join", 0, 0,
                                               predicate_cost);
  p.sink = g.AddNode<pipes::CountingSink>(prefix + ".sink");
  (void)g.Connect(*p.left, *p.lwin);
  (void)g.Connect(*p.right, *p.rwin);
  (void)g.Connect(*p.lwin, *p.join);
  (void)g.Connect(*p.rwin, *p.join);
  (void)g.Connect(*p.join, *p.sink);
  Span span(SpanKind::kCostmodelRegister);
  (void)pipes::costmodel::RegisterWindowJoinPlanEstimates(
      *p.left, *p.right, *p.lwin, *p.rwin, *p.join, key_hint);
  return p;
}

JoinInput::Element JoinInput::At(uint64_t g) const {
  Element e;
  e.plan = static_cast<int>(g % static_cast<uint64_t>(plans));
  uint64_t j = g / static_cast<uint64_t>(plans);
  e.side = static_cast<int>(j & 1);
  e.ts = static_cast<Timestamp>(j >> 1) * interval;
  e.key = static_cast<int64_t>(
      Mix(seed ^ Mix((static_cast<uint64_t>(e.plan) << 48) ^ j)) %
      static_cast<uint64_t>(keys));
  return e;
}

std::vector<uint64_t> ReferenceJoinCounts(const JoinInput& input, uint64_t n) {
  // Per (plan, side, key): timestamps in arrival order plus a head index;
  // elements older than the window are skipped from the head when probed.
  struct Lane {
    std::vector<Timestamp> ts;
    size_t head = 0;
  };
  size_t lanes_per_plan = 2 * static_cast<size_t>(input.keys);
  std::vector<Lane> lanes(static_cast<size_t>(input.plans) * lanes_per_plan);
  std::vector<uint64_t> counts(static_cast<size_t>(input.plans), 0);
  for (uint64_t g = 0; g < n; ++g) {
    JoinInput::Element e = input.At(g);
    size_t base = static_cast<size_t>(e.plan) * lanes_per_plan;
    Lane& other = lanes[base + static_cast<size_t>(1 - e.side) *
                                   static_cast<size_t>(input.keys) +
                        static_cast<size_t>(e.key)];
    while (other.head < other.ts.size() &&
           other.ts[other.head] + input.window <= e.ts) {
      ++other.head;
    }
    counts[static_cast<size_t>(e.plan)] += other.ts.size() - other.head;
    if (other.head > 64 && other.head * 2 > other.ts.size()) {
      other.ts.erase(other.ts.begin(),
                     other.ts.begin() + static_cast<ptrdiff_t>(other.head));
      other.head = 0;
    }
    lanes[base + static_cast<size_t>(e.side) * static_cast<size_t>(input.keys) +
          static_cast<size_t>(e.key)]
        .ts.push_back(e.ts);
  }
  return counts;
}

namespace {

double Seconds(Duration w) { return static_cast<double>(w) / 1e6; }

}  // namespace

double ExpectedStateSize(const EstimateParams& p, Duration w1, Duration w2) {
  double n1 = p.r1 * Seconds(w1);
  double n2 = p.r2 * Seconds(w2);
  return n1 + n2;
}

double ExpectedCpuUsage(const EstimateParams& p, Duration w1, Duration w2) {
  double n1 = p.r1 * Seconds(w1);
  double n2 = p.r2 * Seconds(w2);
  double cand_rate = (p.r1 * n2 + p.r2 * n1) / p.k;
  return p.c * cand_rate + (p.r1 + p.r2);
}

bool SameEstimate(double got, double want) {
  return std::fabs(got - want) <=
         1e-12 * std::max(std::fabs(got), std::fabs(want));
}

bool InAllowed(const std::vector<double>& allowed, double value) {
  auto it = std::lower_bound(allowed.begin(), allowed.end(),
                             value * (1.0 - 1e-12));
  return it != allowed.end() && SameEstimate(*it, value);
}

EstimatePlan BuildEstimatePlan(pipes::QueryGraph& g, const std::string& prefix,
                               SeededRng& rng,
                               const std::vector<Duration>& window_set) {
  EstimatePlan ep;
  ep.params.r1 = static_cast<double>(rng.Int(500, 20000));
  ep.params.r2 = static_cast<double>(rng.Int(500, 20000));
  ep.params.c = static_cast<double>(rng.Int(4, 16)) / 8.0;
  ep.params.k = static_cast<double>(rng.Int(10, 1000));
  size_t n = window_set.size();
  ep.w_left = window_set[rng.Next() % n];
  ep.w_right = window_set[rng.Next() % n];
  ep.plan = BuildJoinPlan(g, prefix, ep.w_left, ep.params.k, ep.params.c);
  ep.plan.rwin->set_window_size(ep.w_right);
  for (auto [source, rate] :
       {std::pair{ep.plan.left.get(), ep.params.r1},
        std::pair{ep.plan.right.get(), ep.params.r2}}) {
    (void)source->metadata_registry().Redefine(
        pipes::MetadataDescriptor::OnDemand(pipes::keys::kOutputRate)
            .WithEvaluator([rate](pipes::EvalContext&) -> pipes::MetadataValue {
              return rate;
            })
            .WithDescription("output rate chosen by the benchmark [1/s]"));
  }
  for (Duration a : window_set) {
    for (Duration b : window_set) {
      ep.allowed_state.push_back(ExpectedStateSize(ep.params, a, b));
      ep.allowed_cpu.push_back(ExpectedCpuUsage(ep.params, a, b));
    }
  }
  std::sort(ep.allowed_state.begin(), ep.allowed_state.end());
  std::sort(ep.allowed_cpu.begin(), ep.allowed_cpu.end());
  return ep;
}

}  // namespace e2e
