/// \file plans.h
/// \brief Figure 3 plans, the seeded join input, and the benchmark's own
/// reference computations (join counts and cost-model formulas), kept apart
/// from the program under test.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/graph.h"
#include "stream/operators/join.h"
#include "stream/operators/window.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace e2e {

using pipes::Duration;
using pipes::Timestamp;

/// splitmix64 finaliser: the benchmark's only source of pseudo-randomness.
uint64_t Mix(uint64_t x);

/// Small seeded generator over Mix, for choosing plan parameters.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_ += 0x9E3779B97F4A7C15ULL); }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// One Figure 3 plan: two sources -> two time windows -> hash sliding-window
/// join -> counting sink, with the cost-model estimates registered.
struct JoinPlan {
  std::shared_ptr<pipes::ManualSource> left, right;
  std::shared_ptr<pipes::TimeWindowOperator> lwin, rwin;
  std::shared_ptr<pipes::SlidingWindowJoin> join;
  std::shared_ptr<pipes::CountingSink> sink;

  /// Every node of the plan plus the join's sweep-area modules.
  std::vector<pipes::MetadataProvider*> Providers() const;
};

/// Builds and wires one plan in `graph`; labels are prefixed by `prefix`.
/// `key_hint` is the cost model's candidate-reduction factor K.
JoinPlan BuildJoinPlan(pipes::QueryGraph& graph, const std::string& prefix,
                       Duration window, double key_hint, double predicate_cost);

// --- Join input --------------------------------------------------------------

/// The seeded join input: element g goes to plan g % plans; within a plan,
/// elements alternate left/right and each left/right pair shares a logical
/// timestamp, advancing by `interval` (the event-time rate per source is
/// 1 / interval). Keys are uniform over [0, keys).
struct JoinInput {
  uint64_t seed = 0;
  int plans = 4;
  int64_t keys = 10000;
  Duration window = pipes::kMicrosPerSecond;
  Duration interval = 50;

  struct Element {
    int plan;
    int side;  // 0 = left, 1 = right
    Timestamp ts;
    int64_t key;
  };
  Element At(uint64_t g) const;
};

/// Reference result count per plan for the first `n` elements: pairs of a
/// left and a right element with equal keys whose timestamps lie less than
/// the window apart. Independent of the engine.
std::vector<uint64_t> ReferenceJoinCounts(const JoinInput& input, uint64_t n);

// --- Cost-model reference ----------------------------------------------------

/// The Figure 3 formulas of costmodel.h, computed from the benchmark's own
/// parameters: rates r (elements/s), windows w (us), predicate cost c and
/// candidate reduction K.
struct EstimateParams {
  double r1 = 0, r2 = 0, c = 1, k = 1;
};
double ExpectedStateSize(const EstimateParams& p, Duration w1, Duration w2);
double ExpectedCpuUsage(const EstimateParams& p, Duration w1, Duration w2);

/// Relative comparison at 1e-12: the formulas are re-computed here in the
/// program's operation order, so only a real difference exceeds it.
bool SameEstimate(double got, double want);

/// A plan whose source rates are redefined (paper §4.4.2) to on-demand items
/// returning the benchmark's chosen rates, so every estimate is known.
struct EstimatePlan {
  JoinPlan plan;
  EstimateParams params;
  Duration w_left = 0, w_right = 0;  ///< current window sizes

  /// Every est_state_size / est_cpu_usage value some pair of `window_set`
  /// yields, sorted; the reader's allowed values.
  std::vector<double> allowed_state, allowed_cpu;
};

/// Builds an estimate plan with seeded rates, predicate cost, K and initial
/// windows drawn from `window_set`.
EstimatePlan BuildEstimatePlan(pipes::QueryGraph& graph,
                               const std::string& prefix, SeededRng& rng,
                               const std::vector<Duration>& window_set);

/// True if `value` is (at 1e-12) one of the sorted `allowed` values.
bool InAllowed(const std::vector<double>& allowed, double value);

}  // namespace e2e
