/// Load shedding (motivation 2): sheds when measured CPU exceeds capacity,
/// relaxes when load normalizes.

#include <gtest/gtest.h>

#include <memory>

#include "runtime/load_shedder.h"
#include "runtime/overload_governor.h"
#include "stream/engine.h"
#include "stream/operators/join.h"
#include "stream/operators/window.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace pipes {
namespace {

struct ShedPlan {
  StreamEngine engine{EngineMode::kVirtualTime, 1, Seconds(1)};
  std::shared_ptr<SyntheticSource> left, right;
  std::shared_ptr<RandomDropOperator> ldrop, rdrop;
  std::shared_ptr<TimeWindowOperator> lwin, rwin;
  std::shared_ptr<SlidingWindowJoin> join;
  std::shared_ptr<CountingSink> sink;

  ShedPlan() {
    auto& g = engine.graph();
    left = g.AddNode<SyntheticSource>(
        "l", PairSchema(), std::make_unique<ConstantArrivals>(Millis(5)),
        MakeUniformPairGenerator(10), 1);
    right = g.AddNode<SyntheticSource>(
        "r", PairSchema(), std::make_unique<ConstantArrivals>(Millis(5)),
        MakeUniformPairGenerator(10), 2);
    ldrop = g.AddNode<RandomDropOperator>("ldrop");
    rdrop = g.AddNode<RandomDropOperator>("rdrop");
    lwin = g.AddNode<TimeWindowOperator>("lw", Seconds(2));
    rwin = g.AddNode<TimeWindowOperator>("rw", Seconds(2));
    join = g.AddNode<SlidingWindowJoin>("join", EquiJoinPredicate(0, 0));
    sink = g.AddNode<CountingSink>("sink");
    EXPECT_TRUE(g.Connect(*left, *ldrop).ok());
    EXPECT_TRUE(g.Connect(*right, *rdrop).ok());
    EXPECT_TRUE(g.Connect(*ldrop, *lwin).ok());
    EXPECT_TRUE(g.Connect(*rdrop, *rwin).ok());
    EXPECT_TRUE(g.Connect(*lwin, *join).ok());
    EXPECT_TRUE(g.Connect(*rwin, *join).ok());
    EXPECT_TRUE(g.Connect(*join, *sink).ok());
    left->Start();
    right->Start();
  }
};

TEST(LoadShedderTest, ShedsWhenOverCapacity) {
  ShedPlan p;
  // Unshedded join load: 2*200*(1 + 200*2) ~ 160k work units/s.
  LoadShedder::Options opt;
  opt.cpu_capacity = 40000.0;
  opt.control_period = Seconds(1);
  LoadShedder shedder(p.engine.metadata(), p.engine.scheduler(), opt);
  ASSERT_TRUE(shedder.MonitorLoad(*p.join).ok());
  shedder.AddShedPoint(*p.ldrop);
  shedder.AddShedPoint(*p.rdrop);
  shedder.Start();

  p.engine.RunFor(Seconds(40));
  EXPECT_GT(shedder.activation_count(), 0u);
  EXPECT_GT(shedder.current_drop(), 0.0);
  EXPECT_GT(p.ldrop->dropped_count(), 0u);
  // Load is brought near/below capacity (quadratic effect of dropping).
  EXPECT_LT(shedder.last_load(), opt.cpu_capacity * 1.5);
}

TEST(LoadShedderTest, RelaxesWhenLoadDisappears) {
  ShedPlan p;
  LoadShedder::Options opt;
  opt.cpu_capacity = 40000.0;
  opt.control_period = Seconds(1);
  opt.relax_step = 0.2;
  LoadShedder shedder(p.engine.metadata(), p.engine.scheduler(), opt);
  ASSERT_TRUE(shedder.MonitorLoad(*p.join).ok());
  shedder.AddShedPoint(*p.ldrop);
  shedder.AddShedPoint(*p.rdrop);
  shedder.Start();
  p.engine.RunFor(Seconds(20));
  ASSERT_GT(shedder.current_drop(), 0.0);

  // Input dries up: load falls to zero, drop probability must decay to 0.
  p.left->Stop();
  p.right->Stop();
  p.engine.RunFor(Seconds(20));
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.0);
  EXPECT_DOUBLE_EQ(p.ldrop->drop_probability(), 0.0);
}

TEST(LoadShedderTest, NoSheddingUnderCapacity) {
  ShedPlan p;
  LoadShedder::Options opt;
  opt.cpu_capacity = 1e9;
  opt.control_period = Seconds(1);
  LoadShedder shedder(p.engine.metadata(), p.engine.scheduler(), opt);
  ASSERT_TRUE(shedder.MonitorLoad(*p.join).ok());
  shedder.AddShedPoint(*p.ldrop);
  shedder.Start();
  p.engine.RunFor(Seconds(20));
  EXPECT_EQ(shedder.activation_count(), 0u);
  EXPECT_DOUBLE_EQ(p.ldrop->drop_probability(), 0.0);
}

// Drives the shedder off an overload governor's pressure state alone:
// brownout raises the drop probability, pressured holds it, and — the clamp
// regression — a raise in the same tick a relax would have fired starts from
// the clamped value instead of a partially-relaxed (or negative) one.
TEST(LoadShedderPressureTest, PressureRaisesHoldsAndClampsBeforeRaising) {
  VirtualTimeScheduler scheduler;
  MetadataManager manager(scheduler);
  auto overloaded = std::make_shared<bool>(true);
  OverloadControlOptions gov_opts;
  gov_opts.governor_period = 100 * kMicrosPerMilli;
  gov_opts.ticks_to_pressure = 1;
  gov_opts.ticks_to_brownout = 1;
  gov_opts.ticks_to_recover = 1;
  OverloadGovernor governor(manager, scheduler, gov_opts);
  governor.SetPressureProbe([overloaded] { return *overloaded; });

  LoadShedder::Options opts;
  opts.cpu_capacity = 1e9;  // CPU and QoS signals stay healthy throughout.
  opts.relax_step = 0.07;
  opts.pressure_step = 0.1;
  LoadShedder shedder(manager, scheduler, opts);
  shedder.WatchPressure(governor);

  // Two governor ticks under a hot probe: normal -> pressured -> brownout.
  scheduler.RunFor(200 * kMicrosPerMilli);
  ASSERT_EQ(governor.state(), PressureState::kBrownout);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.1);
  EXPECT_EQ(shedder.activation_count(), 1u);

  // Calm probe: brownout -> pressured -> normal, then one relax step.
  *overloaded = false;
  scheduler.RunFor(200 * kMicrosPerMilli);
  ASSERT_EQ(governor.state(), PressureState::kNormal);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.03);

  // Back to brownout. The raise must start from 0.03 exactly: the broken
  // relax-then-raise ordering would first subtract relax_step (0.03 - 0.07,
  // clamped or not) and yield 0.10 or less instead of 0.13.
  *overloaded = true;
  scheduler.RunFor(200 * kMicrosPerMilli);
  ASSERT_EQ(governor.state(), PressureState::kBrownout);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.13);
  EXPECT_GE(shedder.current_drop(), 0.0);

  // One calm tick leaves the machine in kPressured: no raise, but also no
  // relax — shedding holds while the metadata layer is still degraded.
  *overloaded = false;
  scheduler.RunFor(100 * kMicrosPerMilli);
  ASSERT_EQ(governor.state(), PressureState::kPressured);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.13);

  // Full recovery: relax resumes and clamps at zero, never below.
  scheduler.RunFor(100 * kMicrosPerMilli);
  ASSERT_EQ(governor.state(), PressureState::kNormal);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.06);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.0);
  shedder.ControlStep();
  EXPECT_DOUBLE_EQ(shedder.current_drop(), 0.0);
}

}  // namespace
}  // namespace pipes
