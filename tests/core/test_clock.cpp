// Clock semantics: alignment, sharing, unregistration, re-registration,
// fast-forward through idle phases.
#include <gtest/gtest.h>

#include "core/sst.h"
#include "../test_components.h"

namespace sst {
namespace {

using testing::Ticker;

TEST(Clock, TicksAtPeriodMultiples) {
  Simulation sim(SimConfig{.end_time = 100 * kNanosecond});
  Params p;
  p.set("clock", "1GHz");  // 1ns period
  p.set("limit", "5");
  auto* t = sim.add_component<Ticker>("t", p);
  sim.run();
  ASSERT_EQ(t->ticks, 5u);
  ASSERT_EQ(t->tick_times.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t->tick_times[i], (i + 1) * kNanosecond);
  }
}

TEST(Clock, FrequencyStringParsing) {
  Simulation sim(SimConfig{.end_time = kMicrosecond});
  Params p;
  p.set("clock", "250MHz");  // 4ns period
  p.set("limit", "3");
  auto* t = sim.add_component<Ticker>("t", p);
  sim.run();
  ASSERT_EQ(t->tick_times.size(), 3u);
  EXPECT_EQ(t->tick_times[0], 4 * kNanosecond);
  EXPECT_EQ(t->tick_times[2], 12 * kNanosecond);
}

TEST(Clock, SharedClockSingleTickStream) {
  // Two components at the same frequency share one Clock: the engine
  // dispatches one tick event per cycle, not two.
  Simulation sim(SimConfig{.end_time = 10 * kNanosecond});
  Params p;
  p.set("clock", "1GHz");
  p.set("limit", "5");
  auto* a = sim.add_component<Ticker>("a", p);
  auto* b = sim.add_component<Ticker>("b", p);
  const RunStats stats = sim.run();
  EXPECT_EQ(a->ticks, 5u);
  EXPECT_EQ(b->ticks, 5u);
  EXPECT_EQ(stats.clock_ticks, 5u);  // shared dispatches
}

TEST(Clock, StopsWhenAllHandlersDone) {
  // After both tickers hit their limits the clock stops scheduling, so
  // the simulation terminates without reaching end_time.
  Simulation sim;
  Params p;
  p.set("clock", "1GHz");
  p.set("limit", "7");
  sim.add_component<Ticker>("a", p);
  const RunStats stats = sim.run();
  EXPECT_EQ(stats.final_time, 7 * kNanosecond);
}

class SleepWake final : public Component {
 public:
  explicit SleepWake(Params&) {
    self_ = configure_self_link("wake", 100 * kNanosecond,
                                [this](EventPtr) { start_phase2(); });
    register_clock(kNanosecond, [this](Cycle) {
      ++phase1_ticks;
      if (phase1_ticks == 3) {
        self_->send(make_event<NullEvent>());
        return true;  // sleep
      }
      return false;
    });
    register_as_primary();
  }

  void start_phase2() {
    wake_time = now();
    register_clock(kNanosecond, [this](Cycle) {
      ++phase2_ticks;
      phase2_times.push_back(now());
      if (phase2_ticks == 2) {
        primary_ok_to_end_sim();
        return true;
      }
      return false;
    });
  }

  std::uint64_t phase1_ticks = 0;
  std::uint64_t phase2_ticks = 0;
  SimTime wake_time = 0;
  std::vector<SimTime> phase2_times;

 private:
  Link* self_;
};

TEST(Clock, ReRegistrationAfterIdleFastForwards) {
  Simulation sim;
  Params p;
  auto* c = sim.add_component<SleepWake>("c", p);
  const RunStats stats = sim.run();
  EXPECT_EQ(c->phase1_ticks, 3u);
  EXPECT_EQ(c->phase2_ticks, 2u);
  // Woke at 3ns + 100ns; next aligned edge is 104ns.
  EXPECT_EQ(c->wake_time, 103 * kNanosecond);
  ASSERT_EQ(c->phase2_times.size(), 2u);
  EXPECT_EQ(c->phase2_times[0], 104 * kNanosecond);
  // No ticks were dispatched during the idle window.
  EXPECT_LT(stats.clock_ticks, 10u);
}

TEST(Clock, ZeroPeriodRejected) {
  Simulation sim;
  class BadClock final : public Component {
   public:
    explicit BadClock(Params&) {
      register_clock(SimTime{0}, [](Cycle) { return true; });
    }
  };
  Params p;
  EXPECT_THROW(sim.add_component<BadClock>("bad", p), ConfigError);
}

TEST(Clock, DifferentPeriodsInterleave) {
  Simulation sim(SimConfig{.end_time = 12 * kNanosecond});
  Params fast;
  fast.set("clock", "1GHz");
  fast.set("limit", "1000");
  Params slow;
  slow.set("clock", "250MHz");  // 4ns
  slow.set("limit", "1000");
  auto* f = sim.add_component<Ticker>("fast", fast);
  auto* s = sim.add_component<Ticker>("slow", slow);
  sim.run();
  EXPECT_EQ(f->ticks, 12u);
  EXPECT_EQ(s->ticks, 3u);  // 4,8,12 ns edges
}

// A clock that never goes idle allocates its tick event exactly once and
// recycles it for every later cycle.
TEST(Clock, TickPoolAllocatesOnce) {
  Simulation sim;
  Params p;
  sim.add_component<Ticker>("tick", p);
  const RunStats stats = sim.run();
  EXPECT_EQ(stats.pool_allocs, 1u);
  EXPECT_GT(stats.pool_recycles, 0u);
  EXPECT_EQ(stats.pool_allocs + stats.pool_recycles, stats.clock_ticks);
}

}  // namespace
}  // namespace sst
