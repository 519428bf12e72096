// Watchdog and deadlock detection: hung or deadlocked models must die
// with a diagnostic report instead of hanging the process or ending the
// run silently.
#include <gtest/gtest.h>

#include "core/sst.h"
#include "../test_components.h"

namespace sst {
namespace {

using sst::testing::IntEvent;

/// Primary component that waits for a message which never comes.
class Waiter final : public Component {
 public:
  explicit Waiter(Params&) {
    configure_link("port", [](EventPtr) {}, /*optional=*/true);
    register_as_primary();
  }
};

/// Resends to itself at zero latency forever: simulated time never
/// advances, so only the wall-clock watchdog can stop the run.
class Spinner final : public Component {
 public:
  explicit Spinner(Params&) {
    self_ = configure_self_link("loop", 0, [this](EventPtr) {
      self_->send(make_event<IntEvent>(0));
    });
    register_as_primary();
  }
  void setup() override { self_->send(make_event<IntEvent>(0)); }

 private:
  Link* self_;
};

TEST(Deadlock, SerialDeadlockThrowsDiagnosticReport) {
  Simulation sim;
  Params p;
  sim.add_component<Waiter>("stuck_a", p);
  sim.add_component<Waiter>("stuck_b", p);
  try {
    sim.run();
    FAIL() << "deadlocked run should throw";
  } catch (const SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stuck_a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("stuck_b"), std::string::npos) << msg;
  }
}

TEST(Deadlock, ParallelDeadlockThrowsDiagnosticReport) {
  Simulation sim{SimConfig{.num_ranks = 2}};
  Params p;
  sim.add_component<Waiter>("stuck_a", p);
  sim.add_component<Waiter>("stuck_b", p);
  try {
    sim.run();
    FAIL() << "deadlocked run should throw";
  } catch (const SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  }
}

TEST(Deadlock, EventsUntilEndTimeAreNotADeadlock) {
  // A primary that never finishes but still has events queued when
  // end_time fires is a normal truncated run, not a deadlock.
  class Heartbeat final : public Component {
   public:
    explicit Heartbeat(Params&) {
      self_ = configure_self_link("beat", kNanosecond, [this](EventPtr) {
        self_->send(make_event<IntEvent>(0));
      });
      register_as_primary();
    }
    void setup() override { self_->send(make_event<IntEvent>(0)); }

   private:
    Link* self_;
  };
  Simulation sim{SimConfig{.end_time = kMicrosecond}};
  Params p;
  sim.add_component<Heartbeat>("hb", p);
  EXPECT_NO_THROW(sim.run());
}

TEST(Deadlock, CompletedRunIsNotADeadlock) {
  Simulation sim;
  Params p;
  sim.add_component<testing::Pinger>("ping", p);
  sim.add_component<testing::Echo>("echo", p);
  sim.connect("ping", "port", "echo", "port", kNanosecond);
  EXPECT_NO_THROW(sim.run());
}

TEST(Watchdog, KillsWallClockSpin) {
  Simulation sim{SimConfig{.watchdog_seconds = 0.3}};
  Params p;
  sim.add_component<Spinner>("spin", p);
  try {
    sim.run();
    FAIL() << "watchdog should have fired";
  } catch (const SimulationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spin"), std::string::npos) << msg;
  }
}

TEST(Watchdog, GenerousBudgetLeavesRunUntouched) {
  Simulation sim{SimConfig{.watchdog_seconds = 30.0}};
  Params p;
  p.set("count", "50");
  auto* pinger = sim.add_component<testing::Pinger>("ping", p);
  sim.add_component<testing::Echo>("echo", p);
  sim.connect("ping", "port", "echo", "port", kNanosecond);
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(pinger->round_trips.size(), 50u);
}

}  // namespace
}  // namespace sst
