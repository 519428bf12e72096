// Online rebalancer: controller properties (no-op below threshold,
// bounded, improving, deterministic) and the engine-level determinism
// contract — migrations are model-invisible at any rank count, clock
// handlers and metrics samples included.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../test_components.h"
#include "core/sst.h"
#include "core/rebalance.h"
#include "net/hotspot.h"

namespace sst {
namespace {

// ---------------------------------------------------------------------
// Controller properties (pure planner).
// ---------------------------------------------------------------------

std::vector<ComponentLoad> make_loads(
    const std::vector<std::pair<RankId, std::uint64_t>>& per_comp) {
  std::vector<ComponentLoad> loads;
  for (std::size_t i = 0; i < per_comp.size(); ++i) {
    loads.push_back({static_cast<ComponentId>(i), per_comp[i].first,
                     per_comp[i].second});
  }
  return loads;
}

std::vector<std::uint64_t> rank_totals(const std::vector<ComponentLoad>& loads,
                                       std::uint32_t ranks) {
  std::vector<std::uint64_t> totals(ranks, 0);
  for (const auto& l : loads) totals[l.rank] += l.events;
  return totals;
}

TEST(RebalanceController, ValidatesConfig) {
  EXPECT_THROW(RebalanceController({.threshold = 1.0}, 2), ConfigError);
  EXPECT_THROW(RebalanceController({.threshold = 0.5}, 2), ConfigError);
  EXPECT_THROW(RebalanceController({.period = 0}, 2), ConfigError);
  EXPECT_THROW(RebalanceController({.max_moves = 0}, 2), ConfigError);
  EXPECT_THROW(RebalanceController({}, 0), ConfigError);
  EXPECT_NO_THROW(RebalanceController({}, 1));
}

TEST(RebalanceController, ImbalanceIsMaxOverMean) {
  EXPECT_DOUBLE_EQ(RebalanceController::imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(RebalanceController::imbalance({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(RebalanceController::imbalance({4, 4, 4, 4}), 1.0);
  EXPECT_DOUBLE_EQ(RebalanceController::imbalance({8, 0}), 2.0);
  EXPECT_DOUBLE_EQ(RebalanceController::imbalance({6, 2, 2, 2}), 2.0);
}

TEST(RebalanceController, NoOpWhenBalanced) {
  RebalanceController ctl({.threshold = 1.5, .min_events = 16}, 2);
  const auto loads = make_loads({{0, 500}, {0, 500}, {1, 500}, {1, 500}});
  EXPECT_TRUE(ctl.plan(loads).empty());
}

TEST(RebalanceController, NoOpBelowMinEvents) {
  RebalanceController ctl({.threshold = 1.5, .min_events = 256}, 2);
  // Wildly imbalanced but tiny: startup noise, not signal.
  const auto loads = make_loads({{0, 100}, {1, 1}});
  EXPECT_TRUE(ctl.plan(loads).empty());
}

TEST(RebalanceController, NoOpOnSingleRank) {
  RebalanceController ctl({.threshold = 1.5, .min_events = 1}, 1);
  const auto loads = make_loads({{0, 10000}, {0, 1}});
  EXPECT_TRUE(ctl.plan(loads).empty());
}

TEST(RebalanceController, BoundedByMaxMoves) {
  RebalanceController ctl({.threshold = 1.2, .max_moves = 3,
                           .min_events = 1}, 4);
  std::vector<std::pair<RankId, std::uint64_t>> comps;
  for (int i = 0; i < 32; ++i) comps.push_back({0, 100});  // all on rank 0
  const auto plan = ctl.plan(make_loads(comps));
  EXPECT_FALSE(plan.empty());
  EXPECT_LE(plan.size(), 3u);
}

TEST(RebalanceController, PlanImprovesImbalance) {
  RebalanceController ctl({.threshold = 1.5, .max_moves = 8,
                           .min_events = 1}, 4);
  auto loads = make_loads({{0, 400}, {0, 300}, {0, 200}, {0, 100},
                           {1, 50}, {2, 50}, {3, 0}});
  const double before = RebalanceController::imbalance(rank_totals(loads, 4));
  const auto plan = ctl.plan(loads);
  ASSERT_FALSE(plan.empty());
  for (const auto& m : plan) {
    ASSERT_LT(m.comp, loads.size());
    EXPECT_EQ(loads[m.comp].rank, m.from);
    EXPECT_NE(m.from, m.to);
    loads[m.comp].rank = m.to;
  }
  const double after = RebalanceController::imbalance(rank_totals(loads, 4));
  EXPECT_LT(after, before);
}

TEST(RebalanceController, DeterministicWithLowestIdTieBreaks) {
  RebalanceController ctl({.threshold = 1.2, .max_moves = 2,
                           .min_events = 1}, 2);
  // Two identical candidates on the hot rank; the plan must pick the
  // lowest component id and target the lowest-id cold rank.
  const auto loads = make_loads({{0, 100}, {0, 100}, {1, 0}});
  const auto a = ctl.plan(loads);
  const auto b = ctl.plan(loads);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].comp, b[i].comp);
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
  }
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front().comp, 0u);
  EXPECT_EQ(a.front().to, 1u);
}

TEST(RebalanceController, MovesNeverOvershoot) {
  RebalanceController ctl({.threshold = 1.2, .max_moves = 8,
                           .min_events = 1}, 2);
  // One huge component dominating the hot rank must NOT move: shifting
  // it would just swap which rank is hot.
  const auto loads = make_loads({{0, 1000}, {0, 10}, {1, 100}});
  for (const auto& m : ctl.plan(loads)) EXPECT_NE(m.comp, 0u);
}

// ---------------------------------------------------------------------
// Engine-level contract on the moving-hotspot model.
// ---------------------------------------------------------------------

struct HotspotResult {
  std::vector<std::uint64_t> received;
  std::vector<std::uint64_t> forwarded;
  RunStats stats;
};

HotspotResult run_hotspot(unsigned ranks, bool rebalance) {
  SimConfig cfg{.num_ranks = ranks,
                .end_time = 60 * kMicrosecond,
                .seed = 13,
                .partition = PartitionStrategy::kMinCut};
  cfg.rebalance = rebalance;
  Simulation sim(cfg);
  constexpr unsigned kX = 8, kY = 8;
  Params base;
  base.set("size_x", std::to_string(kX));
  base.set("size_y", std::to_string(kY));
  base.set("min_delay", "20ns");
  base.set("self_delay", "5ns");
  base.set("service_hops", "8");
  base.set("hot_span", "1");
  base.set("bias_pct", "85");
  base.set("drift_period", "10us");
  base.set("initial_tokens", "4");
  auto name = [](unsigned i, unsigned j) {
    return "h" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      Params p = base;
      p.set("x", std::to_string(i));
      p.set("y", std::to_string(j));
      sim.add_component<net::HotspotNode>(name(i, j), p);
    }
  }
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      sim.connect(name(i, j), "port0", name((i + 1) % kX, j), "port1",
                  200 * kNanosecond);
      sim.connect(name(i, j), "port2", name(i, (j + 1) % kY), "port3",
                  200 * kNanosecond);
    }
  }
  HotspotResult r;
  r.stats = sim.run();
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      auto* n = dynamic_cast<net::HotspotNode*>(
          sim.find_component(name(i, j)));
      r.received.push_back(n->received());
      r.forwarded.push_back(n->forwarded());
    }
  }
  return r;
}

TEST(Rebalance, ConservativeMatchesSerialExactly) {
  const HotspotResult serial = run_hotspot(1, false);
  const HotspotResult rebal4 = run_hotspot(4, true);
  ASSERT_GT(serial.stats.events_processed, 10000u);
  // The point of the test: migrations actually happened, and the model
  // could not tell.
  EXPECT_GT(rebal4.stats.rebalances, 0u);
  EXPECT_GT(rebal4.stats.components_migrated, 0u);
  EXPECT_EQ(serial.received, rebal4.received);
  EXPECT_EQ(serial.forwarded, rebal4.forwarded);
  EXPECT_EQ(serial.stats.events_processed, rebal4.stats.events_processed);
}

TEST(Rebalance, IdenticalAcrossRankCounts) {
  const HotspotResult r2 = run_hotspot(2, true);
  const HotspotResult r8 = run_hotspot(8, true);
  EXPECT_EQ(r2.received, r8.received);
  EXPECT_EQ(r2.forwarded, r8.forwarded);
  EXPECT_EQ(r2.stats.events_processed, r8.stats.events_processed);
}

TEST(Rebalance, DeterministicRunToRun) {
  const HotspotResult a = run_hotspot(4, true);
  const HotspotResult b = run_hotspot(4, true);
  EXPECT_EQ(a.received, b.received);
  // Window boundaries are a pure function of event times, so the
  // migration schedule itself reproduces exactly.
  EXPECT_EQ(a.stats.rebalances, b.stats.rebalances);
  EXPECT_EQ(a.stats.components_migrated, b.stats.components_migrated);
}

TEST(Rebalance, StaticRunHasNoMigrations) {
  const HotspotResult r = run_hotspot(4, false);
  EXPECT_EQ(r.stats.rebalances, 0u);
  EXPECT_EQ(r.stats.components_migrated, 0u);
}

// ---------------------------------------------------------------------
// Clocked components: handlers move to the destination rank's clock.
// ---------------------------------------------------------------------

/// Counts its 1 MHz ticks in a statistic, so a metrics snapshot shows on
/// which side of its rank's 1 us sampler the handler runs.
class CountingTicker final : public Component {
 public:
  CountingTicker() {
    Counter* ticks = stat_counter("ticks");
    register_clock(kMicrosecond, [ticks](Cycle) {
      ticks->add();
      return false;
    });
  }
};

/// Eight CountingTickers pinned to `pins` (ignored serially), rebalanced
/// at more than one rank; returns the metrics JSONL.
std::string counting_metrics(unsigned ranks, const std::vector<RankId>& pins) {
  SimConfig cfg;
  cfg.num_ranks = ranks;
  cfg.end_time = 400 * kMicrosecond;
  cfg.rebalance = ranks > 1;
  cfg.metrics = true;
  cfg.metrics_period = kMicrosecond;
  Simulation sim(cfg);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const std::string name = std::string("c") + std::to_string(i);
    sim.add_component<CountingTicker>(name);
    if (ranks > 1) sim.set_component_rank(name, pins[i]);
  }
  const RunStats stats = sim.run();
  if (ranks > 1) {
    EXPECT_GT(stats.components_migrated, 0u);
  }
  std::ostringstream os;
  sim.write_metrics_jsonl(os);
  return os.str();
}

/// The first line where two JSONL streams differ, or "" when they match.
std::string first_difference(const std::string& got, const std::string& want) {
  std::istringstream g(got);
  std::istringstream w(want);
  std::string gl;
  std::string wl;
  for (;;) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) return "";
    if (more_g != more_w || gl != wl) {
      return "got  " + (more_g ? gl : "<end>") + "\nwant " +
             (more_w ? wl : "<end>");
    }
  }
}

TEST(Rebalance, MigratedClocksKeepTheirMetricsSamples) {
  const std::vector<RankId> seven_one = {0, 0, 0, 0, 0, 0, 0, 1};
  const std::string serial = counting_metrics(1, seven_one);
  ASSERT_NE(serial.find("\"c7\""), std::string::npos);
  // A moved handler stays in front of the destination's sampler, so
  // each snapshot counts the tick at its own time, as serially.
  EXPECT_EQ(first_difference(counting_metrics(2, seven_one), serial), "");
  // Rank 1 owns nothing at setup; components moved there are sampled.
  EXPECT_EQ(
      first_difference(counting_metrics(2, std::vector<RankId>(8, 0)), serial),
      "");
}

struct TickerRun {
  std::vector<std::vector<SimTime>> tick_times;
  RunStats stats;
};

/// Nine tickers: 3 GHz, 700 MHz and seven at 1 GHz.  Six of the 1 GHz
/// ones are pinned to rank 0, and one of those unregisters after
/// 150,000 ticks.  The first rebalance pass moves the 3 GHz ticker to
/// an idle clock and empties its source clock, and moves a 1 GHz ticker
/// to a rank whose 1 GHz clock is armed.
TickerRun run_tickers(unsigned ranks) {
  SimConfig cfg;
  cfg.num_ranks = ranks;
  cfg.end_time = 300 * kMicrosecond;
  cfg.rebalance = ranks > 1;
  Simulation sim(cfg);
  struct Spec {
    const char* clock;
    const char* limit;
    bool pinned;
  };
  constexpr const char* kForever = "1000000000";
  const Spec specs[] = {
      {"3GHz", kForever, false}, {"700MHz", kForever, false},
      {"1GHz", kForever, true},  {"1GHz", kForever, true},
      {"1GHz", kForever, true},  {"1GHz", kForever, true},
      {"1GHz", kForever, true},  {"1GHz", "150000", true},
      {"1GHz", kForever, false},
  };
  std::vector<testing::Ticker*> tickers;
  for (const Spec& spec : specs) {
    const std::string name = std::string("t") + std::to_string(tickers.size());
    Params p;
    p.set("clock", spec.clock);
    p.set("limit", spec.limit);
    tickers.push_back(sim.add_component<testing::Ticker>(name, p));
    if (spec.pinned) sim.set_component_rank(name, 0);
  }
  TickerRun run;
  run.stats = sim.run();
  for (const testing::Ticker* t : tickers) {
    run.tick_times.push_back(t->tick_times);
  }
  return run;
}

TEST(Rebalance, ClockedComponentsMigrate) {
  const TickerRun serial = run_tickers(1);
  ASSERT_EQ(serial.tick_times[7].size(), 150000u);
  // Each rank's clock dispatches its own ticks, so events_processed
  // differs from serial; the tick times must not.
  for (unsigned ranks : {2U, 4U}) {
    const TickerRun r = run_tickers(ranks);
    EXPECT_GT(r.stats.components_migrated, 0u) << ranks << " ranks";
    for (std::size_t i = 0; i < serial.tick_times.size(); ++i) {
      EXPECT_TRUE(r.tick_times[i] == serial.tick_times[i])
          << "t" << i << " at " << ranks << " ranks: "
          << r.tick_times[i].size() << " ticks, serial "
          << serial.tick_times[i].size();
    }
  }
}

}  // namespace
}  // namespace sst
