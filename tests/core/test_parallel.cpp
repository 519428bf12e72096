// Parallel engine: determinism vs. the serial engine, partitioners,
// lookahead computation, window horizons, cross-rank statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/sst.h"
#include "../test_components.h"

namespace sst {
namespace {

using testing::Echo;
using testing::PholdNode;
using testing::Pinger;

struct RingResult {
  std::uint64_t events;
  std::vector<std::uint64_t> received;
  RunStats stats;
};

/// Adds a PHOLD ring of `nodes` nodes.  Every link has 100ns latency, or
/// with `mixed_latency` link i (n_i <-> n_i+1) has (i + 1) * 100ns, so the
/// ranks' cut links differ in latency.
void add_ring(Simulation& sim, unsigned nodes, bool mixed_latency) {
  Params p;
  p.set("fanout", "2");
  p.set("initial_events", "3");
  p.set("min_delay", "10ns");
  for (unsigned i = 0; i < nodes; ++i) {
    sim.add_component<PholdNode>("n" + std::to_string(i), p);
  }
  for (unsigned i = 0; i < nodes; ++i) {
    sim.connect("n" + std::to_string(i), "port0",
                "n" + std::to_string((i + 1) % nodes), "port1",
                (mixed_latency ? i + 1 : 1) * 100 * kNanosecond);
  }
}

RingResult run_ring(unsigned ranks, PartitionStrategy part,
                    unsigned nodes = 8, bool mixed_latency = false) {
  Simulation sim(SimConfig{.num_ranks = ranks,
                           .end_time = 20 * kMicrosecond,
                           .seed = 7,
                           .partition = part});
  add_ring(sim, nodes, mixed_latency);
  RingResult r;
  r.stats = sim.run();
  r.events = r.stats.events_processed;
  for (unsigned i = 0; i < nodes; ++i) {
    r.received.push_back(
        dynamic_cast<PholdNode*>(sim.find_component("n" + std::to_string(i)))
            ->received);
  }
  return r;
}

TEST(Parallel, MatchesSerialExactly) {
  const RingResult serial = run_ring(1, PartitionStrategy::kLinear);
  const RingResult par2 = run_ring(2, PartitionStrategy::kLinear);
  const RingResult par4 = run_ring(4, PartitionStrategy::kLinear);
  EXPECT_GT(serial.events, 100u);
  EXPECT_EQ(serial.received, par2.received);
  EXPECT_EQ(serial.received, par4.received);
  EXPECT_EQ(serial.events, par2.events);
  EXPECT_EQ(serial.events, par4.events);
}

TEST(Parallel, RepeatedParallelRunsIdentical) {
  const RingResult a = run_ring(4, PartitionStrategy::kRoundRobin);
  const RingResult b = run_ring(4, PartitionStrategy::kRoundRobin);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.events, b.events);
}

TEST(Parallel, ResultIndependentOfPartitioning) {
  const RingResult lin = run_ring(2, PartitionStrategy::kLinear);
  const RingResult rr = run_ring(2, PartitionStrategy::kRoundRobin);
  const RingResult mc = run_ring(2, PartitionStrategy::kMinCut);
  EXPECT_EQ(lin.received, rr.received);
  EXPECT_EQ(lin.received, mc.received);
}

TEST(Parallel, LookaheadIsMinCrossRankLatency) {
  const RingResult r = run_ring(2, PartitionStrategy::kLinear);
  EXPECT_EQ(r.stats.lookahead, 100 * kNanosecond);
  EXPECT_GT(r.stats.sync_windows, 0u);
  EXPECT_GT(r.stats.cross_rank_events, 0u);
  EXPECT_GT(r.stats.cut_links, 0u);
}

TEST(Parallel, MinCutCutsFewerLinksThanRoundRobin) {
  // On a ring, contiguous blocks cut exactly 2 bidirectional connections;
  // round-robin cuts every connection.
  const RingResult mc = run_ring(4, PartitionStrategy::kMinCut, 16);
  const RingResult rr = run_ring(4, PartitionStrategy::kRoundRobin, 16);
  EXPECT_LT(mc.stats.cut_links, rr.stats.cut_links);
  EXPECT_LE(mc.stats.cross_rank_events, rr.stats.cross_rank_events);
}

TEST(Parallel, PinnedRanksRespected) {
  Simulation sim(SimConfig{.num_ranks = 2, .end_time = kMicrosecond});
  Params pp;
  pp.set("count", "10");
  sim.add_component<Pinger>("ping", pp);
  Params ep;
  sim.add_component<Echo>("echo", ep);
  sim.connect("ping", "port", "echo", "port", 50 * kNanosecond);
  sim.set_component_rank("ping", 0);
  sim.set_component_rank("echo", 1);
  sim.initialize();
  EXPECT_EQ(sim.find_component("ping")->rank(), 0u);
  EXPECT_EQ(sim.find_component("echo")->rank(), 1u);
  const RunStats stats = sim.run();
  // Every event crossed the partition.
  EXPECT_EQ(stats.cross_rank_events, stats.events_processed);
}

TEST(Parallel, PinToInvalidRankThrows) {
  Simulation sim(SimConfig{.num_ranks = 2});
  Params p;
  sim.add_component<Echo>("a", p);
  EXPECT_THROW(sim.set_component_rank("a", 5), ConfigError);
}

TEST(Parallel, PinUnknownComponentThrows) {
  Simulation sim(SimConfig{.num_ranks = 2});
  Params p;
  sim.add_component<Echo>("a", p);
  sim.add_component<Echo>("b", p);
  sim.connect("a", "port", "b", "port", kNanosecond);
  sim.set_component_rank("zzz", 1);
  EXPECT_THROW(sim.initialize(), ConfigError);
}

TEST(Parallel, PrimaryTerminationAcrossRanks) {
  // Pinger on rank 0, Echo on rank 1: the primary-exit vote must
  // terminate the parallel run.
  Simulation sim(SimConfig{.num_ranks = 2});
  Params pp;
  pp.set("count", "20");
  auto* pinger = sim.add_component<Pinger>("ping", pp);
  Params ep;
  sim.add_component<Echo>("echo", ep);
  sim.connect("ping", "port", "echo", "port", 50 * kNanosecond);
  sim.set_component_rank("ping", 0);
  sim.set_component_rank("echo", 1);
  sim.run();
  EXPECT_EQ(pinger->round_trips.size(), 20u);
}

TEST(Parallel, IndependentPartitionsTerminate) {
  // No cross-rank links at all: the engine must still make progress and
  // terminate (bounded default window).
  Simulation sim(SimConfig{.num_ranks = 2});
  Params pp;
  pp.set("count", "5");
  sim.add_component<Pinger>("ping0", pp);
  Params ep;
  sim.add_component<Echo>("echo0", ep);
  sim.add_component<Pinger>("ping1", pp);
  sim.add_component<Echo>("echo1", ep);
  sim.connect("ping0", "port", "echo0", "port", 10 * kNanosecond);
  sim.connect("ping1", "port", "echo1", "port", 10 * kNanosecond);
  sim.set_component_rank("ping0", 0);
  sim.set_component_rank("echo0", 0);
  sim.set_component_rank("ping1", 1);
  sim.set_component_rank("echo1", 1);
  const RunStats stats = sim.run();
  EXPECT_EQ(stats.cross_rank_events, 0u);
  auto* p0 = dynamic_cast<Pinger*>(sim.find_component("ping0"));
  auto* p1 = dynamic_cast<Pinger*>(sim.find_component("ping1"));
  EXPECT_EQ(p0->round_trips.size(), 5u);
  EXPECT_EQ(p1->round_trips.size(), 5u);
}

TEST(Parallel, ManyRanksMoreThanComponents) {
  // More ranks than components: some ranks stay empty; must not hang.
  Simulation sim(SimConfig{.num_ranks = 6});
  Params pp;
  pp.set("count", "3");
  auto* pinger = sim.add_component<Pinger>("ping", pp);
  Params ep;
  sim.add_component<Echo>("echo", ep);
  sim.connect("ping", "port", "echo", "port", 10 * kNanosecond);
  sim.run();
  EXPECT_EQ(pinger->round_trips.size(), 3u);
}

TEST(Parallel, ZeroRanksRejected) {
  EXPECT_THROW(Simulation sim(SimConfig{.num_ranks = 0}), ConfigError);
}

TEST(Parallel, DrainedRunFinalTimeIndependentOfRankCount) {
  // Two Tickers that unregister after 7 and 3 ticks drain every queue
  // long before end_time: the run ends at the last tick (7ns) at every
  // rank count, not at end_time.
  for (const unsigned ranks : {1u, 2u, 4u}) {
    SimConfig cfg;
    cfg.num_ranks = ranks;
    cfg.end_time = kMicrosecond;
    Simulation sim(cfg);
    Params a;
    a.set("limit", "7");
    sim.add_component<testing::Ticker>("a", a);
    Params b;
    b.set("limit", "3");
    b.set("clock", "500MHz");  // its own clock at every rank count
    sim.add_component<testing::Ticker>("b", b);
    const RunStats stats = sim.run();
    EXPECT_EQ(stats.final_time, 7 * kNanosecond) << ranks << " ranks";
    EXPECT_EQ(stats.events_processed, 10u) << ranks << " ranks";
  }
}

/// Simulated time of every snapshot (the checkpoint header's value) of
/// the 8-node 100ns ring at `ranks` ranks with one snapshot per `period`.
std::vector<SimTime> ring_cut_times(unsigned ranks, SimTime period) {
  SimConfig cfg;
  cfg.num_ranks = ranks;
  cfg.end_time = 20 * kMicrosecond;
  cfg.seed = 7;
  cfg.checkpoint_period = period;
  Simulation sim(cfg);
  add_ring(sim, 8, /*mixed_latency=*/false);
  std::vector<SimTime> cuts;
  sim.set_checkpoint_writer([&cuts](Simulation& s) {
    cuts.push_back(ckpt::CheckpointEngine::sim_time(s));
  });
  sim.run();
  return cuts;
}

TEST(Parallel, CheckpointCutTimesIndependentOfRankCount) {
  // Windows end at each period mark, so every rank count cuts its
  // snapshots after the same events.  30ns is below the 100ns cut-link
  // latency: such a period only ends windows early.
  for (const SimTime period : {3 * kMicrosecond, 30 * kNanosecond}) {
    const std::vector<SimTime> serial = ring_cut_times(1, period);
    ASSERT_GE(serial.size(), 20 * kMicrosecond / period / 2) << period;
    for (std::size_t k = 1; k < serial.size(); ++k) {
      // One snapshot per period interval: each holds only events below
      // its mark, and the next mark lies past the event it stopped at.
      EXPECT_LT(serial[k - 1] / period, serial[k] / period) << period;
    }
    EXPECT_EQ(ring_cut_times(2, period), serial) << period;
    EXPECT_EQ(ring_cut_times(4, period), serial) << period;
  }
}

struct GridResult {
  std::vector<std::uint64_t> received;
  std::uint64_t ticks = 0;
  RunStats stats;
};

/// PHOLD 4x4 torus plus a clocked ticker: exercises the batched
/// cross-rank exchange (every window stages and flushes events) and the
/// clock-tick pool at the same time.
GridResult run_grid(unsigned ranks) {
  Simulation sim(SimConfig{.num_ranks = ranks,
                           .end_time = 30 * kMicrosecond,
                           .seed = 11,
                           .partition = PartitionStrategy::kMinCut});
  constexpr unsigned kSide = 4;
  Params p;
  p.set("fanout", "4");
  p.set("initial_events", "2");
  p.set("min_delay", "20ns");
  auto name = [](unsigned x, unsigned y) {
    return "n" + std::to_string(x) + "_" + std::to_string(y);
  };
  for (unsigned y = 0; y < kSide; ++y) {
    for (unsigned x = 0; x < kSide; ++x) {
      sim.add_component<PholdNode>(name(x, y), p);
    }
  }
  for (unsigned y = 0; y < kSide; ++y) {
    for (unsigned x = 0; x < kSide; ++x) {
      sim.connect(name(x, y), "port0", name((x + 1) % kSide, y), "port1",
                  200 * kNanosecond);
      sim.connect(name(x, y), "port2", name(x, (y + 1) % kSide), "port3",
                  200 * kNanosecond);
    }
  }
  Params tp;
  tp.set("limit", "400");
  auto* ticker = sim.add_component<testing::Ticker>("ticker", tp);
  GridResult r;
  r.stats = sim.run();
  r.ticks = ticker->ticks;
  for (unsigned y = 0; y < kSide; ++y) {
    for (unsigned x = 0; x < kSide; ++x) {
      r.received.push_back(
          dynamic_cast<PholdNode*>(sim.find_component(name(x, y)))->received);
    }
  }
  return r;
}

TEST(Parallel, PooledBatchedExchangeDeterminism) {
  // The pooled tick path and the window-batched exchange must not change
  // a single model-visible value at any rank count.
  const GridResult serial = run_grid(1);
  const GridResult par2 = run_grid(2);
  const GridResult par4 = run_grid(4);
  EXPECT_GT(serial.stats.events_processed, 1000u);
  EXPECT_EQ(serial.received, par2.received);
  EXPECT_EQ(serial.received, par4.received);
  EXPECT_EQ(serial.ticks, par2.ticks);
  EXPECT_EQ(serial.ticks, par4.ticks);
  EXPECT_EQ(serial.stats.events_processed, par2.stats.events_processed);
  EXPECT_EQ(serial.stats.events_processed, par4.stats.events_processed);

  // The tick pool allocated once per clock and recycled every re-arm.
  EXPECT_EQ(serial.stats.pool_allocs, 1u);
  EXPECT_EQ(serial.stats.pool_recycles, serial.ticks - 1);
  EXPECT_EQ(par4.stats.pool_allocs, 1u);

  // Serial runs never stage; parallel runs moved all cross-rank traffic
  // through batched flushes.
  EXPECT_EQ(serial.stats.exchange_flushes, 0u);
  EXPECT_GT(par2.stats.exchange_flushes, 0u);
  EXPECT_GT(par4.stats.exchange_flushes, 0u);
  EXPECT_GT(par4.stats.cross_rank_events, 0u);
}

// ---- window horizons (Simulation::next_horizon) -------------------------

TEST(SyncMode, UniformRingWindowCountPinned) {
  // With one cut-link latency the exact causal horizon is global_min +
  // lookahead, so the window count equals the fixed-lookahead engine's
  // (measured before the exact horizon replaced it: 195 at 2 and 4
  // ranks).  Window boundaries are a pure function of event times.
  const RingResult par2 = run_ring(2, PartitionStrategy::kLinear);
  const RingResult par4 = run_ring(4, PartitionStrategy::kLinear);
  EXPECT_EQ(par2.stats.sync_windows, 195u);
  EXPECT_EQ(par4.stats.sync_windows, 195u);
}

TEST(SyncMode, MixedLatencyRingSyncsLessAndMatchesSerial) {
  // At 4 linear ranks the cut links have 200/400/600/800ns latencies, so
  // ranks whose outgoing cut links are slow no longer cap the window at
  // global_min + 200ns.  The fixed-lookahead engine ran 93 windows here.
  const RingResult serial = run_ring(1, PartitionStrategy::kLinear, 8, true);
  const RingResult par4 = run_ring(4, PartitionStrategy::kLinear, 8, true);
  EXPECT_EQ(par4.stats.lookahead, 200 * kNanosecond);
  EXPECT_LT(par4.stats.sync_windows, 93u);
  EXPECT_GT(serial.events, 100u);
  EXPECT_EQ(serial.received, par4.received);
  EXPECT_EQ(serial.events, par4.events);
}

TEST(SyncMode, WindowCountDeterministicRunToRun) {
  const RingResult a = run_ring(4, PartitionStrategy::kLinear, 8, true);
  const RingResult b = run_ring(4, PartitionStrategy::kLinear, 8, true);
  EXPECT_EQ(a.stats.sync_windows, b.stats.sync_windows);
  EXPECT_EQ(a.received, b.received);
}

/// Sum of engine.rankN `name` over the ranks of a --profile-engine run.
double engine_sum(const Simulation& sim, unsigned ranks, const char* name) {
  double total = 0.0;
  for (unsigned r = 0; r < ranks; ++r) {
    const auto* stat = dynamic_cast<const Accumulator*>(
        sim.stats().find("engine.rank" + std::to_string(r), name));
    EXPECT_NE(stat, nullptr) << name;
    if (stat != nullptr) total += stat->sum();
  }
  return total;
}

struct CheckpointedWait {
  unsigned snapshots = 0;
  std::uint64_t windows = 0;
  double wait_s = 0.0;     // engine.rankN barrier_wait_seconds, summed
  double release_s = 0.0;  // engine.rankN barrier_release_seconds, summed
};

/// The 2-rank ring with 1us links (about 20 windows) checkpointing every
/// 5us through a writer that sleeps `write` per snapshot.
CheckpointedWait checkpointed_ring(std::chrono::milliseconds write) {
  SimConfig cfg{.num_ranks = 2,
                .end_time = 20 * kMicrosecond,
                .seed = 7,
                .partition = PartitionStrategy::kLinear};
  cfg.profile_engine = true;
  cfg.checkpoint_period = 5 * kMicrosecond;
  Simulation sim(cfg);
  Params p;
  p.set("fanout", "2");
  p.set("initial_events", "3");
  p.set("min_delay", "10ns");
  for (unsigned i = 0; i < 8; ++i) {
    sim.add_component<PholdNode>("n" + std::to_string(i), p);
  }
  for (unsigned i = 0; i < 8; ++i) {
    sim.connect("n" + std::to_string(i), "port0",
                "n" + std::to_string((i + 1) % 8), "port1", kMicrosecond);
  }
  CheckpointedWait out;
  sim.set_checkpoint_writer([&](Simulation&) {
    ++out.snapshots;
    std::this_thread::sleep_for(write);
  });
  out.windows = sim.run().sync_windows;
  out.wait_s = engine_sum(sim, 2, "barrier_wait_seconds");
  out.release_s = engine_sum(sim, 2, "barrier_release_seconds");
  return out;
}

TEST(SyncMode, BarrierWaitExcludesCheckpointIo) {
  // Regression: checkpoint writes happen while the other ranks are parked
  // at the window barrier.  The watchdog already credits that pause
  // (ckpt_pause_ns_); the --profile-engine barrier-wait accounting must
  // subtract the same credit, or every snapshot's I/O time shows up as
  // phantom synchronization cost.  The same run with a writer that
  // returns at once books the genuine wait, which grows with host load;
  // only the difference is the snapshots' share.
  constexpr auto kSleep = std::chrono::milliseconds(70);
  const CheckpointedWait quiet = checkpointed_ring({});
  const CheckpointedWait slept = checkpointed_ring(kSleep);
  ASSERT_GE(slept.snapshots, 3u);
  ASSERT_EQ(slept.snapshots, quiet.snapshots);
  ASSERT_EQ(slept.windows, quiet.windows);
  EXPECT_LE(slept.windows, 25u);
  // Without the credit the parked rank books every write in full; with
  // it the difference stays below half of the injected write time.
  const double written_s =
      slept.snapshots * std::chrono::duration<double>(kSleep).count();
  EXPECT_LT(slept.wait_s - quiet.wait_s, 0.5 * written_s)
      << "snapshot I/O leaked into barrier_wait_seconds (" << slept.snapshots
      << " snapshots, " << written_s << "s written)";
  // The write runs after the last arrival, so it would land in the
  // release part of the wait.
  EXPECT_LT(slept.release_s - quiet.release_s, 0.5 * written_s)
      << "snapshot I/O leaked into barrier_release_seconds";
}

TEST(SyncMode, BarrierWaitSplitsAtLastArrival) {
  // A busy ring pinned to rank 0 and an idle node on rank 1: rank 1 has
  // no events, so it waits for rank 0 at every window (imbalance), while
  // rank 0 arrives last and waits only for the release.  No cut link, so
  // every window spans the 10us cap and holds thousands of events.
  SimConfig cfg{.num_ranks = 2, .end_time = 200 * kMicrosecond, .seed = 3};
  cfg.profile_engine = true;
  cfg.metrics_period = 50 * kMicrosecond;
  cfg.metrics = true;
  Simulation sim(cfg);
  Params p;
  p.set("fanout", "2");
  p.set("initial_events", "20");
  p.set("min_delay", "10ns");
  for (unsigned i = 0; i < 16; ++i) {
    const std::string name = "n" + std::to_string(i);
    sim.add_component<PholdNode>(name, p);
    sim.set_component_rank(name, 0);
  }
  for (unsigned i = 0; i < 16; ++i) {
    sim.connect("n" + std::to_string(i), "port0",
                "n" + std::to_string((i + 1) % 16), "port1",
                100 * kNanosecond);
  }
  Params idle;
  sim.add_component<PholdNode>("idle", idle);
  sim.set_component_rank("idle", 1);
  const RunStats stats = sim.run();
  EXPECT_GE(stats.sync_windows, 20u);

  double imbalance[2];
  for (unsigned r = 0; r < 2; ++r) {
    const std::string comp = "engine.rank" + std::to_string(r);
    const auto* wait = dynamic_cast<const Accumulator*>(
        sim.stats().find(comp, "barrier_wait_seconds"));
    const auto* release = dynamic_cast<const Accumulator*>(
        sim.stats().find(comp, "barrier_release_seconds"));
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(release, nullptr);
    EXPECT_LE(release->sum(), wait->sum()) << comp;
    EXPECT_GE(release->sum(), 0.0) << comp;
    imbalance[r] = wait->sum() - release->sum();
  }
  EXPECT_GT(imbalance[1], imbalance[0])
      << "rank 1 (no events) should wait for rank 0, not the reverse";

  // The per-rank metrics lines carry the release next to the wait.
  std::ostringstream jsonl;
  sim.write_metrics_jsonl(jsonl);
  const std::string text = jsonl.str();
  EXPECT_NE(text.find("\"barrier_wait_s\":"), std::string::npos);
  EXPECT_NE(text.find("\"release_s\":"), std::string::npos);
}

}  // namespace
}  // namespace sst
