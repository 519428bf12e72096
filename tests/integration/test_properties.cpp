// Property sweeps (parameterized): invariants that must hold across the
// whole configuration space, not just hand-picked examples.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/sst.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "../test_components.h"

namespace sst {
namespace {

// ---------------------------------------------------------------------
// P1: serial == parallel, for every (seed, ranks, partitioner) combo.
// ---------------------------------------------------------------------

using EngineCase = std::tuple<std::uint64_t, unsigned, PartitionStrategy>;

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

std::vector<std::uint64_t> run_phold_grid(std::uint64_t seed, unsigned ranks,
                                          PartitionStrategy part) {
  Simulation sim(SimConfig{.num_ranks = ranks,
                           .end_time = 5 * kMicrosecond,
                           .seed = seed,
                           .partition = part});
  Params p;
  p.set("fanout", "4");
  p.set("initial_events", "2");
  p.set("min_delay", "5ns");
  constexpr unsigned kX = 4, kY = 3;
  auto name = [](unsigned i, unsigned j) {
    return "n" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      sim.add_component<testing::PholdNode>(name(i, j), p);
    }
  }
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      sim.connect(name(i, j), "port0", name((i + 1) % kX, j), "port1",
                  50 * kNanosecond);
      sim.connect(name(i, j), "port2", name(i, (j + 1) % kY), "port3",
                  80 * kNanosecond);
    }
  }
  sim.run();
  std::vector<std::uint64_t> received;
  for (unsigned j = 0; j < kY; ++j) {
    for (unsigned i = 0; i < kX; ++i) {
      received.push_back(
          dynamic_cast<testing::PholdNode*>(sim.find_component(name(i, j)))
              ->received);
    }
  }
  return received;
}

TEST_P(EngineEquivalence, ParallelMatchesSerial) {
  const auto [seed, ranks, part] = GetParam();
  const auto serial =
      run_phold_grid(seed, 1, PartitionStrategy::kLinear);
  const auto parallel = run_phold_grid(seed, ranks, part);
  EXPECT_EQ(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(
        ::testing::Values(1ULL, 42ULL, 1234567ULL),
        ::testing::Values(2u, 3u, 5u),
        ::testing::Values(PartitionStrategy::kLinear,
                          PartitionStrategy::kRoundRobin,
                          PartitionStrategy::kMinCut)),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      const auto seed = std::get<0>(info.param);
      const auto ranks = std::get<1>(info.param);
      const auto part = std::get<2>(info.param);
      const char* pname =
          part == PartitionStrategy::kLinear
              ? "linear"
              : part == PartitionStrategy::kRoundRobin ? "rr" : "mincut";
      return "seed" + std::to_string(seed) + "_ranks" +
             std::to_string(ranks) + "_" + pname;
    });

// ---------------------------------------------------------------------
// P2: cache conservation — hits + misses == requests, responses == loads,
// for every cache geometry.
// ---------------------------------------------------------------------

// size, assoc, mshrs. The size is a std::string, not a const char*: gtest
// prints a pointer's address into the listed test name, which changed per run.
using CacheGeom = std::tuple<std::string, unsigned, unsigned>;

class CacheConservation : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(CacheConservation, EveryRequestAnsweredOnce) {
  const auto [size, assoc, mshrs] = GetParam();
  Simulation sim;
  Params cp{{"clock", "1GHz"}, {"issue_width", "2"}};
  auto* cpu = sim.add_component<proc::Core>("cpu", cp);
  cpu->set_workload(std::make_unique<proc::Gups>(1 << 18, 2'000, 7));
  Params l1p;
  l1p.set("size", size);
  l1p.set("assoc", std::to_string(assoc));
  l1p.set("mshrs", std::to_string(mshrs));
  auto* l1 = sim.add_component<mem::Cache>("l1", l1p);
  Params mp{{"backend", "dram"}, {"preset", "DDR3"}};
  auto* mc = sim.add_component<mem::MemoryController>("mc", mp);
  sim.connect("cpu", "mem", "l1", "cpu", 500);
  sim.connect("l1", "mem", "mc", "cpu", kNanosecond);
  sim.run();

  ASSERT_TRUE(cpu->done());  // every load/store answered exactly once
  // Count-once accounting: 2000 loads + 2000 stores, each a hit or miss.
  EXPECT_EQ(l1->hits() + l1->misses(), 4'000u);
  // Line fetches never exceed demand misses, and every fetch was a miss
  // that neither merged nor turned into a replay-hit.
  const auto* merges = dynamic_cast<const Counter*>(
      sim.stats().find("l1", "mshr_merges"));
  EXPECT_GT(mc->reads(), 0u);
  EXPECT_LE(mc->reads() + merges->count(), l1->misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheConservation,
    ::testing::Values(CacheGeom{"1KiB", 1, 1}, CacheGeom{"4KiB", 2, 2},
                      CacheGeom{"16KiB", 4, 8}, CacheGeom{"64KiB", 16, 16},
                      CacheGeom{"8KiB", 8, 4}),
    [](const ::testing::TestParamInfo<CacheGeom>& info) {
      return "g" + std::to_string(info.index);
    });

// ---------------------------------------------------------------------
// P3: motif conservation — on every topology, messages sent == messages
// received globally, and all ranks finish.
// ---------------------------------------------------------------------

class MotifOnTopology
    : public ::testing::TestWithParam<net::TopologySpec::Kind> {};

TEST_P(MotifOnTopology, AllreduceConservation) {
  Simulation sim(SimConfig{.seed = 13});
  net::TopologySpec s;
  s.kind = GetParam();
  s.x = 4;
  s.y = 4;
  s.leaves = 4;
  s.spines = 2;
  s.down = 4;
  s.groups = 5;
  s.group_routers = 4;
  s.global_per_router = 1;
  s.group_conc = 1;
  // Use a 16-node config for grid/tree kinds; dragonfly gives 20 (not a
  // power of two), so pingpong there instead.
  const bool dragonfly = s.kind == net::TopologySpec::Kind::kDragonfly;
  const std::uint32_t n = s.expected_nodes();
  std::vector<net::NetEndpoint*> eps;
  std::vector<net::MotifEndpoint*> motifs;
  for (std::uint32_t i = 0; i < n; ++i) {
    Params p;
    p.set("iterations", "5");
    p.set("msg_bytes", "256");
    net::MotifEndpoint* m;
    if (dragonfly) {
      m = sim.add_component<net::PingPongMotif>("rank" + std::to_string(i),
                                                p);
    } else {
      m = sim.add_component<net::AllreduceMotif>("rank" + std::to_string(i),
                                                 p);
    }
    motifs.push_back(m);
    eps.push_back(m);
  }
  net::build_topology(sim, s, eps);
  sim.run();
  std::uint64_t sent = 0, received = 0;
  for (const auto* m : motifs) {
    EXPECT_TRUE(m->motif_finished());
    sent += m->messages_sent();
    received += m->messages_received();
  }
  EXPECT_EQ(sent, received);
  EXPECT_GT(sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MotifOnTopology,
    ::testing::Values(net::TopologySpec::Kind::kMesh2D,
                      net::TopologySpec::Kind::kTorus2D,
                      net::TopologySpec::Kind::kFatTree,
                      net::TopologySpec::Kind::kDragonfly),
    [](const ::testing::TestParamInfo<net::TopologySpec::Kind>& info) {
      switch (info.param) {
        case net::TopologySpec::Kind::kMesh2D: return std::string("mesh");
        case net::TopologySpec::Kind::kTorus2D: return std::string("torus");
        case net::TopologySpec::Kind::kFatTree:
          return std::string("fattree");
        case net::TopologySpec::Kind::kDragonfly:
          return std::string("dragonfly");
        default: return std::string("other");
      }
    });

// ---------------------------------------------------------------------
// P4: DRAM presets — monotone latency/bandwidth sanity for every preset.
// ---------------------------------------------------------------------

class DramPresetProperties
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DramPresetProperties, StreamBeatsRandomAndRespectsPeak) {
  const auto params = mem::DramTimingParams::preset(GetParam());
  mem::DramBackend seq(params);
  mem::DramBackend rnd(params);
  rng::XorShift128Plus rng(3);
  constexpr int kLines = 2048;
  for (int i = 0; i < kLines; ++i) {
    seq.push(static_cast<std::uint64_t>(i), static_cast<mem::Addr>(i) * 64,
             false, 64, 0);
    rnd.push(static_cast<std::uint64_t>(i),
             rng.next_bounded(1ULL << 30) & ~63ULL, false, 64, 0);
  }
  auto drain = [](mem::DramBackend& d) {
    SimTime t = 0, last = 0;
    std::size_t n = 0;
    while (n < kLines) {
      std::vector<mem::MemCompletion> done;
      d.advance(t, done);
      for (const auto& c : done) {
        last = std::max(last, c.time);
        ++n;
      }
      if (n >= kLines) break;
      t = d.next_action();
      if (t == kTimeNever) break;
    }
    return last;
  };
  const SimTime t_seq = drain(seq);
  const SimTime t_rnd = drain(rnd);
  EXPECT_LT(t_seq, t_rnd);
  // Sequential throughput never exceeds the advertised peak.
  const double gbs = kLines * 64.0 /
                     (static_cast<double>(t_seq) * 1e-12) / 1e9;
  EXPECT_LE(gbs, params.peak_bandwidth_gbs * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Presets, DramPresetProperties,
                         ::testing::Values("DDR2", "DDR3", "GDDR5"));

}  // namespace
}  // namespace sst
