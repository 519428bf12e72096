// Next-line prefetcher: correctness, usefulness accounting, pollution
// avoidance, MSHR interplay, end-to-end benefit for streams.
#include <gtest/gtest.h>

#include "mem/cache.h"
#include "mem/memory_controller.h"
#include "mem_test_util.h"
#include "proc/core_model.h"
#include "proc/kernels.h"

namespace sst::mem {
namespace {

using testing::MemDriver;

struct Rig {
  Simulation sim;
  MemDriver* driver;
  Cache* cache;
  MemoryController* mc;
};

std::unique_ptr<Rig> make_rig(const char* prefetch, unsigned degree = 2,
                              unsigned mshrs = 8) {
  auto rig = std::make_unique<Rig>();
  Params dp;
  rig->driver = rig->sim.add_component<MemDriver>("driver", dp);
  Params cp;
  cp.set("size", "4KiB");
  cp.set("assoc", "2");
  cp.set("hit_latency", "2ns");
  cp.set("mshrs", std::to_string(mshrs));
  cp.set("prefetch", prefetch);
  cp.set("prefetch_degree", std::to_string(degree));
  rig->cache = rig->sim.add_component<Cache>("l1", cp);
  Params mp;
  mp.set("backend", "simple");
  mp.set("latency", "100ns");
  mp.set("bandwidth_gbs", "100");
  rig->mc = rig->sim.add_component<MemoryController>("mc", mp);
  rig->sim.connect("driver", "mem", "l1", "cpu", kNanosecond);
  rig->sim.connect("l1", "mem", "mc", "cpu", kNanosecond);
  return rig;
}

TEST(Prefetch, NextLineFetchesAhead) {
  auto rig = make_rig("nextline", 2);
  rig->driver->read_at(kNanosecond, 0x1000);
  rig->sim.run();
  // One demand fetch + two prefetches reached memory.
  EXPECT_EQ(rig->mc->reads(), 3u);
  EXPECT_EQ(rig->cache->prefetches_issued(), 2u);
  EXPECT_EQ(rig->cache->misses(), 1u);
}

TEST(Prefetch, PrefetchedLineTurnsMissIntoHit) {
  auto rig = make_rig("nextline", 2);
  rig->driver->read_at(kNanosecond, 0x1000);           // miss, pf 0x1040/0x1080
  const auto id = rig->driver->read_at(2 * kMicrosecond, 0x1040);
  rig->sim.run();
  EXPECT_EQ(rig->cache->misses(), 1u);  // the second read hits
  EXPECT_EQ(rig->cache->prefetch_hits(), 1u);
  // And the hit is fast.
  EXPECT_LT(rig->driver->response_time(id) - 2 * kMicrosecond,
            10 * kNanosecond);
}

TEST(Prefetch, MergingIntoInFlightPrefetchCountsAsUseful) {
  auto rig = make_rig("nextline", 2);
  rig->driver->read_at(kNanosecond, 0x1000);
  // Before the prefetch of 0x1040 returns (100ns memory), demand it.
  rig->driver->read_at(kNanosecond + 20 * kNanosecond, 0x1040);
  rig->sim.run();
  EXPECT_EQ(rig->cache->prefetch_hits(), 1u);
  EXPECT_EQ(rig->mc->reads(), 3u);  // no duplicate fetch
  EXPECT_EQ(rig->driver->responses().size(), 2u);
}

TEST(Prefetch, NeverConsumesLastMshrsForPrefetch) {
  // 2 MSHRs: a demand miss takes one; only one prefetch can be issued.
  auto rig = make_rig("nextline", 4, /*mshrs=*/2);
  rig->driver->read_at(kNanosecond, 0x1000);
  rig->sim.run();
  EXPECT_EQ(rig->cache->prefetches_issued(), 1u);
  EXPECT_EQ(rig->mc->reads(), 2u);
}

TEST(Prefetch, DisabledByDefault) {
  auto rig = make_rig("none");
  rig->driver->read_at(kNanosecond, 0x1000);
  rig->sim.run();
  EXPECT_EQ(rig->cache->prefetches_issued(), 0u);
  EXPECT_EQ(rig->mc->reads(), 1u);
}

TEST(Prefetch, UnknownPolicyRejected) {
  Simulation sim;
  Params p;
  p.set("size", "4KiB");
  p.set("prefetch", "oracle");
  EXPECT_THROW(sim.add_component<Cache>("bad", p), ConfigError);
}

TEST(Prefetch, SkipsResidentLines) {
  auto rig = make_rig("nextline", 2);
  // Warm 0x1040 so the later miss at 0x1000 only prefetches 0x1080.
  rig->driver->read_at(kNanosecond, 0x1040);  // miss + pf 0x1080, 0x10c0
  rig->driver->read_at(3 * kMicrosecond, 0x1000);
  rig->sim.run();
  // Second miss prefetches only lines not already present (0x1040 is
  // resident; 0x1080 came from the first prefetch).
  EXPECT_EQ(rig->cache->prefetches_issued(), 2u);
  EXPECT_EQ(rig->mc->reads(), 2u + 2u);
}

TEST(Prefetch, SpeedsUpStreamEndToEnd) {
  struct StreamResult {
    SimTime completion;
    std::uint64_t prefetches_issued;
    std::uint64_t prefetch_hits;
  };
  // Copies the counters out: the Cache dies with the Simulation.
  auto run_stream = [](const char* pf) {
    Simulation sim;
    Params cp{{"clock", "2GHz"}, {"issue_width", "4"},
              {"max_loads", "16"}, {"max_stores", "16"}};
    auto* cpu = sim.add_component<proc::Core>("cpu", cp);
    cpu->set_workload(std::make_unique<proc::StreamTriad>(4096, 1));
    Params l1p{{"size", "32KiB"}, {"assoc", "4"}, {"hit_latency", "1ns"},
               {"mshrs", "8"}, {"prefetch", pf}, {"prefetch_degree", "4"}};
    auto* l1 = sim.add_component<Cache>("l1", l1p);
    Params mp{{"backend", "simple"}, {"latency", "80ns"},
              {"bandwidth_gbs", "50"}};
    sim.add_component<MemoryController>("mc", mp);
    sim.connect("cpu", "mem", "l1", "cpu", 500);
    sim.connect("l1", "mem", "mc", "cpu", 2 * kNanosecond);
    sim.run();
    return StreamResult{cpu->completion_time(), l1->prefetches_issued(),
                        l1->prefetch_hits()};
  };
  const StreamResult off = run_stream("none");
  const StreamResult on = run_stream("nextline");
  EXPECT_LT(on.completion, off.completion);
  // Prefetches were overwhelmingly useful on a pure stream.
  EXPECT_GT(on.prefetch_hits, on.prefetches_issued * 8 / 10);
}

}  // namespace
}  // namespace sst::mem
