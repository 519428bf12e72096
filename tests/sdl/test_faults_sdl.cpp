// "faults" sections in JSON system descriptions: parsing, validation,
// round trip, and an end-to-end degraded-fabric run.
#include <gtest/gtest.h>

#include "mem/mem_lib.h"
#include "net/motifs.h"
#include "net/net_lib.h"
#include "net/router.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"

namespace sst::sdl {
namespace {

const char* kFaultySystem = R"({
  "config": {"seed": 3, "fault_seed": 99, "watchdog_seconds": 60,
             "end_time": "1s"},
  "components": [
    {"name": "rank0", "type": "net.Allreduce",
     "params": {"iterations": 20, "msg_bytes": 64, "ack": true,
                "retry_max": 8, "retry_timeout": "20us"}},
    {"name": "rank1", "type": "net.Allreduce",
     "params": {"iterations": 20, "msg_bytes": 64, "ack": true,
                "retry_max": 8, "retry_timeout": "20us"}},
    {"name": "rank2", "type": "net.Allreduce",
     "params": {"iterations": 20, "msg_bytes": 64, "ack": true,
                "retry_max": 8, "retry_timeout": "20us"}},
    {"name": "rank3", "type": "net.Allreduce",
     "params": {"iterations": 20, "msg_bytes": 64, "ack": true,
                "retry_max": 8, "retry_timeout": "20us"}}
  ],
  "links": [],
  "network": {
    "topology": "torus2d", "x": 2, "y": 2,
    "link_bandwidth": "10GB/s", "link_latency": "20ns",
    "endpoints": ["rank0", "rank1", "rank2", "rank3"]
  },
  "faults": {
    "links": [
      {"component": "rank0", "port": "net", "drop": 0.2,
       "delay": 0.3, "delay_min": "5ns", "delay_max": "50ns"}
    ],
    "ports": [
      {"router": "rtr0", "port": 0, "fail_at": "5us", "heal_at": "12us"}
    ]
  }
})";

TEST(FaultsSdl, ParsesFaultSection) {
  net::register_library();
  const ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
  EXPECT_EQ(g.sim_config().fault_seed, 99u);
  EXPECT_EQ(g.sim_config().watchdog_seconds, 60.0);
  ASSERT_EQ(g.faults().links.size(), 1u);
  const ConfigLinkFault& lf = g.faults().links[0];
  EXPECT_EQ(lf.component, "rank0");
  EXPECT_EQ(lf.port, "net");
  EXPECT_DOUBLE_EQ(lf.drop, 0.2);
  EXPECT_DOUBLE_EQ(lf.delay, 0.3);
  EXPECT_EQ(lf.delay_min, "5ns");
  EXPECT_EQ(lf.delay_max, "50ns");
  EXPECT_FALSE(lf.both);
  ASSERT_EQ(g.faults().ports.size(), 1u);
  const ConfigPortFault& pf = g.faults().ports[0];
  EXPECT_EQ(pf.router, "rtr0");
  EXPECT_EQ(pf.port, 0u);
  EXPECT_EQ(pf.fail_at, "5us");
  ASSERT_TRUE(pf.heal_at.has_value());
  EXPECT_EQ(*pf.heal_at, "12us");
  EXPECT_TRUE(g.validate(Factory::instance()).empty());
}

TEST(FaultsSdl, JsonRoundTripPreservesFaults) {
  net::register_library();
  const ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
  const ConfigGraph g2 = ConfigGraph::from_json(g.to_json());
  EXPECT_EQ(g2.sim_config().fault_seed, 99u);
  ASSERT_EQ(g2.faults().links.size(), 1u);
  EXPECT_EQ(g2.faults().links[0].component, "rank0");
  EXPECT_DOUBLE_EQ(g2.faults().links[0].drop, 0.2);
  ASSERT_EQ(g2.faults().ports.size(), 1u);
  EXPECT_EQ(g2.faults().ports[0].router, "rtr0");
  ASSERT_TRUE(g2.faults().ports[0].heal_at.has_value());
}

TEST(FaultsSdl, ValidationCatchesMistakes) {
  net::register_library();
  // Unknown component on a link fault.
  {
    ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
    g.faults().links[0].component = "ghost";
    const auto problems = g.validate(Factory::instance());
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("ghost"), std::string::npos);
  }
  // Probability out of range.
  {
    ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
    g.faults().links[0].drop = 1.5;
    EXPECT_FALSE(g.validate(Factory::instance()).empty());
  }
  // Inverted delay bounds.
  {
    ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
    g.faults().links[0].delay_min = "1us";
    EXPECT_FALSE(g.validate(Factory::instance()).empty());
  }
  // heal_at before fail_at.
  {
    ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
    g.faults().ports[0].heal_at = "1us";
    EXPECT_FALSE(g.validate(Factory::instance()).empty());
  }
  // "both" needs an explicit link to find the peer.
  {
    ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
    g.faults().links[0].both = true;
    const auto problems = g.validate(Factory::instance());
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("both"), std::string::npos);
  }
}

TEST(FaultsSdl, DegradedFabricRunCompletes) {
  net::register_library();
  const ConfigGraph g = ConfigGraph::from_json_text(kFaultySystem);
  auto sim = g.build();
  // The fault rules materialized: counters exist, the router port dies
  // and heals on schedule, and the reliable endpoints still finish.
  EXPECT_NE(sim->stats().find("rank0", "net.fault_dropped"), nullptr);
  sim->run();
  for (int i = 0; i < 4; ++i) {
    auto* m = dynamic_cast<net::AllreduceMotif*>(
        sim->find_component("rank" + std::to_string(i)));
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->motif_finished()) << m->name();
    EXPECT_EQ(m->delivery_failures(), 0u);
  }
  auto* rtr = dynamic_cast<net::Router*>(sim->find_component("rtr0"));
  ASSERT_NE(rtr, nullptr);
  EXPECT_TRUE(rtr->port_alive(0));  // healed by end of run
  const auto* flips = dynamic_cast<const Counter*>(
      sim->stats().find("rtr0", "port_fault_events"));
  ASSERT_NE(flips, nullptr);
  EXPECT_EQ(flips->count(), 2u);
  const auto* dropped = dynamic_cast<const Counter*>(
      sim->stats().find("rank0", "net.fault_dropped"));
  ASSERT_NE(dropped, nullptr);
  EXPECT_GT(dropped->count(), 0u);
}

TEST(FaultsSdl, ExplicitLinkBothFaultsBothEndpoints) {
  mem::register_library();
  proc::register_library();
  const char* text = R"({
    "config": {"seed": 1},
    "components": [
      {"name": "cpu0", "type": "proc.Core",
       "params": {"clock": "1GHz", "issue_width": "2",
                  "workload": "stream", "elements": 1024,
                  "iterations": 1}},
      {"name": "mc0", "type": "mem.MemoryController",
       "params": {"backend": "simple", "latency": "50ns"}}
    ],
    "links": [
      {"from": "cpu0", "from_port": "mem", "to": "mc0", "to_port": "cpu",
       "latency": "2ns"}
    ],
    "faults": {
      "links": [
        {"component": "cpu0", "port": "mem", "delay": 0.25,
         "delay_min": "1ns", "delay_max": "8ns", "both": true}
      ]
    }
  })";
  const ConfigGraph g = ConfigGraph::from_json_text(text);
  EXPECT_TRUE(g.validate(Factory::instance()).empty());
  auto sim = g.build();
  // Both directions got their own model.
  EXPECT_NE(sim->stats().find("cpu0", "mem.fault_delayed"), nullptr);
  EXPECT_NE(sim->stats().find("mc0", "cpu.fault_delayed"), nullptr);
  sim->run();
  const auto* fwd = dynamic_cast<const Counter*>(
      sim->stats().find("cpu0", "mem.fault_delayed"));
  const auto* back = dynamic_cast<const Counter*>(
      sim->stats().find("mc0", "cpu.fault_delayed"));
  EXPECT_GT(fwd->count() + back->count(), 0u);
}

}  // namespace
}  // namespace sst::sdl
