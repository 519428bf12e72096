// Topology builders: shapes, diameters, routing-table validity, errors.
#include <gtest/gtest.h>

#include "net/motifs.h"
#include "net/topology.h"

namespace sst::net {
namespace {

/// Minimal endpoint for wiring tests: counts messages, never initiates.
class SinkEndpoint final : public NetEndpoint {
 public:
  explicit SinkEndpoint(Params& p) : NetEndpoint(p) {}
  using NetEndpoint::send_message;  // expose for tests

  std::vector<std::pair<NodeId, std::uint64_t>> got;

 private:
  void on_message(NodeId src, std::uint64_t bytes, std::uint64_t,
                  SimTime) override {
    got.emplace_back(src, bytes);
  }
};

std::vector<NetEndpoint*> make_sinks(Simulation& sim, std::uint32_t n) {
  std::vector<NetEndpoint*> eps;
  for (std::uint32_t i = 0; i < n; ++i) {
    Params p;
    eps.push_back(
        sim.add_component<SinkEndpoint>("ep" + std::to_string(i), p));
  }
  return eps;
}

TEST(Topology, ExpectedNodeCounts) {
  TopologySpec s;
  s.kind = TopologySpec::Kind::kMesh2D;
  s.x = 3;
  s.y = 4;
  s.concentration = 2;
  EXPECT_EQ(s.expected_nodes(), 24u);
  s.kind = TopologySpec::Kind::kTorus3D;
  s.z = 2;
  EXPECT_EQ(s.expected_nodes(), 48u);
  s.kind = TopologySpec::Kind::kFatTree;
  s.leaves = 4;
  s.down = 8;
  EXPECT_EQ(s.expected_nodes(), 32u);
  s.kind = TopologySpec::Kind::kDragonfly;
  s.groups = 5;
  s.group_routers = 2;
  s.group_conc = 3;
  EXPECT_EQ(s.expected_nodes(), 30u);
}

TEST(Topology, MeshDiameterAndRouterCount) {
  Simulation sim(SimConfig{.end_time = kMillisecond});
  TopologySpec s;
  s.kind = TopologySpec::Kind::kMesh2D;
  s.x = 4;
  s.y = 4;
  const Topology t = build_topology(sim, s, make_sinks(sim, 16));
  EXPECT_EQ(t.routers.size(), 16u);
  EXPECT_EQ(t.diameter, 6u);  // (4-1)+(4-1)
  EXPECT_GT(t.avg_hops, 0.0);
}

TEST(Topology, TorusHalvesMeshDiameter) {
  Simulation sim_m(SimConfig{.end_time = kMillisecond});
  TopologySpec sm;
  sm.kind = TopologySpec::Kind::kMesh2D;
  sm.x = 6;
  sm.y = 6;
  const Topology mesh = build_topology(sim_m, sm, make_sinks(sim_m, 36));

  Simulation sim_t(SimConfig{.end_time = kMillisecond});
  TopologySpec st;
  st.kind = TopologySpec::Kind::kTorus2D;
  st.x = 6;
  st.y = 6;
  const Topology torus = build_topology(sim_t, st, make_sinks(sim_t, 36));

  EXPECT_EQ(mesh.diameter, 10u);
  EXPECT_EQ(torus.diameter, 6u);
  EXPECT_LT(torus.avg_hops, mesh.avg_hops);
}

TEST(Topology, FatTreeTwoLevels) {
  Simulation sim(SimConfig{.end_time = kMillisecond});
  TopologySpec s;
  s.kind = TopologySpec::Kind::kFatTree;
  s.leaves = 4;
  s.spines = 2;
  s.down = 4;
  const Topology t = build_topology(sim, s, make_sinks(sim, 16));
  EXPECT_EQ(t.routers.size(), 6u);
  EXPECT_EQ(t.diameter, 2u);  // leaf -> spine -> leaf
}

TEST(Topology, DragonflySmallDiameter) {
  Simulation sim(SimConfig{.end_time = kMillisecond});
  TopologySpec s;
  s.kind = TopologySpec::Kind::kDragonfly;
  s.groups = 5;
  s.group_routers = 2;
  s.global_per_router = 2;
  s.group_conc = 2;
  const Topology t = build_topology(sim, s, make_sinks(sim, 20));
  EXPECT_EQ(t.routers.size(), 10u);
  EXPECT_LE(t.diameter, 3u);  // local, global, local
}

TEST(Topology, DragonflyBalanceRequirement) {
  Simulation sim;
  TopologySpec s;
  s.kind = TopologySpec::Kind::kDragonfly;
  s.groups = 6;  // a*h = 4 != 5
  s.group_routers = 2;
  s.global_per_router = 2;
  EXPECT_THROW(build_topology(sim, s, make_sinks(sim, 24)), ConfigError);
}

TEST(Topology, EndpointCountMismatchThrows) {
  Simulation sim;
  TopologySpec s;
  s.kind = TopologySpec::Kind::kTorus2D;
  s.x = 2;
  s.y = 2;
  EXPECT_THROW(build_topology(sim, s, make_sinks(sim, 3)), ConfigError);
}

TEST(Topology, NodeIdsAssignedInOrder) {
  Simulation sim(SimConfig{.end_time = kMillisecond});
  TopologySpec s;
  s.kind = TopologySpec::Kind::kTorus2D;
  s.x = 2;
  s.y = 2;
  const auto eps = make_sinks(sim, 4);
  build_topology(sim, s, eps);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(eps[i]->node_id(), i);
    EXPECT_EQ(eps[i]->num_nodes(), 4u);
  }
}

// Property sweep: every topology delivers every (src, dst) pair.
struct DeliveryCase {
  TopologySpec::Kind kind;
  const char* name;
};

// Print a case as its name. gtest's default byte dump of this struct shows
// the name pointer and padding, so the listed test name changed per run.
void PrintTo(const DeliveryCase& c, std::ostream* os) { *os << c.name; }

class TopologyDelivery : public ::testing::TestWithParam<DeliveryCase> {};

TEST_P(TopologyDelivery, AllPairsDeliver) {
  Simulation sim(SimConfig{.end_time = 10 * kMillisecond});
  TopologySpec s;
  s.kind = GetParam().kind;
  s.x = 3;
  s.y = 3;
  s.z = 2;
  s.leaves = 3;
  s.spines = 2;
  s.down = 6;
  s.groups = 5;
  s.group_routers = 2;
  s.global_per_router = 2;
  s.group_conc = 2;
  if (s.kind == TopologySpec::Kind::kMesh2D ||
      s.kind == TopologySpec::Kind::kTorus2D) {
    s.concentration = 2;
  }
  const std::uint32_t n = s.expected_nodes();
  std::vector<NetEndpoint*> eps = make_sinks(sim, n);
  build_topology(sim, s, eps);
  sim.initialize();
  std::vector<SinkEndpoint*> sinks;
  for (auto* e : eps) sinks.push_back(dynamic_cast<SinkEndpoint*>(e));
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sinks[i]->send_message(j, 64, i * 1000 + j);
    }
  }
  sim.run();
  for (std::uint32_t j = 0; j < n; ++j) {
    EXPECT_EQ(sinks[j]->got.size(), n - 1) << GetParam().name << " node "
                                           << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TopologyDelivery,
    ::testing::Values(
        DeliveryCase{TopologySpec::Kind::kMesh2D, "mesh2d"},
        DeliveryCase{TopologySpec::Kind::kTorus2D, "torus2d"},
        DeliveryCase{TopologySpec::Kind::kTorus3D, "torus3d"},
        DeliveryCase{TopologySpec::Kind::kFatTree, "fattree"},
        DeliveryCase{TopologySpec::Kind::kDragonfly, "dragonfly"}),
    [](const ::testing::TestParamInfo<DeliveryCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sst::net
