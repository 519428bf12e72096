// Router: output-serialized packet switch with a table-based routing
// function.
//
// Each output port is a serializing resource (header processing time +
// bytes / link bandwidth); packets queue on busy outputs, so offered-load
// sweeps produce the classic load-latency curve with a saturation knee.
// Routing tables are installed by the TopologyBuilder after construction
// (deterministic minimal routing with hashed equal-cost tie-breaks).
//
// Ports: "port0" .. "port<P-1>" (unused ports may stay unconnected).
//
// Fault tolerance: ports can fail and heal at scheduled simulated times
// (schedule_port_fail/heal).  Packets whose primary route uses a dead port
// are rerouted over the remaining minimal candidates, falling back to
// deflection over any alive transit port; packets with no way out are
// dropped and counted ("fault_dropped"), and a hop TTL bounds deflection
// loops ("ttl_dropped").  The healthy path is unchanged.
//
// Params: the "net.Router" list registered in net_lib.cpp (sstsim
// --list-components prints it).  `ttl` is enforced only while a local
// port is down.
#pragma once

#include <cstdint>
#include <vector>

#include "core/component.h"
#include "net/net_event.h"

namespace sst::net {

class Router final : public Component {
 public:
  explicit Router(Params& params);

  /// route_table[node] = output port for packets destined to `node`.
  void set_route_table(std::vector<std::uint8_t> table);

  /// Marks which nodes are attached to this router (needed to terminate
  /// the first phase of Valiant-routed packets).
  void set_local_nodes(std::vector<bool> local);

  /// candidates[node] = all minimal output ports toward `node`, preference
  /// order (installed by the TopologyBuilder alongside the route table).
  /// Consulted only when the primary route's port is down.
  void set_route_candidates(std::vector<std::vector<std::uint8_t>> cands);

  /// Schedules this router's `port` to go down / come back up at absolute
  /// simulated time `at` (>= 1ps, in the future).  Callable during build
  /// or at runtime (e.g. from SDL "faults" config).
  void schedule_port_fail(std::uint32_t port, SimTime at);
  void schedule_port_heal(std::uint32_t port, SimTime at);

  [[nodiscard]] bool port_alive(std::uint32_t port) const {
    return port_alive_.at(port);
  }

  [[nodiscard]] std::uint32_t num_ports() const {
    return static_cast<std::uint32_t>(ports_.size());
  }

  void setup() override;

  void serialize_state(ckpt::Serializer& s) override;

 private:
  void handle_packet(std::uint32_t in_port, EventPtr ev);
  void handle_fault(EventPtr ev);
  /// Output port for `steer` honouring dead ports; -1 = no way out.
  [[nodiscard]] int pick_output(NodeId steer, std::uint32_t in_port) const;
  void schedule_port_event(std::uint32_t port, bool fail, SimTime at);

  std::vector<Link*> ports_;
  std::vector<SimTime> port_busy_;
  std::vector<std::uint8_t> route_;
  std::vector<bool> local_nodes_;
  std::vector<std::vector<std::uint8_t>> candidates_;
  std::vector<bool> port_alive_;
  std::vector<bool> endpoint_port_;  // attach ports (never deflect here)
  bool any_port_down_ = false;
  bool setup_done_ = false;
  std::uint32_t ttl_;
  Link* fault_link_;
  struct PendingFault {
    std::uint32_t port;
    bool fail;
    SimTime at;
  };
  std::vector<PendingFault> pending_faults_;
  double bytes_per_ps_;
  SimTime hop_latency_;

  Counter* packets_;
  Counter* bytes_stat_;
  Accumulator* queue_delay_;
  Counter* reroutes_;
  Counter* fault_dropped_;
  Counter* ttl_dropped_;
  Counter* port_fault_events_;
};

}  // namespace sst::net
