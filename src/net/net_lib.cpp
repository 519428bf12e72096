#include "net/net_lib.h"

#include "core/factory.h"
#include "ckpt/event_registry.h"
#include "ckpt/serializer.h"
#include "net/hotspot.h"

namespace sst::net {

void PacketEvent::ckpt_fields(ckpt::Serializer& s) {
  s & src_ & dst_ & via_ & bytes_ & msg_id_ & msg_bytes_ & is_tail_ & tag_ &
      msg_start_ & hops_ & pkt_seq_ & kind_;
}

void PortFaultEvent::ckpt_fields(ckpt::Serializer& s) {
  s & port_ & fail_;
}

namespace {

void register_ckpt_events() {
  auto& r = ckpt::EventRegistry::instance();
  r.register_type("net.Packet", [] {
    return std::make_unique<PacketEvent>(0, 0, 0, 0, 0, false, 0, 0);
  });
  r.register_type("net.PortFault", [] {
    return std::make_unique<PortFaultEvent>(0, false);
  });
  r.register_type("net.HotspotToken",
                  [] { return std::make_unique<HotspotTokenEvent>(0); });
}

}  // namespace

void register_library() {
  static const bool once = [] {
    Factory& f = Factory::instance();
    // Every endpoint type declares the shared NetEndpoint keys too.
    auto endpoint = [](std::vector<ParamDoc> own) {
      own.insert(own.end(), {
          {"injection_bw", "endpoint injection bandwidth", "3.2GB/s"},
          {"mtu", "packet payload size in bytes", "2048"},
          {"ack", "end-to-end ACK/retry protocol", "false"},
          {"retry_max", "delivery attempts before delivery_failed", "4"},
          {"retry_timeout", "initial retry timeout", "500us"},
          {"retry_backoff", "timeout multiplier per retry", "2"},
      });
      return own;
    };
    f.register_component<Router>("net.Router", {
        {"ports", "number of router ports", ""},
        {"bandwidth", "per-port link bandwidth", "10GB/s"},
        {"hop_latency", "per-hop forwarding latency", "50ns"},
        {"ttl", "deflection-routing hop budget", "64"},
    });
    f.register_component<TrafficGenerator>("net.TrafficGenerator", endpoint({
        {"pattern",
         "uniform | transpose | neighbor | hotspot | tornado", "uniform"},
        {"msg_bytes", "message size in bytes", "512"},
        {"load", "offered load fraction (0, 1.5]", "0.1"},
        {"warmup", "measurement warmup time", "5us"},
        {"hotspot_fraction", "traffic share aimed at the hotspot", "0.2"},
        {"tornado_stride", "tornado pattern stride", "3"},
    }));
    f.register_component<PingPongMotif>("net.PingPong", endpoint({
        {"iterations", "round trips to complete", "100"},
        {"msg_bytes", "message size in bytes", "8"},
    }));
    f.register_component<HaloExchangeMotif>("net.HaloExchange", endpoint({
        {"px", "process grid extent x", "2"},
        {"py", "process grid extent y", "2"},
        {"pz", "process grid extent z", "1"},
        {"msg_bytes", "halo face size in bytes", "65536"},
        {"compute", "compute phase per iteration", "10us"},
        {"iterations", "halo-exchange iterations", "10"},
    }));
    f.register_component<AllreduceMotif>("net.Allreduce", endpoint({
        {"iterations", "allreduce rounds", "100"},
        {"msg_bytes", "contribution size in bytes", "8"},
        {"compute", "compute phase per round", "1us"},
    }));
    f.register_component<AllToAllMotif>("net.AllToAll", endpoint({
        {"iterations", "all-to-all rounds", "10"},
        {"msg_bytes", "per-peer message size in bytes", "4096"},
        {"compute", "compute phase per round", "10us"},
    }));
    f.register_component<SweepMotif>("net.Sweep", endpoint({
        {"px", "process grid extent x", "2"},
        {"py", "process grid extent y", "2"},
        {"msg_bytes", "wavefront message size in bytes", "16384"},
        {"compute", "compute phase per sweep step", "20us"},
        {"sweeps", "wavefront sweeps to run", "8"},
    }));
    f.register_component<AppProfileMotif>("net.AppProfile", endpoint({
        {"px", "process grid extent x", "2"},
        {"py", "process grid extent y", "2"},
        {"pz", "process grid extent z", "1"},
        {"compute", "compute phase per iteration", "1ms"},
        {"halo_bytes", "halo exchanged per iteration", "0"},
        {"collective_bytes", "collective payload per iteration", "0"},
        {"collective_count", "collectives per iteration", "1"},
        {"iterations", "profile iterations", "10"},
    }));
    f.register_component<HotspotNode>("net.HotspotPhold", {
        {"x", "this node's torus coordinate x", "0"},
        {"y", "this node's torus coordinate y", "0"},
        {"size_x", "torus extent x", "8"},
        {"size_y", "torus extent y", "8"},
        {"min_delay", "forwarding delay quantum", "20ns"},
        {"self_delay", "per-service-hop self-link latency", "5ns"},
        {"service_hops", "self-bounces per token in the hot zone", "8"},
        {"hot_span", "hot-zone radius (torus Chebyshev)", "1"},
        {"bias_pct", "percent of forwards aimed at the hot center", "75"},
        {"drift_period", "time between hot-center steps", "200us"},
        {"initial_tokens", "tokens this node emits in setup()", "2"},
    });
    register_ckpt_events();
    return true;
  }();
  (void)once;
}

}  // namespace sst::net
