// HotspotNode: a PHOLD variant with a drifting spatial hotspot, built to
// exercise the online rebalancer.
//
// Nodes form a 2-D torus (port0/1 in x, port2/3 in y, wired exactly like
// the plain PHOLD benchmark).  Tokens bounce around the torus forever;
// each forward is biased toward the current *hot center*, a torus
// coordinate every node derives from simulated time alone (a raster scan
// advancing every `drift_period`).  Nodes within `hot_span` (torus
// Chebyshev distance) of the center service each arriving token with
// `service_hops` self-link bounces before forwarding it; nodes outside
// forward immediately.  The result is an event load concentrated on a
// small drifting neighborhood: any static partition is wrong most of the
// time, which is precisely the workload online repartitioning fixes.
//
// Determinism: every decision uses the component's own RNG stream and
// the delivery time of the event being handled, so behavior is
// byte-identical at any rank count, with or without rebalancing.
//
// Params: the "net.HotspotPhold" list registered in net_lib.cpp (sstsim
// --list-components prints it).
#pragma once

#include <array>
#include <cstdint>

#include "core/component.h"

namespace sst::net {

/// The token bounced between HotspotNodes.  `service` counts the
/// self-link bounces done for the current hot-zone visit.
class HotspotTokenEvent final : public Event {
 public:
  explicit HotspotTokenEvent(std::uint32_t service = 0) : service_(service) {}

  [[nodiscard]] std::uint32_t service() const { return service_; }
  void set_service(std::uint32_t s) { service_ = s; }

  [[nodiscard]] EventPtr clone() const override {
    return std::make_unique<HotspotTokenEvent>(service_);
  }
  [[nodiscard]] const char* ckpt_type() const override {
    return "net.HotspotToken";
  }
  void ckpt_fields(ckpt::Serializer& s) override;

 private:
  std::uint32_t service_ = 0;
};

class HotspotNode final : public Component {
 public:
  explicit HotspotNode(Params& params);

  void setup() override;
  void serialize_state(ckpt::Serializer& s) override;

  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  void on_token(EventPtr ev);
  void on_service(EventPtr ev);
  void forward(EventPtr ev);
  /// Hot-center torus coordinate at the current simulated time.
  void hot_center(std::uint32_t& cx, std::uint32_t& cy) const;
  [[nodiscard]] bool in_hot_zone() const;

  std::array<Link*, 4> out_{};  // +x, -x, +y, -y
  Link* self_ = nullptr;

  std::uint32_t x_;
  std::uint32_t y_;
  std::uint32_t size_x_;
  std::uint32_t size_y_;
  SimTime min_delay_;
  SimTime self_delay_;
  std::uint32_t service_hops_;
  std::uint32_t hot_span_;
  std::uint32_t bias_pct_;
  SimTime drift_period_;
  std::uint32_t initial_tokens_;

  std::uint64_t received_ = 0;
  std::uint64_t forwarded_ = 0;
  Counter* received_stat_;
  Counter* forwarded_stat_;
};

}  // namespace sst::net
