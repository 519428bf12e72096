// TrafficGenerator: open-loop synthetic traffic endpoint for load-latency
// sweeps (the classic topology-evaluation methodology: offered load on the
// x-axis, mean packet/message latency on the y-axis, saturation where the
// curve turns vertical).
//
// Params: the "net.TrafficGenerator" list registered in net_lib.cpp
// (sstsim --list-components prints it).  The tornado pattern sends to
// id + tornado_stride, the classic adversarial permutation for minimal
// routing; the hotspot pattern aims hotspot_fraction of the traffic at
// node 0.
//
// The generator runs until the simulation's end_time (it is not a primary
// component).
#pragma once

#include "core/component.h"
#include "net/endpoint.h"

namespace sst::net {

class TrafficGenerator final : public NetEndpoint {
 public:
  explicit TrafficGenerator(Params& params);

  void setup() override;

  /// Mean measured (post-warmup) message latency in ps; 0 when nothing
  /// was measured.
  [[nodiscard]] double mean_latency_ps() const {
    return measured_latency_->mean();
  }
  [[nodiscard]] std::uint64_t measured_messages() const {
    return measured_latency_->count();
  }
  [[nodiscard]] std::uint64_t delivered_bytes() const {
    return delivered_bytes_->count();
  }

 private:
  enum class Pattern { kUniform, kTranspose, kNeighbor, kHotspot, kTornado };

  void on_message(NodeId src, std::uint64_t bytes, std::uint64_t tag,
                  SimTime msg_start) override;
  void generate();
  [[nodiscard]] NodeId pick_destination();
  [[nodiscard]] SimTime next_gap();

  Link* timer_;
  Pattern pattern_;
  std::uint64_t msg_bytes_;
  double load_;
  double inj_bw_bytes_per_ps_;
  SimTime warmup_;
  double hotspot_fraction_;
  std::uint32_t tornado_stride_;

  Accumulator* measured_latency_;
  Counter* delivered_bytes_;
};

}  // namespace sst::net
