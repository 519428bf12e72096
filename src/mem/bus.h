// Shared memory bus: N upstream ports funnel into one downstream port with
// serialized occupancy (header time + bytes / bandwidth).  This is what
// makes "cores per node" sweeps show memory-bandwidth contention.
//
// Ports:
//   "up0" .. "up<N-1>" — upstream requesters (caches / CPUs)
//   "down"             — downstream target (next cache level / controller)
//
// Params: the "mem.Bus" list registered in mem_lib.cpp (sstsim
// --list-components prints it).
#pragma once

#include <cstdint>
#include <vector>

#include "core/component.h"
#include "mem/mem_event.h"

namespace sst::mem {

class Bus final : public Component {
 public:
  explicit Bus(Params& params);

  [[nodiscard]] std::uint32_t num_ports() const {
    return static_cast<std::uint32_t>(up_links_.size());
  }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  void handle_up(std::uint32_t port, EventPtr ev);
  void handle_down(EventPtr ev);
  /// Serializes a transfer on the shared bus; returns the extra delay to
  /// apply on top of link latency.
  [[nodiscard]] SimTime occupy(std::uint32_t bytes);

  std::vector<Link*> up_links_;
  Link* down_link_;
  double bytes_per_ps_;
  SimTime header_;
  SimTime busy_until_ = 0;

  Counter* transactions_;
  Accumulator* queue_delay_;
};

}  // namespace sst::mem
