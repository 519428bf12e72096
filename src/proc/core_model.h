// Abstract sequential-issue core model (SST "genericProc" class).
//
// The model consumes a Workload op stream, issuing up to `issue_width`
// ops per clock with three structural limits:
//   * bounded outstanding loads (memory-level parallelism),
//   * bounded outstanding stores (write buffer),
//   * `depends_on_loads` ops wait for all outstanding loads (address
//     dependence: pointer chasing / gather chains).
// Loads and stores go out the "mem" port as MemEvents (split at cache-line
// boundaries); everything else costs only issue slots.  This is exactly
// the fidelity the design-space studies need: performance responds to
// issue width, cache behaviour, memory latency, and memory bandwidth.
//
// The core sleeps (unregisters its clock) whenever a cycle makes no
// progress and work is blocked on memory, and wakes on the next response —
// simulated time is unaffected, wall-clock time drops sharply for
// memory-bound codes.
//
// Ports:
//   "mem" — to the first cache level (or directly to a controller)
//
// Params: the "proc.Core" list registered in proc_lib.cpp (sstsim
// --list-components prints it); it declares the workload keys that
// make_workload reads too.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/component.h"
#include "mem/mem_event.h"
#include "proc/workload.h"

namespace sst::proc {

class Core final : public Component {
 public:
  explicit Core(Params& params);

  /// Attaches the op stream.  Must be called before the simulation runs.
  void set_workload(WorkloadPtr workload);

  void setup() override;
  void finish() override;

  [[nodiscard]] bool done() const { return completed_; }
  /// Simulated completion time (valid once done()).
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  [[nodiscard]] std::uint64_t instructions() const {
    return instructions_->count();
  }
  [[nodiscard]] SimTime clock_period() const { return period_; }
  [[nodiscard]] unsigned issue_width() const { return issue_width_; }
  /// True when memory requests carry virtual addresses for a vm.Tlb.
  [[nodiscard]] bool virtual_addressing() const { return virt_; }
  [[nodiscard]] std::uint32_t asid() const { return asid_; }
  /// Memory requests sent and not yet answered.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  bool tick(Cycle cycle);
  void handle_mem(EventPtr ev);
  void activate_clock();
  /// Attempts to issue `op`; returns false when structurally blocked.
  bool try_issue(const Op& op);
  void send_mem(mem::MemCmd cmd, Addr addr, std::uint32_t size);
  void complete_if_drained();

  Link* mem_link_;
  WorkloadPtr workload_;

  SimTime period_;
  unsigned issue_width_;
  unsigned max_loads_;
  unsigned max_stores_;
  std::uint32_t line_split_;
  bool virt_;
  std::uint32_t asid_;

  std::optional<Op> pending_;
  bool stream_done_ = false;
  bool completed_ = false;
  bool clock_active_ = false;
  SimTime completion_time_ = 0;

  /// A memory request awaiting its response.
  struct InFlight {
    bool is_load;
    SimTime issued;  // loads only, for load_latency_ps
  };

  unsigned outstanding_loads_ = 0;
  unsigned outstanding_stores_ = 0;
  std::uint64_t next_req_id_ = 1;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;  // key: req_id

  Counter* instructions_;
  Counter* flops_;
  Counter* loads_;
  Counter* stores_;
  Counter* mem_bytes_;
  Counter* busy_cycles_;
  Counter* stall_cycles_;
  Counter* sleeps_;
  Accumulator* load_latency_;
};

}  // namespace sst::proc
