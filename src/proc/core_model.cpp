#include "proc/core_model.h"

#include <algorithm>
#include <map>
#include <utility>

#include "ckpt/serializer.h"

namespace sst::proc {

Core::Core(Params& params) {
  period_ = params.find_period("clock", "2GHz");
  issue_width_ = params.find<std::uint32_t>("issue_width", 2);
  max_loads_ = params.find<std::uint32_t>("max_loads", 8);
  max_stores_ = params.find<std::uint32_t>("max_stores", 8);
  line_split_ = params.find<std::uint32_t>("line_split", 64);
  virt_ = params.find<bool>("virt", false);
  asid_ = params.find<std::uint32_t>("asid", 0);
  if (issue_width_ == 0) {
    throw ConfigError("core '" + name() + "': issue_width must be >= 1");
  }
  if (max_loads_ == 0 || max_stores_ == 0) {
    throw ConfigError("core '" + name() + "': max_loads/max_stores >= 1");
  }

  mem_link_ = configure_link(
      "mem", [this](EventPtr ev) { handle_mem(std::move(ev)); });

  register_as_primary();
  register_clock(period_, [this](Cycle c) { return tick(c); });
  clock_active_ = true;

  instructions_ = stat_counter("instructions");
  flops_ = stat_counter("flops");
  loads_ = stat_counter("loads");
  stores_ = stat_counter("stores");
  mem_bytes_ = stat_counter("mem_bytes");
  busy_cycles_ = stat_counter("busy_cycles");
  stall_cycles_ = stat_counter("stall_cycles");
  sleeps_ = stat_counter("sleeps");
  load_latency_ = stat_accumulator("load_latency_ps");
}

void Core::set_workload(WorkloadPtr workload) {
  if (!workload) throw ConfigError("core '" + name() + "': null workload");
  workload_ = std::move(workload);
}

void Core::setup() {
  if (!workload_) {
    throw ConfigError("core '" + name() +
                      "': no workload attached (call set_workload)");
  }
}

void Core::send_mem(mem::MemCmd cmd, Addr addr, std::uint32_t size) {
  const std::uint64_t id = next_req_id_++;
  const bool is_load = cmd == mem::MemCmd::kGetS;
  in_flight_.emplace(id, InFlight{is_load, is_load ? now() : 0});
  if (is_load) {
    ++outstanding_loads_;
  } else {
    ++outstanding_stores_;
  }
  auto ev = std::make_unique<mem::MemEvent>(cmd, addr, size, id);
  if (virt_) {
    ev->set_virt(true);
    ev->set_asid(asid_);
  }
  mem_link_->send(std::move(ev));
}

bool Core::try_issue(const Op& op) {
  if (op.depends_on_loads && outstanding_loads_ > 0) return false;

  switch (op.type) {
    case OpType::kLoad:
    case OpType::kStore: {
      const bool is_load = op.type == OpType::kLoad;
      // Split at line boundaries so caches see line-contained requests.
      const Addr first_line = op.addr / line_split_;
      const Addr last_line =
          (op.addr + (op.size ? op.size - 1 : 0)) / line_split_;
      const unsigned pieces = static_cast<unsigned>(last_line - first_line) + 1;
      // An op needing more pieces than the whole budget may still issue
      // once the pipeline drains (it would deadlock otherwise).
      if (is_load) {
        if (outstanding_loads_ + pieces > max_loads_ &&
            outstanding_loads_ > 0) {
          return false;
        }
      } else {
        if (outstanding_stores_ + pieces > max_stores_ &&
            outstanding_stores_ > 0) {
          return false;
        }
      }
      Addr a = op.addr;
      std::uint32_t remaining = op.size;
      for (unsigned p = 0; p < pieces; ++p) {
        const Addr line_end = (a / line_split_ + 1) * line_split_;
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<Addr>(remaining, line_end - a));
        send_mem(is_load ? mem::MemCmd::kGetS : mem::MemCmd::kGetX, a, chunk);
        a += chunk;
        remaining -= chunk;
      }
      (is_load ? loads_ : stores_)->add();
      mem_bytes_->add(op.size);
      return true;
    }
    case OpType::kFlop:
      flops_->add();
      return true;
    case OpType::kIntOp:
    case OpType::kBranch:
      return true;
  }
  return true;
}

bool Core::tick(Cycle /*cycle*/) {
  unsigned issued = 0;
  while (issued < issue_width_) {
    if (!pending_) {
      Op op;
      if (stream_done_ || !workload_->next(op)) {
        stream_done_ = true;
        break;
      }
      pending_ = op;
    }
    if (!try_issue(*pending_)) break;
    pending_.reset();
    instructions_->add();
    ++issued;
  }

  if (issued > 0) {
    busy_cycles_->add();
  } else {
    stall_cycles_->add();
  }

  if (stream_done_ && !pending_) {
    // Drain: once memory quiesces the program is complete.
    clock_active_ = false;
    complete_if_drained();
    return true;  // unregister; wake (if needed) via responses
  }

  if (issued == 0 && (outstanding_loads_ > 0 || outstanding_stores_ > 0)) {
    // Fully blocked on memory: sleep until a response arrives.
    sleeps_->add();
    clock_active_ = false;
    return true;
  }

  if (issued == 0) {
    throw SimulationError("core '" + name() +
                          "': no progress with no memory outstanding");
  }
  return false;
}

void Core::activate_clock() {
  if (clock_active_ || completed_) return;
  clock_active_ = true;
  register_clock(period_, [this](Cycle c) { return tick(c); });
}

void Core::handle_mem(EventPtr ev) {
  auto resp = event_cast<mem::MemEvent>(std::move(ev));
  auto it = in_flight_.find(resp->req_id());
  if (it == in_flight_.end()) {
    throw SimulationError("core '" + name() + "': unmatched mem response");
  }
  const InFlight req = it->second;
  in_flight_.erase(it);
  if (req.is_load) {
    --outstanding_loads_;
    load_latency_->add(static_cast<double>(now() - req.issued));
  } else {
    --outstanding_stores_;
  }

  if (stream_done_ && !pending_ && !clock_active_) {
    complete_if_drained();
  } else {
    activate_clock();
  }
}

void Core::complete_if_drained() {
  if (completed_) return;
  if (outstanding_loads_ > 0 || outstanding_stores_ > 0) return;
  completed_ = true;
  completion_time_ = now();
  primary_ok_to_end_sim();
}

void Core::finish() {
  // Derived metrics recorded as statistics for the output dumps.
  const double cycles =
      period_ > 0 ? static_cast<double>(completion_time_) /
                        static_cast<double>(period_)
                  : 0.0;
  auto* summary = stat_accumulator("final_cycles");
  summary->add(cycles);
  auto* ipc = stat_accumulator("final_ipc");
  if (cycles > 0) {
    ipc->add(static_cast<double>(instructions_->count()) / cycles);
  }
}

void Core::serialize_state(ckpt::Serializer& s) {
  // The in-flight table is written as two ordered maps, req_id -> is_load
  // and (loads only) req_id -> issue time, so the bytes do not depend on
  // hash order.
  std::map<std::uint64_t, bool> is_load;
  std::map<std::uint64_t, SimTime> issued;
  for (const auto& [id, f] : in_flight_) {
    is_load.emplace(id, f.is_load);
    if (f.is_load) issued.emplace(id, f.issued);
  }
  s & pending_ & stream_done_ & completed_ & clock_active_ &
      completion_time_ & outstanding_loads_ & outstanding_stores_ &
      next_req_id_ & is_load & issued;
  in_flight_.clear();
  std::size_t loads = 0;
  for (const auto& [id, load] : is_load) {
    auto t = issued.find(id);
    if (load != (t != issued.end())) break;
    in_flight_.emplace(id, InFlight{load, load ? t->second : 0});
    loads += load ? 1 : 0;
  }
  if (in_flight_.size() != is_load.size() || loads != issued.size()) {
    throw ckpt::CheckpointError("core '" + name() +
                                "': checkpoint in-flight tables disagree");
  }
  if (workload_ != nullptr) workload_->serialize(s);
}

}  // namespace sst::proc
