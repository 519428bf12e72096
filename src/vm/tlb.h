// Multi-level TLB: per-level sets/ways/latency with deterministic true-LRU
// replacement, multiple concurrent page sizes (each probe checks every
// allowed size), and miss handling that coalesces same-page misses into one
// page-table walk (the cache-MSHR idiom).
//
// The TLB sits between a requester (core) and the first cache level: every
// request arriving on "cpu" carries a virtual address, is translated, and
// leaves on "mem" with the physical address; responses pass back upstream
// untouched (requesters match on req_id).  Misses go out the "ptw" port as
// WalkRequestEvents; the walker answers with the full page mapping, which
// installs into every level.  Shootdowns arrive on the optional "inval"
// port and are always ACKed, even when redundant, so the walker's retry
// protocol converges under drop/dup/delay faults.
//
// Ports:
//   "cpu"   — upstream (virtual-address requests in, responses out)
//   "mem"   — downstream (physical-address requests out, responses in)
//   "ptw"   — page-table walker (WalkRequest out, WalkResponse in)
//   "inval" — shootdown broadcast in, ACK out (optional)
//
// Params: the "vm.Tlb" list registered in vm_lib.cpp (sstsim
// --list-components prints it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/component.h"
#include "mem/mem_event.h"
#include "vm/vm_event.h"

namespace sst::vm {

class Tlb final : public Component {
 public:
  explicit Tlb(Params& params);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(levels_.size());
  }
  [[nodiscard]] std::uint32_t level_sets(std::uint32_t level) const {
    return levels_.at(level - 1).sets;
  }
  [[nodiscard]] std::uint32_t level_ways(std::uint32_t level) const {
    return levels_.at(level - 1).ways;
  }
  [[nodiscard]] std::uint64_t level_hits(std::uint32_t level) const {
    return hits_.at(level - 1)->count();
  }
  [[nodiscard]] std::uint64_t level_misses(std::uint32_t level) const {
    return misses_.at(level - 1)->count();
  }
  [[nodiscard]] std::uint64_t walks() const { return walks_->count(); }
  [[nodiscard]] std::uint64_t shootdowns() const {
    return shootdowns_->count();
  }
  [[nodiscard]] std::uint64_t invalidated_entries() const {
    return inval_entries_->count();
  }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  struct Entry {
    Addr vbase = 0;
    Addr pbase = 0;
    std::uint32_t asid = 0;
    std::uint8_t page_bits = 0;
    bool valid = false;
    std::uint64_t lru = 0;

    void ckpt_io(ckpt::Serializer& s);
  };

  struct Level {
    std::uint32_t sets = 0;
    std::uint32_t ways = 0;
    SimTime latency = 0;
  };

  /// One outstanding page-table walk; same-page misses pile on as waiters.
  struct PendingWalk {
    std::uint32_t asid = 0;
    Addr vaddr = 0;
    SimTime start = 0;
    std::vector<std::unique_ptr<mem::MemEvent>> waiters;

    void ckpt_io(ckpt::Serializer& s);
  };

  void handle_cpu(EventPtr ev);
  void handle_mem(EventPtr ev);
  void handle_ptw(EventPtr ev);
  void handle_inval(EventPtr ev);

  /// (level, cumulative latency) of the hit, or level 0 on full miss.
  struct LookupResult {
    std::uint32_t level = 0;
    SimTime latency = 0;
    Addr pbase = 0;
    Addr vbase = 0;
  };
  [[nodiscard]] LookupResult lookup(std::uint32_t asid, Addr vaddr);
  void install(std::uint32_t asid, Addr vbase, Addr pbase,
               std::uint8_t page_bits, std::uint32_t up_to_level);
  /// Translates and forwards one request downstream.
  void forward(std::unique_ptr<mem::MemEvent> req, Addr vbase, Addr pbase,
               SimTime extra_delay);

  Link* cpu_link_;
  Link* mem_link_;
  Link* ptw_link_;
  Link* inval_link_;

  bool enabled_;
  std::vector<Level> levels_;
  std::vector<std::uint8_t> probe_bits_;  // allowed page sizes, ascending
  SimTime miss_latency_ = 0;              // sum of every level's latency

  // entries_[level][set * ways + way]
  std::vector<std::vector<Entry>> entries_;
  std::uint64_t lru_clock_ = 1;
  std::map<std::uint64_t, PendingWalk> pending_;  // walk id -> state
  // (asid, vaddr >> 12) -> walk id: coalesces same-page misses.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>
      pending_by_page_;
  std::uint64_t next_walk_id_ = 1;

  std::vector<Counter*> hits_;    // per level
  std::vector<Counter*> misses_;  // per level
  Counter* walks_;
  Counter* walk_merges_;
  Counter* bypassed_;
  Counter* shootdowns_;
  Counter* inval_entries_;
  Accumulator* walk_latency_;
};

}  // namespace sst::vm
