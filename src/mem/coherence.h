// Snooping MESI coherence: CoherentCache + SnoopBus.
//
// A bus-based multiprocessor memory system (the memHierarchy-style
// substrate for simulating shared-memory nodes):
//
//   core0 -- CoherentCache0 --+
//   core1 -- CoherentCache1 --+-- SnoopBus -- MemoryController
//   ...                       |
//
// The SnoopBus serializes coherence transactions (an atomic bus): each
// GetS / GetX / Upgrade is broadcast to every other cache, which answers
// with a snoop response (line state + data supply if Modified).  The bus
// then sources data from the owning cache (cache-to-cache intervention,
// with a memory write-back so memory stays clean) or from memory, and
// completes the transaction with the MESI sharing information the
// requester needs to pick its install state.
//
// Protocol summary (standard MESI):
//   read  miss -> GetS   -> install E (no sharers) or S (sharers exist)
//   write miss -> GetX   -> install M, all others invalidate
//   write to S -> Upgrade-> M after others invalidate; if an intervening
//                 GetX invalidated us first, the cache re-issues as GetX
//   write to E -> silent E->M
//   snoop Rd   : M -> supply data, ->S ; E->S ; S stays
//   snoop RdX  : M -> supply data, ->I ; E/S -> I
//   M eviction -> PutM through the bus to memory
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/component.h"
#include "mem/mem_event.h"

namespace sst::mem {

enum class MesiState : std::uint8_t { kInvalid, kShared, kExclusive,
                                      kModified };

[[nodiscard]] inline const char* to_string(MesiState s) {
  switch (s) {
    case MesiState::kInvalid: return "I";
    case MesiState::kShared: return "S";
    case MesiState::kExclusive: return "E";
    case MesiState::kModified: return "M";
  }
  return "?";
}

/// Bus -> cache snoop probe.
class SnoopEvent final : public Event {
 public:
  enum class Kind : std::uint8_t { kRead, kReadExclusive, kInvalidate };

  SnoopEvent(Kind kind, Addr line, std::uint64_t txn)
      : kind_(kind), line_(line), txn_(txn) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] Addr line() const { return line_; }
  [[nodiscard]] std::uint64_t txn() const { return txn_; }

  [[nodiscard]] const char* ckpt_type() const override {
    return "mem.Snoop";
  }
  void ckpt_fields(ckpt::Serializer& s) override;

 private:
  Kind kind_;
  Addr line_;
  std::uint64_t txn_;
};

/// Cache -> bus snoop answer.
class SnoopRespEvent final : public Event {
 public:
  SnoopRespEvent(std::uint64_t txn, bool had_line, bool supplied_data)
      : txn_(txn), had_line_(had_line), supplied_data_(supplied_data) {}

  [[nodiscard]] std::uint64_t txn() const { return txn_; }
  [[nodiscard]] bool had_line() const { return had_line_; }
  [[nodiscard]] bool supplied_data() const { return supplied_data_; }

  [[nodiscard]] const char* ckpt_type() const override {
    return "mem.SnoopResp";
  }
  void ckpt_fields(ckpt::Serializer& s) override;

 private:
  std::uint64_t txn_;
  bool had_line_;
  bool supplied_data_;
};

/// Coherence transaction request/response between caches and the bus.
/// (Kept separate from MemEvent so the plain hierarchy stays untouched.)
class CoherenceEvent final : public Event {
 public:
  enum class Cmd : std::uint8_t {
    kGetS,        // read miss
    kGetX,        // write miss
    kUpgrade,     // S -> M permission
    kPutM,        // modified write-back
    kGetSResp,
    kGetXResp,
    kUpgradeResp,
    kPutMAck,     // write-back reached the bus (clears the WB buffer)
  };

  CoherenceEvent(Cmd cmd, Addr line, std::uint32_t size, std::uint64_t id)
      : cmd_(cmd), line_(line), size_(size), id_(id) {}

  [[nodiscard]] Cmd cmd() const { return cmd_; }
  [[nodiscard]] Addr line() const { return line_; }
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Response only: other caches still hold the line (S vs E install).
  [[nodiscard]] bool shared() const { return shared_; }
  void set_shared(bool s) { shared_ = s; }
  /// Response only: data came from another cache, not memory.
  [[nodiscard]] bool intervention() const { return intervention_; }
  void set_intervention(bool i) { intervention_ = i; }

  [[nodiscard]] const char* ckpt_type() const override {
    return "mem.Coherence";
  }
  void ckpt_fields(ckpt::Serializer& s) override;

 private:
  Cmd cmd_;
  Addr line_;
  std::uint32_t size_;
  std::uint64_t id_;
  bool shared_ = false;
  bool intervention_ = false;
};

/// Atomic snooping bus.
///
/// Ports:
///   "cache0" .. "cache<N-1>" — coherent caches
///   "mem"                    — memory controller (MemEvent protocol)
///
/// Params: the "mem.SnoopBus" list registered in mem_lib.cpp.
class SnoopBus final : public Component {
 public:
  explicit SnoopBus(Params& params);

  [[nodiscard]] std::uint64_t transactions() const {
    return transactions_->count();
  }
  [[nodiscard]] std::uint64_t interventions() const {
    return interventions_->count();
  }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  struct Txn {
    std::uint32_t src_port;
    CoherenceEvent::Cmd cmd;
    Addr line;
    std::uint32_t size;
    std::uint64_t req_id;       // requester's id, echoed in the response
    std::uint64_t txn_id;
    std::uint32_t pending_snoops = 0;
    bool shared = false;
    bool intervention = false;

    void ckpt_io(ckpt::Serializer& s);
  };

  void handle_cache(std::uint32_t port, EventPtr ev);
  void handle_mem(EventPtr ev);
  void start_next();
  void finish_txn();

  std::vector<Link*> cache_links_;
  Link* mem_link_;
  SimTime occupancy_;

  std::deque<Txn> queue_;
  bool busy_ = false;
  Txn active_{};
  std::uint64_t next_txn_id_ = 1;

  Counter* transactions_;
  Counter* interventions_;
  Counter* invalidation_txns_;
  Accumulator* queue_depth_;
};

/// MESI-coherent L1 cache.
///
/// Ports:
///   "cpu" — core side (MemEvent protocol)
///   "bus" — SnoopBus side (CoherenceEvent / SnoopEvent protocol)
///
/// Params: the "mem.CoherentCache" list registered in mem_lib.cpp.
class CoherentCache final : public Component {
 public:
  explicit CoherentCache(Params& params);

  /// MESI state of the line containing `a` (introspection for tests).
  [[nodiscard]] MesiState state_of(Addr a) const;

  [[nodiscard]] std::uint64_t hits() const { return hits_->count(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_->count(); }
  [[nodiscard]] std::uint64_t invalidations_received() const {
    return invalidations_->count();
  }
  [[nodiscard]] std::uint64_t interventions_supplied() const {
    return supplied_->count();
  }
  [[nodiscard]] std::uint64_t upgrade_races() const {
    return upgrade_races_->count();
  }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  struct Line {
    std::uint64_t tag = 0;
    MesiState state = MesiState::kInvalid;
    std::uint64_t lru = 0;

    void ckpt_io(ckpt::Serializer& s);
  };

  struct Pending {
    Addr line_addr = 0;
    bool wants_write = false;  // at least one waiter is a store
    std::vector<std::unique_ptr<MemEvent>> waiters;

    void ckpt_io(ckpt::Serializer& s);
  };

  void handle_cpu(EventPtr ev);
  void handle_bus(EventPtr ev);
  void handle_snoop(std::unique_ptr<SnoopEvent> snoop);
  void handle_response(std::unique_ptr<CoherenceEvent> resp);
  void process_request(std::unique_ptr<MemEvent> req,
                       bool count_stats);
  void send_bus_request(CoherenceEvent::Cmd cmd, Addr line,
                        std::uint64_t id);
  void install(Addr line_addr, MesiState state);

  [[nodiscard]] Addr line_base(Addr a) const {
    return a & ~static_cast<Addr>(line_size_ - 1);
  }
  [[nodiscard]] std::uint32_t set_index(Addr a) const {
    return static_cast<std::uint32_t>((a / line_size_) % num_sets_);
  }
  [[nodiscard]] std::uint64_t tag_of(Addr a) const {
    return a / line_size_ / num_sets_;
  }
  [[nodiscard]] Line* find_line(Addr a);
  [[nodiscard]] const Line* find_line(Addr a) const;

  Link* cpu_link_;
  Link* bus_link_;

  std::uint32_t line_size_;
  std::uint32_t assoc_;
  std::uint32_t num_sets_;
  SimTime hit_latency_;
  std::uint32_t max_mshrs_;

  std::vector<std::vector<Line>> sets_;
  std::uint64_t lru_clock_ = 1;
  std::map<std::uint64_t, Pending> pending_;       // id -> waiters
  std::map<Addr, std::uint64_t> pending_by_line_;
  std::deque<std::unique_ptr<MemEvent>> stalled_;
  std::uint64_t next_id_ = 1;
  // Evicted Modified lines whose PutM has not yet reached the bus; they
  // must still answer snoops or a racing reader would get stale memory.
  std::map<Addr, std::uint64_t> writeback_buffer_;  // line -> putm id

  Counter* hits_;
  Counter* misses_;
  Counter* invalidations_;
  Counter* supplied_;
  Counter* upgrades_;
  Counter* upgrade_races_;
  Counter* writebacks_;
};

}  // namespace sst::mem
