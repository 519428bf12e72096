// Set-associative, write-back, write-allocate, non-blocking cache.
//
// Non-blocking behaviour is the load-bearing feature for the design-space
// experiments: misses allocate MSHRs and overlap, so wide cores and
// high-bandwidth memories actually get exercised (a blocking cache would
// flatten every sweep).  When the MSHR table fills, further misses queue
// in a stall buffer and replay as MSHRs retire.
//
// An optional next-N-line prefetcher rides on the miss stream: each
// demand miss also fetches the following `prefetch_degree` lines (when
// MSHR budget allows), and prefetched lines are tagged so usefulness is
// measurable.
//
// Ports:
//   "cpu" — upstream (requests arrive, responses leave)
//   "mem" — downstream (line fills / writebacks)
//
// Params: the "mem.Cache" list registered in mem_lib.cpp (sstsim
// --list-components prints it).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/component.h"
#include "mem/mem_event.h"

namespace sst::mem {

class Cache final : public Component {
 public:
  explicit Cache(Params& params);

  // Introspection for tests.
  [[nodiscard]] std::uint64_t hits() const { return hits_->count(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_->count(); }
  [[nodiscard]] std::uint32_t num_sets() const { return num_sets_; }
  [[nodiscard]] std::uint32_t assoc() const { return assoc_; }
  [[nodiscard]] std::uint32_t line_size() const { return line_size_; }
  [[nodiscard]] std::size_t mshrs_in_use() const { return mshrs_.size(); }

  void serialize_state(ckpt::Serializer& s) override;

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  // brought in by the prefetcher, untouched
    std::uint64_t lru = 0;    // higher = more recently used

    void ckpt_io(ckpt::Serializer& s);
  };

  struct Mshr {
    Addr line_addr = 0;
    bool prefetch = false;  // no waiters expected
    std::vector<std::unique_ptr<MemEvent>> waiters;

    void ckpt_io(ckpt::Serializer& s);
  };

  void handle_cpu(EventPtr ev);
  void handle_mem(EventPtr ev);
  void process_request(std::unique_ptr<MemEvent> req,
                       bool count_stats);

  [[nodiscard]] Addr line_base(Addr a) const {
    return a & ~static_cast<Addr>(line_size_ - 1);
  }
  [[nodiscard]] std::uint32_t set_index(Addr a) const {
    return static_cast<std::uint32_t>(a >> line_shift_) & (num_sets_ - 1);
  }
  [[nodiscard]] std::uint64_t tag_of(Addr a) const { return a >> tag_shift_; }

  /// Looks up the line; returns way index or -1.
  [[nodiscard]] int lookup(Addr a) const;
  /// Victim selection in the set of `a` (invalid way first, else LRU).
  [[nodiscard]] int choose_victim(std::uint32_t set) const;
  void touch(std::uint32_t set, int way);
  void install_line(Addr line_addr, bool dirty, bool prefetched);
  void respond(const MemEvent& req);
  /// Issues next-line prefetches following a demand miss at `line_addr`.
  void maybe_prefetch(Addr line_addr);

  Link* cpu_link_;
  Link* mem_link_;

  std::uint32_t line_size_;
  std::uint32_t assoc_;
  std::uint32_t num_sets_;
  // Both are powers of two: set = (addr >> line_shift_) mod num_sets_,
  // tag = addr >> tag_shift_.
  unsigned line_shift_;
  unsigned tag_shift_;
  SimTime hit_latency_;
  std::uint32_t max_mshrs_;
  bool prefetch_enabled_;
  std::uint32_t prefetch_degree_;

  std::vector<std::vector<Line>> sets_;
  std::uint64_t lru_clock_ = 1;
  std::unordered_map<std::uint64_t, Mshr> mshrs_;  // key: outgoing req_id
  std::unordered_map<Addr, std::uint64_t> mshr_by_line_;  // line -> req_id
  std::deque<std::unique_ptr<MemEvent>> stalled_;
  std::uint64_t next_req_id_ = 1;

  Counter* hits_;
  Counter* misses_;
  Counter* writebacks_;
  Counter* evictions_;
  Counter* mshr_merges_;
  Counter* stalls_;
  Counter* prefetches_;
  Counter* prefetch_hits_;

 public:
  [[nodiscard]] std::uint64_t prefetches_issued() const {
    return prefetches_->count();
  }
  [[nodiscard]] std::uint64_t prefetch_hits() const {
    return prefetch_hits_->count();
  }
};

}  // namespace sst::mem
