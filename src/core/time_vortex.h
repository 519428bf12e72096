// TimeVortex: the central pending-event queue of a simulation partition.
//
// A 4-ary min-heap over (delivery_time, priority, source, sequence).  The
// name comes from SST, where the same structure drives the main event loop.
//
// Hot-path layout: each heap slot stores the full ordering key *inline*
// next to the owning event pointer, so sift comparisons never dereference
// the Event (which lives wherever the allocator put it).  A comparison is
// two adjacent 32-byte nodes instead of two random heap objects — the
// difference between L1 hits and cache misses on deep queues.  The 4-ary
// shape halves the tree depth (the sift-down on every pop walks ~log4
// levels) and keeps the four candidate children in two cache lines.
//
// Ordering keys are unique — (source, seq) breaks every tie — so the pop
// sequence is the engine's deterministic total order regardless of heap
// arity or internal layout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/types.h"

namespace sst {

class TimeVortex {
 public:
  TimeVortex() = default;

  TimeVortex(const TimeVortex&) = delete;
  TimeVortex& operator=(const TimeVortex&) = delete;
  TimeVortex(TimeVortex&&) = default;
  TimeVortex& operator=(TimeVortex&&) = default;

  // The queue operations run once (insert) or twice (next_time + pop)
  // per simulated event; they are defined inline below so the run loops
  // pay no cross-TU call per event.

  /// Inserts an event.  The event's ordering fields (delivery time,
  /// priority, source id, sequence) must already be stamped by the sender;
  /// they are copied into the heap node at insertion.
  void insert(EventPtr ev) {
    if (!ev) throw SimulationError("TimeVortex::insert: null event");
    const Event& e = *ev;
    heap_.push_back(Node{e.delivery_time_, e.priority_, e.link_id_,
                         e.order_, std::move(ev)});
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the earliest event.  Empty queue is a programming
  /// error (checked).
  [[nodiscard]] EventPtr pop() {
    if (heap_.empty()) throw SimulationError("TimeVortex::pop: empty queue");
    EventPtr top = std::move(heap_.front().ev);
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Time of the earliest event, or kTimeNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kTimeNever : heap_.front().time;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Drops every pending event (checkpoint restore replaces the queue
  /// wholesale).
  void clear() { heap_.clear(); }

  /// Removes every event whose *source id* satisfies `pred(LinkId)` and
  /// returns them in heap (not time) order; the heap is rebuilt in place
  /// with an O(n) bottom-up make-heap.  Used by component migration to
  /// pull a component's pending events out of the queue; callers needing
  /// time order must sort the result with EventOrder.
  template <typename Pred>
  [[nodiscard]] std::vector<EventPtr> extract_if(Pred pred) {
    std::vector<EventPtr> out;
    std::size_t w = 0;
    for (std::size_t r = 0; r < heap_.size(); ++r) {
      if (pred(heap_[r].source)) {
        out.push_back(std::move(heap_[r].ev));
      } else {
        if (w != r) heap_[w] = std::move(heap_[r]);
        ++w;
      }
    }
    if (w == heap_.size()) return out;  // nothing matched; heap untouched
    heap_.resize(w);
    if (heap_.size() > 1) {
      for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
        sift_down(i);
      }
    }
    return out;
  }

 private:
  friend class ckpt::CheckpointEngine;  // reads the heap at capture

  /// One heap slot: the 24-byte ordering key inline, then the event.
  struct Node {
    SimTime time;
    std::uint32_t priority;
    LinkId source;
    std::uint64_t seq;
    EventPtr ev;
  };

  /// EventOrder over the inline keys (kept in lockstep with EventOrder —
  /// same field-by-field comparison, no Event dereference).
  [[nodiscard]] static bool node_before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.source != b.source) return a.source < b.source;
    return a.seq < b.seq;
  }

  static constexpr std::size_t kArity = 4;

  // Both sifts move the displaced node into a hole that percolates
  // through the tree: one node move per level instead of a three-move
  // swap.

  void sift_up(std::size_t i) {
    if (i == 0) return;
    Node moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!node_before(moving, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Node moving = std::move(heap_[i]);
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t smallest = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (node_before(heap_[c], heap_[smallest])) smallest = c;
      }
      if (!node_before(heap_[smallest], moving)) break;
      heap_[i] = std::move(heap_[smallest]);
      i = smallest;
    }
    heap_[i] = std::move(moving);
  }

  std::vector<Node> heap_;
};

}  // namespace sst
