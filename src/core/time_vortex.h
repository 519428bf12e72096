// TimeVortex: the central pending-event queue of a simulation partition.
//
// A binary min-heap over (delivery_time, priority, source, sequence).  The
// name comes from SST, where the same structure drives the main event loop.
//
// Hot-path layout: each heap slot stores the full ordering key *inline*
// next to the owning event pointer, so sift comparisons never dereference
// the Event (which lives wherever the allocator put it).  A comparison is
// two adjacent 32-byte nodes instead of two random heap objects — the
// difference between L1 hits and cache misses on deep queues.  The key is
// two words compared as one 128-bit value, (time, priority << 32 | source),
// and the sequence number is read only when both words tie.
//
// Pops are bottom-up: the hole left at the root walks to a leaf along the
// smaller child, one comparison per level with a branch-free pick, and the
// displaced tail node then sifts up from that leaf — usually not far, as a
// tail node is among the latest in the heap.  Model traffic is tie-heavy
// (delivery times on a few-nanosecond grid), so the top of the heap holds
// many equal times; a sift that compares field by field, or stops as soon
// as the moving node wins, mispredicts at almost every level there.
//
// Ordering keys are unique — (source, seq) breaks every tie — so the pop
// sequence is the engine's deterministic total order regardless of heap
// shape, internal layout or the order in which events were inserted.
#pragma once

#include <cstddef>
#include <cstdint>
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
    heap_.emplace_back();  // the hole the new node sifts up from
    sift_up(heap_.size() - 1, 0,
            Node{e.delivery_time_,
                 std::uint64_t{e.priority_} << 32 | e.link_id_, e.order_,
                 std::move(ev)});
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
      if (pred(static_cast<LinkId>(heap_[r].word))) {
        out.push_back(std::move(heap_[r].ev));
      } else {
        if (w != r) heap_[w] = std::move(heap_[r]);
        ++w;
      }
    }
    if (w == heap_.size()) return out;  // nothing matched; heap untouched
    heap_.resize(w);
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
    return out;
  }

 private:
  friend class ckpt::CheckpointEngine;  // reads the heap at capture

  /// One heap slot: the 24-byte ordering key inline, then the event.
  struct Node {
    SimTime time;
    std::uint64_t word;  // priority << 32 | source
    std::uint64_t seq;
    EventPtr ev;
  };

  __extension__ using u128 = unsigned __int128;

  /// EventOrder over the inline keys: (time, priority, source) is one
  /// 128-bit comparison, and seq breaks a tie of both words.
  [[nodiscard]] static bool before(const Node& a, const Node& b) {
    const u128 ka = u128{a.time} << 64 | a.word;
    const u128 kb = u128{b.time} << 64 | b.word;
    return ka != kb ? ka < kb : a.seq < b.seq;
  }

  // Both sifts move nodes into a hole that percolates through the tree:
  // one node move per level instead of a three-move swap.

  /// Fills the hole at `i` with `moving`, first walking the hole up past
  /// every ancestor that `moving` sorts before, but never above `top`.
  void sift_up(std::size_t i, std::size_t top, Node moving) {
    while (i > top) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(moving, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
  }

  /// Orders the subtree at `top`, whose children are already heaps: the
  /// hole left by the node at `top` walks down to a leaf along the smaller
  /// child, then that node sifts up from the leaf.  The sift-up stops at
  /// `top` because the make-heap in extract_if has not yet ordered the
  /// nodes above it.
  void sift_down(std::size_t top) {
    const std::size_t n = heap_.size();
    Node moving = std::move(heap_[top]);
    std::size_t i = top;
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n) c += before(heap_[c + 1], heap_[c]);
      heap_[i] = std::move(heap_[c]);
      i = c;
    }
    sift_up(i, top, std::move(moving));
  }

  std::vector<Node> heap_;
};

}  // namespace sst
