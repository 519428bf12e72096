// TimeVortex ordering and bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/time_vortex.h"

namespace sst {
namespace {

class StampedEvent final : public Event {
 public:
  explicit StampedEvent(int id) : id_(id) {}
  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace

// Engine-level stamping rights for direct heap tests (friend of Event).
class TimeVortexTestPeer {
 public:
  static EventPtr stamped(SimTime t, std::uint32_t prio, int id) {
    auto ev = std::make_unique<StampedEvent>(id);
    ev->delivery_time_ = t;
    ev->priority_ = prio;
    ev->link_id_ = 0;  // single synthetic source
    ev->order_ = static_cast<std::uint64_t>(id);
    return ev;
  }
  static EventPtr keyed(SimTime t, std::uint32_t prio, LinkId source,
                        std::uint64_t seq) {
    auto ev = std::make_unique<StampedEvent>(0);
    ev->delivery_time_ = t;
    ev->priority_ = prio;
    ev->link_id_ = source;
    ev->order_ = seq;
    return ev;
  }
  static LinkId source(const Event& ev) { return ev.link_id_; }
  /// The full ordering key, which EventOrder compares lexicographically.
  static std::tuple<SimTime, std::uint32_t, LinkId, std::uint64_t> key(
      const Event& ev) {
    return {ev.delivery_time_, ev.priority_, ev.link_id_, ev.order_};
  }
};

namespace {

TEST(TimeVortex, PopsInTimeOrder) {
  TimeVortex tv;
  rng::XorShift128Plus rng(42);
  std::vector<SimTime> times;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = rng.next_bounded(100000);
    times.push_back(t);
    tv.insert(TimeVortexTestPeer::stamped(t, Event::kPriorityDefault, i));
  }
  std::sort(times.begin(), times.end());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tv.next_time(), times[static_cast<size_t>(i)]);
    auto ev = tv.pop();
    EXPECT_EQ(ev->delivery_time(), times[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(tv.empty());
  EXPECT_EQ(tv.next_time(), kTimeNever);
}

TEST(TimeVortex, FifoForEqualTimes) {
  TimeVortex tv;
  for (int i = 0; i < 100; ++i) {
    tv.insert(TimeVortexTestPeer::stamped(50, Event::kPriorityDefault, i));
  }
  for (int i = 0; i < 100; ++i) {
    auto ev = tv.pop();
    EXPECT_EQ(static_cast<StampedEvent&>(*ev).id(), i);
  }
}

TEST(TimeVortex, PriorityBreaksTimeTies) {
  TimeVortex tv;
  tv.insert(TimeVortexTestPeer::stamped(10, Event::kPriorityDefault, 1));
  tv.insert(TimeVortexTestPeer::stamped(10, Event::kPriorityClock, 2));
  tv.insert(TimeVortexTestPeer::stamped(10, Event::kPriorityLow, 3));
  EXPECT_EQ(static_cast<StampedEvent&>(*tv.pop()).id(), 2);  // clock first
  EXPECT_EQ(static_cast<StampedEvent&>(*tv.pop()).id(), 1);
  EXPECT_EQ(static_cast<StampedEvent&>(*tv.pop()).id(), 3);
}

TEST(TimeVortex, InterleavedInsertPop) {
  TimeVortex tv;
  tv.insert(TimeVortexTestPeer::stamped(5, 100, 0));
  tv.insert(TimeVortexTestPeer::stamped(3, 100, 1));
  EXPECT_EQ(tv.pop()->delivery_time(), 3u);
  tv.insert(TimeVortexTestPeer::stamped(1, 100, 2));
  EXPECT_EQ(tv.pop()->delivery_time(), 1u);
  EXPECT_EQ(tv.pop()->delivery_time(), 5u);
}

TEST(TimeVortex, Bookkeeping) {
  TimeVortex tv;
  for (int i = 0; i < 10; ++i) {
    tv.insert(TimeVortexTestPeer::stamped(static_cast<SimTime>(i), 100, i));
  }
  EXPECT_EQ(tv.size(), 10u);
  for (int i = 0; i < 10; ++i) (void)tv.pop();
  EXPECT_EQ(tv.size(), 0u);
}

// ---- Differential checks against a reference ordered by EventOrder ----

/// Draws tie-heavy ordering keys like the engine's: a few delivery times on
/// a 20 ns grid plus one next to kTimeNever, 64 sources of which four are
/// clock ids (kClockSourceBase | period), the engine's three priorities
/// plus UINT32_MAX, and a sequence number per source.  Half the sources
/// count from 2^63; with UINT32_MAX and the clock ids, the top bit of
/// every key field varies.
class KeyDraw {
 public:
  explicit KeyDraw(std::uint64_t seed) : rng_(seed) {
    for (LinkId s = 0; s < 58; ++s) sources_.push_back(s);
    sources_.push_back(Event::kClockSourceBase - 1);  // largest link id
    sources_.push_back(kInvalidLink - 1);
    for (const LinkId period : {1U, 500U, 1000U, 0x7fff'ffffU}) {
      sources_.push_back(Event::kClockSourceBase | period);
    }
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      next_seq_.push_back(i % 2 == 0 ? 0 : std::uint64_t{1} << 63);
    }
  }

  EventPtr next() {
    static constexpr SimTime kTimes[] = {
        0, 20'000, 40'000, 60'000, 80'000, kTimeNever - 1};
    static constexpr std::uint32_t kPrios[] = {
        Event::kPriorityClock, Event::kPriorityDefault, Event::kPriorityLow,
        std::numeric_limits<std::uint32_t>::max()};
    const SimTime t = kTimes[rng_.next_bounded(std::size(kTimes))];
    const std::uint32_t prio = kPrios[rng_.next_bounded(std::size(kPrios))];
    const std::size_t s = rng_.next_bounded(sources_.size());
    return TimeVortexTestPeer::keyed(t, prio, sources_[s], next_seq_[s]++);
  }

  std::uint64_t bounded(std::uint64_t n) { return rng_.next_bounded(n); }

 private:
  rng::XorShift128Plus rng_;
  std::vector<LinkId> sources_;
  std::vector<std::uint64_t> next_seq_;
};

struct ByEventOrder {
  bool operator()(const Event* a, const Event* b) const {
    return EventOrder{}(*a, *b);
  }
};
using Reference = std::set<const Event*, ByEventOrder>;

/// Checks size() and next_time() against the reference.
void expect_same(const TimeVortex& tv, const Reference& ref) {
  ASSERT_EQ(tv.size(), ref.size());
  EXPECT_EQ(tv.next_time(),
            ref.empty() ? kTimeNever : (*ref.begin())->delivery_time());
}

/// Pops one event and checks it is the reference's earliest.
void pop_and_check(TimeVortex& tv, Reference& ref) {
  EventPtr ev = tv.pop();
  ASSERT_FALSE(ref.empty());
  ASSERT_EQ(ev.get(), *ref.begin());
  ref.erase(ref.begin());
}

/// Extracts the events of every source `pred` accepts and checks they are
/// exactly the reference's events of those sources.
template <typename Pred>
void extract_and_check(TimeVortex& tv, Reference& ref, Pred pred) {
  std::vector<EventPtr> out = tv.extract_if(pred);
  std::vector<const Event*> got;
  for (const EventPtr& ev : out) got.push_back(ev.get());
  std::vector<const Event*> want;
  for (auto it = ref.begin(); it != ref.end();) {
    if (pred(TimeVortexTestPeer::source(**it))) {
      want.push_back(*it);
      it = ref.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(got.begin(), got.end(), ByEventOrder{});
  EXPECT_EQ(got, want);
}

TEST(TimeVortex, DifferentialRandomWalk) {
  // The walk climbs to depth 4096 and back to empty twice; every step is
  // an insert, a pop or (one in 1000) an extract_if, checked against the
  // reference.
  KeyDraw keys(2024);
  TimeVortex tv;
  Reference ref;
  std::size_t deepest = 0;
  for (int climb = 0; climb < 2; ++climb) {
    for (const bool up : {true, false}) {
      while (up ? ref.size() < 4096 : !ref.empty()) {
        const std::uint64_t roll = keys.bounded(1000);
        if (roll == 0) {
          // About one source in 16 to 64, as a migration takes the
          // events of one component's links.
          const LinkId modulus = 16 + static_cast<LinkId>(keys.bounded(48));
          const LinkId pick = static_cast<LinkId>(keys.bounded(modulus));
          extract_and_check(tv, ref, [=](LinkId s) {
            return s % modulus == pick;
          });
        } else if (ref.empty() || roll < (up ? 700U : 300U)) {
          EventPtr ev = keys.next();
          ref.insert(ev.get());
          tv.insert(std::move(ev));
        } else {
          pop_and_check(tv, ref);
        }
        expect_same(tv, ref);
        if (HasFatalFailure()) return;
        deepest = std::max(deepest, ref.size());
      }
    }
  }
  EXPECT_GE(deepest, 4096u);
}

TEST(TimeVortex, ExtractIfRebuildsAtEverySmallSize) {
  // extract_if's make-heap at every size up to 64, with predicates that
  // take nothing, everything, the clock ids or a share of the sources;
  // the remaining heap must then pop in the reference order.
  KeyDraw keys(7);
  for (std::size_t n = 0; n <= 64; ++n) {
    for (int variant = 0; variant < 6; ++variant) {
      TimeVortex tv;
      Reference ref;
      for (std::size_t i = 0; i < n; ++i) {
        EventPtr ev = keys.next();
        ref.insert(ev.get());
        tv.insert(std::move(ev));
      }
      const auto taken = [variant](LinkId s) {
        switch (variant) {
          case 0: return false;
          case 1: return true;
          case 2: return s >= Event::kClockSourceBase;
          case 3: return s % 2 == 0;
          case 4: return s % 3 != 0;
          default: return s % 5 == 1;
        }
      };
      extract_and_check(tv, ref, taken);
      expect_same(tv, ref);
      while (!ref.empty()) {
        pop_and_check(tv, ref);
        expect_same(tv, ref);
        if (HasFatalFailure()) return;
      }
      EXPECT_TRUE(tv.empty());
    }
  }
}

TEST(TimeVortex, InsertionOrderDoesNotChangeThePops) {
  // The same multiset of keys inserted in two orders pops the same
  // sequence: a mailbox drain inserts its events in whatever order the
  // sender threads flushed them.
  KeyDraw keys(99);
  std::vector<EventPtr> forward;
  std::vector<EventPtr> shuffled;
  for (int i = 0; i < 3000; ++i) {
    forward.push_back(keys.next());
    const auto [t, prio, src, seq] = TimeVortexTestPeer::key(*forward.back());
    shuffled.push_back(TimeVortexTestPeer::keyed(t, prio, src, seq));
  }
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[keys.bounded(i)]);
  }
  auto pops = [](std::vector<EventPtr> order) {
    TimeVortex tv;
    for (EventPtr& ev : order) tv.insert(std::move(ev));
    std::vector<std::tuple<SimTime, std::uint32_t, LinkId, std::uint64_t>> seq;
    while (!tv.empty()) seq.push_back(TimeVortexTestPeer::key(*tv.pop()));
    return seq;
  };
  const auto a = pops(std::move(forward));
  EXPECT_EQ(a, pops(std::move(shuffled)));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(TimeVortex, PopEmptyThrows) {
  TimeVortex tv;
  EXPECT_THROW((void)tv.pop(), SimulationError);
}

TEST(TimeVortex, NullInsertThrows) {
  TimeVortex tv;
  EXPECT_THROW(tv.insert(nullptr), SimulationError);
}

}  // namespace
}  // namespace sst
