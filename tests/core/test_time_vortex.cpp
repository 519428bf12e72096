// TimeVortex ordering and bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
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
