// Event base class and handler types.
//
// Events are the unit of interaction between components.  Ownership is
// explicit: an event lives in exactly one place at a time (sender, queue,
// or handler), expressed with std::unique_ptr moving through the engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/types.h"

namespace sst {

namespace ckpt {
class Serializer;
class EventRegistry;
class CheckpointEngine;
}  // namespace ckpt

class Event;
using EventPtr = std::unique_ptr<Event>;

/// Callable invoked when an event arrives at a link endpoint.
/// The handler receives ownership of the event.
using EventHandler = std::function<void(EventPtr)>;

/// Base class for everything that travels on links or sits in the event
/// queue.  Models define subclasses carrying their payloads.
class Event {
 public:
  Event() = default;
  virtual ~Event() = default;

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Time at which this event is (or was) delivered.
  [[nodiscard]] SimTime delivery_time() const { return delivery_time_; }

  /// Deep copy of the payload (engine ordering fields are NOT copied; the
  /// clone is a fresh unsent event).  Returns nullptr for event types that
  /// do not support copying — fault-injection duplication needs clones, so
  /// models that should survive duplication faults override this.
  [[nodiscard]] virtual EventPtr clone() const { return nullptr; }

  /// Lower value ⇒ delivered first among events at the same time.
  /// The engine reserves small values; models should not need this.
  [[nodiscard]] std::uint32_t priority() const { return priority_; }

  /// Identifier of the link endpoint this event was sent on
  /// (kInvalidLink for engine-internal activities such as clock ticks).
  [[nodiscard]] LinkId link_id() const { return link_id_; }

  /// Checkpoint support: the stable type tag this event registers in the
  /// checkpoint event registry, or nullptr when the type is not
  /// checkpoint-serializable (a pending event of such a type makes the
  /// simulation uncheckpointable, which save() reports).
  [[nodiscard]] virtual const char* ckpt_type() const { return nullptr; }

  /// Checkpoint support: (un)packs the subclass payload.  The engine
  /// ordering fields are handled by the registry; overrides serialize
  /// model fields only.
  virtual void ckpt_fields(ckpt::Serializer&) {}

 private:
  friend class Simulation;
  friend class Link;
  friend class Clock;
  friend class TimeVortex;
  friend struct EventOrder;
  friend class TimeVortexTestPeer;  // unit tests stamp events directly
  friend class ckpt::EventRegistry;      // checkpoints engine fields
  friend class ckpt::CheckpointEngine;   // recomputes handler_ on restore

  SimTime delivery_time_ = 0;
  std::uint32_t priority_ = kPriorityDefault;
  // Source id: the sending link endpoint's id, or a clock source id
  // (kClockSourceBase | period) for tick events.  Together with the
  // per-source sequence number below this gives every event a total order
  // (time, priority, source, seq) that is identical for serial and
  // parallel execution and independent of partitioning.
  LinkId link_id_ = kInvalidLink;
  // Monotonic per-source sequence number stamped at send time.
  std::uint64_t order_ = 0;
  // Non-owning: the handler that consumes this event.  Set by the engine.
  const EventHandler* handler_ = nullptr;

 public:
  static constexpr std::uint32_t kPriorityClock = 10;
  static constexpr std::uint32_t kPriorityDefault = 100;
  static constexpr std::uint32_t kPriorityLow = 1000;
  /// Source-id namespace for clock tick events (above all real link ids).
  static constexpr LinkId kClockSourceBase = 0x8000'0000U;
};

/// Deterministic strict weak ordering over scheduled events:
/// (delivery_time, priority, source id, per-source sequence).
struct EventOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.delivery_time_ != b.delivery_time_)
      return a.delivery_time_ < b.delivery_time_;
    if (a.priority_ != b.priority_) return a.priority_ < b.priority_;
    if (a.link_id_ != b.link_id_) return a.link_id_ < b.link_id_;
    return a.order_ < b.order_;
  }
};

/// A trivial event with no payload; useful for wakeups and tests.
class NullEvent final : public Event {
 public:
  [[nodiscard]] EventPtr clone() const override {
    return std::make_unique<NullEvent>();
  }
  [[nodiscard]] const char* ckpt_type() const override { return "core.Null"; }
};

/// Convenience helper for models: makes an event of type T.
template <typename T, typename... Args>
EventPtr make_event(Args&&... args) {
  return std::make_unique<T>(std::forward<Args>(args)...);
}

/// Checked downcast for received events.  Throws SimulationError when the
/// event is not of the expected type (a protocol bug in the model).
template <typename T>
std::unique_ptr<T> event_cast(EventPtr ev) {
  T* p = dynamic_cast<T*>(ev.get());
  if (p == nullptr)
    throw SimulationError("event_cast: unexpected event type");
  ev.release();
  return std::unique_ptr<T>(p);
}

}  // namespace sst
