// Clock: shared periodic tick distribution.
//
// Components register handlers at a frequency; all handlers with the same
// period on the same partition share one Clock, so an N-component system
// costs one event per cycle, not N.  A handler returning true unregisters
// itself; the Clock stops ticking when no handlers remain (and resumes when
// one is added), so simulated time can fast-forward through idle phases.
//
// Tick events are pooled: every Clock owns at most one ClockTickEvent,
// which shuttles between the TimeVortex and the clock's spare slot instead
// of being heap-allocated every cycle.  A steady-state clock therefore
// performs exactly one allocation over the whole run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/event.h"
#include "core/types.h"

namespace sst {

class Simulation;

/// Return true to unregister from further ticks.
using ClockHandler = std::function<bool(Cycle)>;

class Clock {
 public:
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  /// A registered handler, attributed to the component that owns it so
  /// the event tracer can label dispatches (kInvalidComponent marks
  /// engine-internal handlers, which are never traced).
  struct Handler {
    ComponentId comp = kInvalidComponent;
    ClockHandler fn;
  };

  [[nodiscard]] SimTime period() const { return period_; }
  [[nodiscard]] Cycle current_cycle() const { return cycle_; }
  [[nodiscard]] std::size_t handler_count() const { return handlers_.size(); }

  /// Total ticks dispatched (for engine statistics).
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Tick-pool traffic: fresh ClockTickEvent allocations vs. reuses of
  /// the spare slot.  allocs is 1 for a clock that never went idle;
  /// allocs + recycles equals the number of ticks scheduled.
  [[nodiscard]] std::uint64_t tick_allocs() const { return tick_allocs_; }
  [[nodiscard]] std::uint64_t tick_recycles() const {
    return tick_recycles_;
  }

 private:
  friend class Simulation;
  friend class ckpt::CheckpointEngine;  // cycle/handler-order overlay

  Clock(Simulation& sim, RankId rank, SimTime period);

  /// Adds a handler; (re)schedules the tick event if the clock was idle.
  void add_handler(ComponentId comp, ClockHandler h);

  /// Delivers one tick to all handlers; drops those that return true;
  /// reschedules when handlers remain.
  void tick(SimTime now);

  void schedule_next(SimTime now);

  /// Takes the pending tick back out of the rank's vortex into the spare
  /// slot: a migration moved the last handler away.
  void disarm();

  Simulation* sim_;
  RankId rank_;
  SimTime period_;
  Cycle cycle_ = 0;
  bool scheduled_ = false;
  std::uint64_t ticks_ = 0;
  std::vector<Handler> handlers_;
  EventHandler tick_handler_;  // bound once; target of tick events
  // Tick-event pool: the delivered tick parks here until schedule_next
  // re-stamps and re-inserts it (null while a tick is in the vortex or
  // after checkpoint restore cleared the queues).
  EventPtr spare_tick_;
  std::uint64_t tick_allocs_ = 0;
  std::uint64_t tick_recycles_ = 0;
};

}  // namespace sst
