#include "core/clock.h"

#include <algorithm>
#include <utility>

#include "core/simulation.h"

namespace sst {

namespace {
/// Engine-internal event carrying a clock tick.
class ClockTickEvent final : public Event {};
}  // namespace

Clock::Clock(Simulation& sim, RankId rank, SimTime period)
    : sim_(&sim), rank_(rank), period_(period) {
  if (period_ == 0) throw ConfigError("clock period must be >= 1ps");
  tick_handler_ = [this](EventPtr ev) {
    const SimTime now = ev->delivery_time();
    // Recycle in place: the consumed tick returns to the spare slot
    // before dispatch, so a schedule_next() from tick() (or from a
    // handler re-registering) reuses it instead of allocating.
    spare_tick_ = std::move(ev);
    tick(now);
  };
}

void Clock::add_handler(ComponentId comp, ClockHandler h) {
  if (!h) throw ConfigError("null clock handler");
  handlers_.push_back({comp, std::move(h)});
  if (!scheduled_) schedule_next(sim_->rank_now(rank_));
}

void Clock::schedule_next(SimTime now) {
  // First tick strictly after `now`, aligned to multiples of the period.
  const Cycle next_cycle = now / period_ + 1;
  EventPtr ev;
  if (spare_tick_ != nullptr) {
    ev = std::move(spare_tick_);
    ++tick_recycles_;
  } else {
    ev = std::make_unique<ClockTickEvent>();
    ++tick_allocs_;
  }
  ev->delivery_time_ = next_cycle * period_;
  ev->priority_ = Event::kPriorityClock;
  ev->handler_ = &tick_handler_;
  // Deterministic tie-break among same-time clock ticks: order clocks by
  // period (unique per rank), independent of creation order.
  ev->link_id_ = Event::kClockSourceBase |
                 static_cast<LinkId>(period_ & 0x7FFF'FFFFU);
  ev->order_ = next_cycle;
  cycle_ = next_cycle;
  scheduled_ = true;
  sim_->schedule_local(rank_, std::move(ev));
}

void Clock::disarm() {
  const LinkId source = Event::kClockSourceBase |
                        static_cast<LinkId>(period_ & 0x7FFF'FFFFU);
  TimeVortex& vortex = sim_->ranks_[rank_].vortex;
  for (EventPtr& ev : vortex.extract_if(
           [source](LinkId id) { return id == source; })) {
    // Periods equal modulo 2^31 share a source id; keep the other
    // clock's tick queued.
    if (ev->handler_ == &tick_handler_) {
      spare_tick_ = std::move(ev);
    } else {
      vortex.insert(std::move(ev));
    }
  }
  scheduled_ = false;
}

void Clock::tick(SimTime now) {
  scheduled_ = false;
  ++ticks_;
  const Cycle cycle = cycle_;
  // One tracer check per tick, not per handler (the flag cannot change
  // mid-run).
  const bool tracing = sim_->tracing();
  // Rebalance accounting: a tick's work is attributed to each component
  // that handles it (flag only toggled while the engine is
  // single-threaded; the counters are per-component, owned by this
  // clock's rank).
  const bool account = sim_->rebalance_accounting_;
  // Dispatch in registration order; drop handlers that return true.
  // A handler may register new clocks/handlers while running, so index
  // rather than iterate.
  std::size_t i = 0;
  while (i < handlers_.size()) {
    if (tracing && handlers_[i].comp != kInvalidComponent) {
      sim_->trace_clock_dispatch(rank_, now, handlers_[i].comp, cycle);
    }
    if (account && handlers_[i].comp != kInvalidComponent) {
      ++sim_->comp_epoch_events_[handlers_[i].comp];
    }
    const bool done = handlers_[i].fn(cycle);
    if (done) {
      handlers_.erase(handlers_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (!handlers_.empty()) schedule_next(now);
}

}  // namespace sst
