#include "ckpt/migrate.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "core/clock.h"
#include "core/component.h"
#include "core/link.h"
#include "core/simulation.h"

namespace sst::ckpt {

void Migrator::migrate(Simulation& sim, ComponentId comp_id, RankId to) {
  if (comp_id >= sim.components_.size()) {
    throw SimulationError("migrate: component id " + std::to_string(comp_id) +
                          " out of range");
  }
  if (to >= sim.config_.num_ranks) {
    throw SimulationError("migrate: target rank " + std::to_string(to) +
                          " out of range");
  }
  Component& comp = *sim.components_[comp_id];
  const RankId from = comp.rank_;
  if (from == to) return;
  auto& src = sim.ranks_[from];
  auto& dst = sim.ranks_[to];

  // --- 1. Pull the component's pending deliveries out of the source
  // vortex: every event whose source link delivers into this component.
  // (Clock ticks live in the engine's source-id namespace and are
  // re-homed separately below.)  Sorted into the engine's total order so
  // the serialized blob is reproducible.
  std::vector<EventPtr> pending =
      src.vortex.extract_if([&sim, comp_id](LinkId id) {
        return id < Event::kClockSourceBase &&
               sim.link_target_[id] == comp_id;
      });
  std::sort(pending.begin(), pending.end(),
            [](const EventPtr& a, const EventPtr& b) {
              return EventOrder{}(*a, *b);
            });

  // --- 2. Pack dynamic state + pending events — the same bytes a
  // checkpoint would carry for this component.
  Serializer pack(Serializer::Mode::kPack);
  std::uint8_t ok = comp.said_ok_ ? 1 : 0;
  pack & ok & comp.trace_seq_ & comp.rng_;
  comp.serialize_state(pack);
  std::uint64_t nev = pending.size();
  pack & nev;
  for (const auto& ev : pending) detail::write_event(pack, *ev);
  pending.clear();

  // --- 3. Unpack back onto the component.  The round trip is the point:
  // state that fails to survive serialization is caught here, at
  // migration time, instead of corrupting a later checkpoint restore.
  Serializer unpack(std::move(pack.buffer()));
  ok = 0;
  unpack & ok & comp.trace_seq_ & comp.rng_;
  comp.said_ok_ = (ok != 0);
  comp.serialize_state(unpack);
  std::uint64_t mev = 0;
  unpack & mev;
  std::vector<EventPtr> events;
  events.reserve(mev);
  for (std::uint64_t i = 0; i < mev; ++i) {
    events.push_back(detail::read_event(unpack));
  }
  if (!unpack.exhausted()) {
    throw SimulationError(
        "migrate: component '" + comp.name_ +
        "' left trailing bytes in its state blob (serialize_state "
        "pack/unpack asymmetry)");
  }

  // --- 4. The component now lives on the target rank.
  comp.rank_ = to;

  // --- 5. Re-insert the pending events into the target vortex, handler
  // recomputed from the source link (Link objects never move).  Every
  // pending event is at or above the last horizon, hence above dst.now.
  for (auto& ev : events) {
    ev->handler_ = &sim.links_[ev->link_id_]->peer_->handler_;
    dst.vortex.insert(std::move(ev));
  }

  // --- 6. Re-home clock handlers tick-exactly.  At a sync barrier every
  // armed clock of period p has pending cycle ceil(H/p) for the shared
  // horizon H, so the source clock's pending cycle is exactly the cycle
  // the target clock must tick next.
  struct ClockMove {
    SimTime period = 0;
    Cycle pending = 0;
    Clock* source = nullptr;
    std::vector<Clock::Handler> handlers;
  };
  std::vector<ClockMove> clock_moves;
  for (auto& [key, clock_ptr] : sim.clocks_) {
    if (key.first != from) continue;
    Clock& sclk = *clock_ptr;
    ClockMove mv;
    mv.period = key.second;
    mv.source = &sclk;
    auto& hs = sclk.handlers_;
    for (std::size_t i = 0; i < hs.size();) {
      if (hs[i].comp == comp_id) {
        mv.handlers.push_back(std::move(hs[i]));
        hs.erase(hs.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (mv.handlers.empty()) continue;
    if (!sclk.scheduled_) {
      throw SimulationError(
          "migrate: source clock (period " + std::to_string(mv.period) +
          "ps) has handlers but no pending tick (engine bug)");
    }
    mv.pending = sclk.cycle_;
    clock_moves.push_back(std::move(mv));
  }
  for (auto& mv : clock_moves) {
    Clock* dclk = sim.get_clock(to, mv.period);
    if (dclk->scheduled_) {
      // Tick-cycle agreement: both clocks face the same horizon.
      if (dclk->cycle_ != mv.pending) {
        throw SimulationError(
            "migrate: clock cycle mismatch moving period " +
            std::to_string(mv.period) + "ps handlers: source pending cycle " +
            std::to_string(mv.pending) + ", target pending cycle " +
            std::to_string(dclk->cycle_) + " (engine bug)");
      }
      for (auto& h : mv.handlers) dclk->handlers_.push_back(std::move(h));
    } else {
      if (!dclk->handlers_.empty()) {
        throw SimulationError(
            "migrate: target clock (period " + std::to_string(mv.period) +
            "ps) has handlers but no pending tick (engine bug)");
      }
      // Direct push, bypassing add_handler's auto-arm: the clock must
      // tick at exactly the source's pending cycle, so arm explicitly.
      // schedule_next(now) arms cycle now/period + 1.
      for (auto& h : mv.handlers) dclk->handlers_.push_back(std::move(h));
      dclk->schedule_next((mv.pending - 1) * mv.period);
    }
    // If the source clock just lost its last handler, its pending tick
    // in the source vortex would fire into an empty dispatch (wasted
    // work) and, worse, leave a "scheduled but handler-less" clock that
    // checkpoint restore rejects.  Extract the tick (unique per (rank,
    // period) by construction of the clock source id) and park it in the
    // spare slot.
    Clock* sclk = mv.source;
    if (sclk->handlers_.empty() && sclk->scheduled_) {
      const LinkId tick_src =
          Event::kClockSourceBase |
          static_cast<LinkId>(mv.period & 0x7FFF'FFFFU);
      auto ticks = src.vortex.extract_if(
          [tick_src](LinkId id) { return id == tick_src; });
      if (ticks.size() != 1) {
        throw SimulationError(
            "migrate: expected exactly one pending tick for period " +
            std::to_string(mv.period) + "ps, found " +
            std::to_string(ticks.size()) + " (engine bug)");
      }
      sclk->spare_tick_ = std::move(ticks.front());
      sclk->scheduled_ = false;
    }
  }
}

void install_migrator(Simulation& sim) {
  sim.set_migrator([](Simulation& s, ComponentId comp, RankId to) {
    Migrator::migrate(s, comp, to);
  });
}

}  // namespace sst::ckpt
