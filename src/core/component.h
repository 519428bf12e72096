// Component: base class for every simulated entity.
//
// Components are constructed through Simulation::add_component (or the
// Factory), configure their ports/clocks/statistics in their constructor,
// and interact with the world only through Links — never by calling each
// other directly.  That isolation is what lets the engine partition a
// component graph across ranks.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/clock.h"
#include "core/event.h"
#include "core/link.h"
#include "core/params.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "core/unit_algebra.h"

namespace sst {

class Simulation;

class Component {
 public:
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Multi-phase untimed initialization.  Called with increasing phase
  /// numbers until no component sends further init data.  Use
  /// Link::send_init / Link::recv_init here.
  virtual void init(unsigned phase) { (void)phase; }

  /// Called once after wiring and init phases, before time starts.
  virtual void setup() {}

  /// Called once after the run completes; a good place to finalize
  /// derived statistics.
  virtual void finish() {}

  /// Checkpoint hook: (un)packs this component's dynamic state through
  /// the bidirectional serializer (`s & field` both saves and restores —
  /// see src/ckpt/serializer.h).  The base-class state (primary flag,
  /// RNG stream, trace sequence) is handled by the checkpoint engine;
  /// overrides serialize model fields only.  Components whose state is
  /// fully determined by construction need not override.
  virtual void serialize_state(ckpt::Serializer& s) { (void)s; }

  [[nodiscard]] ComponentId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] RankId rank() const { return rank_; }

 protected:
  /// Binds to the Simulation currently constructing a component.
  /// Components must only be created via Simulation::add_component or the
  /// Factory.
  Component();

  [[nodiscard]] Simulation& sim() const { return *sim_; }

  /// Current simulated time of this component's partition.
  [[nodiscard]] SimTime now() const;

  /// Declares a port and attaches the receive handler.  The returned Link
  /// is used for sending; it becomes usable once the Simulation wires it.
  Link* configure_link(std::string_view port, EventHandler handler,
                       bool optional = false);

  /// Declares a port whose events are retrieved by polling (Link::poll).
  Link* configure_polling_link(std::string_view port, bool optional = false);

  /// A link from this component to itself with the given latency — the
  /// idiomatic way to model internal pipeline delays and timeouts.
  Link* configure_self_link(std::string_view name, SimTime latency,
                            EventHandler handler);

  /// Registers a periodic handler.  Accepts a period in ps.
  void register_clock(SimTime period_ps, ClockHandler handler);
  /// Registers from a frequency/period string, e.g. "2GHz" or "500ps".
  void register_clock(const UnitAlgebra& freq_or_period,
                      ClockHandler handler);

  /// Statistics; names must be unique within a component.
  Counter* stat_counter(const std::string& name);
  Accumulator* stat_accumulator(const std::string& name);
  Histogram* stat_histogram(const std::string& name, double lo, double width,
                            std::size_t nbins);

  /// Emits a marker into the event trace (no-op unless the run has
  /// tracing enabled — see SimConfig::trace / --trace).  Markers appear
  /// on this component's track at the current simulated time and are
  /// part of the deterministic trace: a parallel run records exactly the
  /// same markers as a serial one.
  void trace_event(const std::string& name, const std::string& detail = {});

  /// Termination protocol (see Simulation): a primary component keeps the
  /// simulation alive until it declares completion.
  void register_as_primary();
  void primary_ok_to_end_sim();

  /// Per-component deterministic random stream (seeded from the global
  /// seed and the component id).
  [[nodiscard]] rng::XorShift128Plus& rng() { return rng_; }

 private:
  friend class Simulation;
  friend class ckpt::CheckpointEngine;  // base state capture/overlay

  Simulation* sim_ = nullptr;
  ComponentId id_ = kInvalidComponent;
  std::string name_;
  RankId rank_ = 0;
  bool is_primary_ = false;
  bool said_ok_ = false;
  std::uint64_t trace_seq_ = 0;  // per-component marker sequence number
  rng::XorShift128Plus rng_;
};

}  // namespace sst
