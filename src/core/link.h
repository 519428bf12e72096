// Link: the only communication channel between components.
//
// A link connects two ports with a fixed minimum latency.  That latency is
// what makes conservative parallel simulation possible: the minimum latency
// of links that cross a partition boundary is the synchronization lookahead
// (exactly SST's model).
//
// Each Link object is one *endpoint*: the owning component receives events
// through the handler it registered and sends through Link::send(), which
// delivers to the peer endpoint's handler after the link latency.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "core/event.h"
#include "core/types.h"

namespace sst {

class Simulation;
class Component;

/// Fault-injection hook attached to one link endpoint (the sending side).
/// Consulted once per Link::send on the owning rank's thread, so a model
/// instance must never be shared between endpoints.  Concrete models live
/// in src/fault; core only knows this interface.
class LinkFault {
 public:
  virtual ~LinkFault() = default;

  /// What the fault model decided for one send.
  struct Action {
    bool drop = false;         // discard the event entirely
    bool duplicate = false;    // deliver a cloned copy as well
    SimTime extra_delay = 0;   // added to the link latency
  };

  /// Called for every event sent on the faulted endpoint.
  [[nodiscard]] virtual Action on_send(const Event& ev) = 0;

  /// A duplication was requested but the event type has no clone();
  /// the original is still delivered exactly once.
  virtual void on_duplicate_unclonable() {}

  /// Checkpoint hook: (un)packs the model's dynamic state (RNG stream,
  /// decision counters).  Stateless models need not override.
  virtual void serialize(ckpt::Serializer& s) { (void)s; }
};

class Link {
 public:
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sends an event to the peer endpoint; it is delivered at
  /// now + latency + extra_delay.
  void send(EventPtr ev, SimTime extra_delay = 0);

  /// During Simulation initialization only: sends untimed setup data to the
  /// peer (delivered in the next init phase).  Used e.g. by memory
  /// hierarchies to discover their topology before time starts.
  void send_init(EventPtr ev);

  /// During initialization only: retrieves the next untimed event received
  /// from the peer, if any.
  [[nodiscard]] EventPtr recv_init();

  /// For polling-mode endpoints: returns the next event whose delivery time
  /// has arrived, or nullptr.
  [[nodiscard]] EventPtr poll();

  /// True once the link has been wired to a peer.
  [[nodiscard]] bool connected() const { return peer_ != nullptr; }

  /// Minimum latency of this link in picoseconds (0 until wired).
  [[nodiscard]] SimTime latency() const { return latency_; }

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] const std::string& port() const { return port_; }

  /// Fault model installed on this endpoint, if any (see
  /// Simulation::install_link_fault).
  [[nodiscard]] const LinkFault* fault() const { return fault_.get(); }

 private:
  friend class Simulation;
  friend class Component;
  friend class ckpt::CheckpointEngine;  // send_seq_/poll_queue_ overlay

  Link(Simulation& sim, LinkId id, ComponentId owner, std::string port,
       EventHandler handler, bool polling, bool optional);

  /// Engine-side delivery into this endpoint (handler or polling queue).
  void deliver(EventPtr ev);

  /// Stamps ordering fields and hands the event to the engine.  send()
  /// funnels here after the fault model has had its say.
  void transmit(EventPtr ev, SimTime extra_delay);

  Simulation* sim_;
  LinkId id_;
  ComponentId owner_;
  std::string port_;
  EventHandler handler_;          // empty for polling endpoints
  bool polling_ = false;
  bool optional_ = false;

  // Wiring (filled by Simulation when connected):
  Link* peer_ = nullptr;
  SimTime latency_ = 0;
  RankId owner_rank_ = 0;
  RankId peer_rank_ = 0;
  std::uint64_t send_seq_ = 0;    // deterministic cross-rank ordering
  std::unique_ptr<LinkFault> fault_;  // null on the (common) healthy path

  std::deque<EventPtr> poll_queue_;
  std::deque<EventPtr> init_queue_;
  // send_init stages here; the engine moves staged events to the peer's
  // init_queue_ between phases so delivery order is phase-accurate.
  std::deque<EventPtr> init_staging_;
};

}  // namespace sst
