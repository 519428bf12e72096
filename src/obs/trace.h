// Event tracer: records what the engine did — event deliveries, clock
// handler dispatches, model-defined markers, and (optionally) the
// parallel engine's sync windows — and writes the result as Chrome
// trace-event JSON (load it at chrome://tracing or https://ui.perfetto.dev).
//
// Determinism contract: the default trace contains only *model-level*
// activity, keyed by simulated time and by ids that are assigned during
// construction (component ids, link ids, per-source sequence numbers).
// Records are buffered per rank without locks and merged into one total
// order at write time, so a trace taken at R ranks is byte-identical to
// the serial trace of the same model (for runs that terminate by
// end_time or by draining the event queue; primary-based termination is
// window-quantized, exactly like the engine itself).  Engine spans (sync
// windows) are inherently rank-dependent and are only emitted when
// include_engine is set.
//
// This layer depends only on core/types.h so that sst_core can link it
// without a dependency cycle; ids are resolved to names at write time
// through the TraceResolver interface the Simulation implements.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.h"

namespace sst::ckpt {
class Serializer;
}  // namespace sst::ckpt

namespace sst::obs {

/// One buffered trace record; resolved to names only at write time.
struct TraceRecord {
  /// Sort/emit order of kinds at equal time (clock ticks dispatch before
  /// same-time event deliveries in the engine, markers fire inside both).
  enum class Kind : std::uint8_t { kClock = 0, kDelivery = 1, kMarker = 2 };

  SimTime time = 0;
  Kind kind = Kind::kDelivery;
  std::uint32_t id = 0;   // link id (delivery) or component id (clock/marker)
  std::uint64_t seq = 0;  // per-link send seq / clock cycle / marker seq
  std::string name;       // marker name (empty for engine record kinds)
  std::string detail;     // optional marker payload

  void ckpt_io(ckpt::Serializer& s);
};

/// One conservative-PDES synchronization window (engine track).
struct SyncWindowRecord {
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t index = 0;

  void ckpt_io(ckpt::Serializer& s);
};

/// One component migration performed by the online rebalancer (engine
/// track): the span covers the sync window the move took effect in.
struct MigrationRecord {
  SimTime start = 0;
  SimTime end = 0;
  ComponentId comp = 0;
  RankId from = 0;
  RankId to = 0;

  void ckpt_io(ckpt::Serializer& s);
};

/// Resolves construction-time ids to stable names when the trace is
/// written.  Implemented by Simulation.
class TraceResolver {
 public:
  virtual ~TraceResolver() = default;

  /// Component that *received* an event sent on the given link endpoint.
  [[nodiscard]] virtual ComponentId delivery_target(LinkId link) const = 0;
  /// Receiving port name of the given sending endpoint ("l1.cpu").
  [[nodiscard]] virtual std::string delivery_label(LinkId link) const = 0;
  [[nodiscard]] virtual std::string component_name(ComponentId comp) const = 0;
  [[nodiscard]] virtual std::size_t component_count() const = 0;
};

class Tracer {
 public:
  explicit Tracer(unsigned num_ranks);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Record methods are called on the owning rank's thread only (the
  // per-rank buffers are unsynchronized by design); record_window is
  // called from the sync-barrier completion callback, which runs while
  // every rank thread is parked.
  void record_delivery(RankId rank, SimTime t, LinkId link,
                       std::uint64_t seq);
  void record_clock(RankId rank, SimTime t, ComponentId comp, Cycle cycle);
  void record_marker(RankId rank, SimTime t, ComponentId comp,
                     std::uint64_t seq, std::string name, std::string detail);
  void record_window(SimTime start, SimTime end, std::uint64_t index);
  void record_migration(SimTime start, SimTime end, ComponentId comp,
                        RankId from, RankId to);

  /// Include rank-dependent engine spans in the output (breaks the
  /// R-rank == serial byte-identity, which is why it is opt-in).
  void set_include_engine(bool on) { include_engine_ = on; }
  [[nodiscard]] bool include_engine() const { return include_engine_; }

  [[nodiscard]] std::size_t record_count() const;
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }
  [[nodiscard]] std::size_t migration_count() const {
    return migrations_.size();
  }

  /// Merges the per-rank buffers into the deterministic total order
  /// (time, kind, id, seq) and writes Chrome trace-event JSON.
  void write_json(std::ostream& os, const TraceResolver& resolver) const;

  /// Checkpoint hook: (un)packs the buffered records so a restarted run
  /// emits a trace identical to the uninterrupted one.  The per-rank
  /// buffers travel as one list and come back in rank 0's buffer:
  /// write_json sorts by a unique key, so the split never shows.
  void ckpt_io(ckpt::Serializer& s);

 private:
  std::vector<std::vector<TraceRecord>> per_rank_;
  std::vector<SyncWindowRecord> windows_;
  std::vector<MigrationRecord> migrations_;
  bool include_engine_ = false;
};

}  // namespace sst::obs
