// Checkpoint/restart subsystem: crash-consistent snapshots of a running
// simulation with bit-exact resume.
//
// A checkpoint is (a) the SDL configuration graph that built the model,
// embedded as JSON, and (b) a binary state blob capturing everything that
// is not determined by rebuilding that graph: pending events, link
// sequence numbers and queues, clock phases and surviving handlers, RNG
// streams, statistics values, fault-model state, observability buffers,
// and per-component model state (Component::serialize_state).
//
// Restore is a *rebuild + overlay*: the restarting process re-executes
// construction and initialization from the embedded graph (which is
// deterministic), then the state blob overlays every dynamic field.  The
// blob has no rank keys — one pending-event list, one record per clock
// period, run-wide counters, and each component's rank as a placement
// hint — so a snapshot resumes at any rank count, byte-identical to the
// uninterrupted run: same stats, same trace, same metrics.  Only
// --profile-engine and --trace-engine, whose output is per rank, need
// the rank count that wrote the snapshot.
//
// Files are written crash-consistently (temp file + fsync + atomic
// rename + directory fsync) with rotating last-K retention; the header
// carries a version and an FNV-1a checksum so a truncated or corrupt
// snapshot is detected at load, and loading falls back to the newest
// intact sibling.  See DESIGN.md for the on-disk format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/serializer.h"
#include "core/types.h"

namespace sst {
class Simulation;
}  // namespace sst

namespace sst::ckpt {

/// On-disk format version; bumped on any incompatible layout change.
/// v3: no rank keys — one pending-event list, one record per clock
/// period, run-wide counters; a component's rank is a placement hint
/// honoured at the writer's rank count.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// One decoded checkpoint: header metadata + payload sections.
struct CheckpointData {
  std::uint64_t seq = 0;      // monotonic snapshot number within a run
  SimTime sim_time = 0;       // simulated time at the snapshot cut
  std::string graph_json;     // the SDL ConfigGraph that built the model
  std::vector<std::byte> state;  // dynamic-state blob (CheckpointEngine)
};

/// Captures and overlays the dynamic state of a Simulation.  A friend of
/// the core classes: the engine-side fields (event queues, clock phases,
/// link sequences) are checkpoint concerns, not model API, so they stay
/// private to core and are reached from here.
class CheckpointEngine {
 public:
  /// Serializes the full dynamic state of `sim` (which must be at a safe
  /// point: inside the window barrier, as the engine calls writers).  Throws
  /// CheckpointError when a pending event's type is not registered for
  /// checkpointing.
  [[nodiscard]] static std::vector<std::byte> capture(Simulation& sim);

  /// Overlays a captured state blob onto a freshly initialized rebuild
  /// of the same configuration graph, at any rank count.  Throws
  /// CheckpointError on any mismatch (topology, settings, stream
  /// corruption) and when --profile-engine or --trace-engine asks for a
  /// rank count other than the writer's.
  static void restore(Simulation& sim, std::vector<std::byte> state);

  /// Largest per-rank simulated time (snapshot metadata).
  [[nodiscard]] static SimTime sim_time(const Simulation& sim);

 private:
  struct ClockRecord;
  struct EventSlot;

  /// The one walk over the state blob: capture packs through it, restore
  /// unpacks through it, and checks run only when unpacking.
  static void walk(Simulation& sim, Serializer& s);
  // The clock and event sections: gather on pack, apply on unpack.
  [[nodiscard]] static std::vector<ClockRecord> gather_clocks(
      const Simulation& sim);
  static void apply_clocks(Simulation& sim, std::vector<ClockRecord>& records);
  [[nodiscard]] static std::vector<EventSlot> gather_events(
      const Simulation& sim);
  static void apply_events(Simulation& sim, std::vector<EventSlot>& pending);
};

/// File name of snapshot `seq` inside a checkpoint directory.
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t seq);

/// Writes `data` into `dir` (created on demand) crash-consistently:
/// the bytes go to a temp file, are fsync'ed, and are atomically renamed
/// to checkpoint_file_name(data.seq); then all but the newest `keep`
/// snapshots in `dir` are removed.  Throws CheckpointError on I/O errors.
void write_checkpoint_file(const std::string& dir, const CheckpointData& data,
                           unsigned keep);

/// Reads and validates one checkpoint file.  Throws CheckpointError when
/// the file is unreadable, not a checkpoint, truncated, checksum-corrupt,
/// or of an unsupported version.
[[nodiscard]] CheckpointData read_checkpoint_file(const std::string& path);

/// Restart entry point: `path` is either a checkpoint file or a
/// checkpoint directory.  A directory loads its newest intact snapshot;
/// a corrupt/truncated file falls back to the newest intact sibling in
/// its directory (with a diagnostic on stderr naming what was rejected
/// and why).  Throws CheckpointError when no intact snapshot exists.
/// On success `*loaded_path` (when non-null) receives the file used.
[[nodiscard]] CheckpointData load_checkpoint(const std::string& path,
                                             std::string* loaded_path =
                                                 nullptr);

/// Installs the checkpoint writer on `sim` when its config sets a
/// simulated-time or wall-clock cadence, and does nothing otherwise: at
/// every due cadence point the engine captures the state blob and writes
/// it (with the graph JSON `graph_json` returns, called once here) into
/// sim.config().checkpoint_dir, numbering snapshots from `start_seq` + 1.
/// Pass the seq of the snapshot a run was restored from so the resumed
/// run continues the numbering.
void install_writer(Simulation& sim,
                    const std::function<std::string()>& graph_json,
                    std::uint64_t start_seq = 0);

}  // namespace sst::ckpt
