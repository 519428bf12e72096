// Engine self-profiler output: a periodic stream of metrics snapshots,
// one JSON object per line (JSONL), suitable both for plotting a run's
// progress over simulated time and for machine-diffing two runs.
//
// Model snapshots are sampled by per-rank engine clocks: each rank's
// sampling handler reads only the statistics of components that live on
// that rank, so sampling is race-free in parallel runs and — because a
// snapshot line carries only (sim time, component, rendered stats) — the
// merged stream is byte-identical whether the model ran on 1 rank or N.
// Engine gauges (events/sec, TimeVortex depth, mailbox traffic, barrier
// wait) are inherently per-rank and rank-count-dependent, so those lines
// are only emitted when include_engine is set (--profile-engine).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.h"
#include "obs/trace.h"  // TraceResolver

namespace sst::obs {

class MetricsCollector {
 public:
  explicit MetricsCollector(unsigned num_ranks);

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Records one model snapshot: `payload` is a rendered JSON object of
  /// the component's statistic fields.  Called on the owning rank's
  /// thread only.
  void record(RankId rank, SimTime t, ComponentId comp, std::string payload);

  /// Records one engine snapshot for a rank (called from sync-safe
  /// points, where all rank threads are parked).
  void record_engine(RankId rank, SimTime t, std::string payload);

  void set_include_engine(bool on) { include_engine_ = on; }
  [[nodiscard]] bool include_engine() const { return include_engine_; }

  [[nodiscard]] std::size_t sample_count() const;

  /// Merges per-rank buffers sorted by (time, component) and writes one
  /// JSON object per line.
  void write_jsonl(std::ostream& os, const TraceResolver& resolver) const;

  /// Checkpoint hook: (un)packs the buffered snapshots so a restarted
  /// run's metrics stream matches the uninterrupted one.  The per-rank
  /// buffers travel as one list and come back in rank 0's buffer:
  /// write_jsonl sorts by a unique key, so the split never shows.
  void ckpt_io(ckpt::Serializer& s);

 private:
  struct ModelSample {
    SimTime time = 0;
    ComponentId comp = 0;
    std::string payload;

    void ckpt_io(ckpt::Serializer& s);
  };
  struct EngineSample {
    SimTime time = 0;
    RankId rank = 0;
    std::string payload;

    void ckpt_io(ckpt::Serializer& s);
  };

  std::vector<std::vector<ModelSample>> per_rank_;
  std::vector<EngineSample> engine_;
  bool include_engine_ = false;
};

}  // namespace sst::obs
