// Sweep orchestrator: runs every point on a daemon::Executor worker — a
// pool this process forks, sized min(run.concurrency, points left), or a
// running sstsimd's — so points get its timeout, retry and crash policy
// (executor.h).  Each point has its own directory (<out>/points/p<id>/):
// this process writes model.json just before dispatch, the worker writes
// run.log (ending in sstsim's "done:" line) and publishes stats.json.
// Final outcomes go to the crash-consistent ledger, so a killed driver
// resumes without re-running finished points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/ledger.h"
#include "dse/point_gen.h"
#include "dse/sweep_spec.h"

namespace sst::dse {

struct OrchestratorOptions {
  std::string sstsim_path;  // ignored: points run on worker processes
  std::string out_dir;      // sweep output directory
  bool verbose = true;      // per-point progress lines on stderr
  /// When set, points are submitted to a running sstsimd daemon on this
  /// socket instead of a pool forked for the sweep; resuming after the
  /// daemon recovered a kill -9 replays finished points from its ledger.
  std::string daemon_socket;
};

struct OrchestratorSummary {
  std::uint64_t ok = 0;       // points that finished with exit 0
  std::uint64_t failed = 0;   // permanent failures (incl. exhausted retries)
  std::uint64_t skipped = 0;  // already "ok" in the ledger (resume)
};

/// Runs every point not already completed in the ledger.  Points with a
/// previous "failed"/"timeout" record are re-attempted.  Every worker is
/// reaped before it returns.  Throws SweepError on orchestration-level
/// problems (unwritable point directories), daemon::DaemonError when the
/// daemon is unreachable or refuses the sweep.
OrchestratorSummary run_points(const SweepSpec& spec,
                               const std::vector<Point>& points,
                               const sdl::JsonValue& base_model,
                               Ledger& ledger,
                               const OrchestratorOptions& options);

/// Point directory for an id: <out>/points/p<id (zero-padded)>.
[[nodiscard]] std::string point_dir(const std::string& out_dir,
                                    std::uint64_t id);

}  // namespace sst::dse
