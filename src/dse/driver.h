// DSE driver: the run/resume/report entry points shared by the sstdse
// tool and the `sstsim --sweep` shorthand.
//
// A sweep lives in an output directory:
//
//   <out>/sweep.json       self-contained copy of the spec (model path
//                          rewritten to the local model.json)
//   <out>/model.json       copy of the base SDL model
//   <out>/ledger.jsonl     crash-consistent completion ledger
//   <out>/points/p<id>/    per-point model.json, stats.json, run.log
//   <out>/results.csv      aggregate results table (+ .jsonl twin)
//
// `run` creates the directory (or resumes it), `resume` requires it,
// `report` only re-aggregates.  Everything needed to resume lives inside
// the directory, so it survives the original spec file moving.  Points
// run on worker processes forked by this process (or on a running
// sstsimd's with a daemon socket); no simulator binary is involved.
#pragma once

#include <iosfwd>
#include <string>

#include "dse/sweep_spec.h"

namespace sst::dse {

// Driver exit codes, aligned with the sstsim contract (0 = success,
// 2 = usage/configuration error).  6 is the sweep-specific code: the
// batch finished but one or more points failed permanently.
constexpr int kSweepExitOk = 0;
constexpr int kSweepExitConfig = 2;
constexpr int kSweepExitFailed = 6;
constexpr int kSweepExitDaemon = 7;  // --daemon socket unreachable/protocol

struct DriverOptions {
  std::string spec_path;    // run: the sweep spec file
  std::string out_dir;      // "" = <spec stem>.sweep next to the cwd
  unsigned jobs = 0;        // override spec run.concurrency (0 = spec's)
  bool quiet = false;       // suppress per-point progress on stderr
  std::string daemon_socket;  // submit points to sstsimd instead of a
                              // pool forked for the sweep ("" = pool)
};

/// Reads the sweep spec at `path`; its model path resolves against the
/// spec's directory.  Throws SweepError.
[[nodiscard]] SweepSpec load_spec(const std::string& path);

/// Runs (or resumes, when out_dir already has a ledger) a sweep.
/// Returns a sweep exit code; errors are printed to `err`, the final
/// report to `out`.
int run_sweep(const DriverOptions& options, std::ostream& out,
              std::ostream& err);

/// Resumes a previously created sweep directory.  A non-empty
/// `daemon_socket` resumes through the daemon; finished requests the
/// daemon already completed (e.g. after it recovered a kill -9) are
/// replayed from its ledger without re-running.
int resume_sweep(const std::string& out_dir, unsigned jobs, bool quiet,
                 std::ostream& out, std::ostream& err,
                 const std::string& daemon_socket = "");

/// Re-aggregates and reports an existing sweep directory without
/// running anything.
int report_sweep(const std::string& out_dir, std::ostream& out,
                 std::ostream& err);

}  // namespace sst::dse
