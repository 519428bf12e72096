// Sweep ledger: the crash-consistent record of which points have reached
// a final outcome.  One JSONL line per finished point plus a header line
// binding the ledger to its sweep (name + point count), so a resumed
// sweep can refuse a mismatched directory instead of silently mixing
// results.
//
// Each final outcome is one durable append (sdl/jsonl_ledger.h, which
// also discards a torn tail left by a SIGKILL).  A later line for the
// same point supersedes the earlier one, so re-recording never needs a
// rewrite.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dse/sweep_spec.h"
#include "sdl/jsonl_ledger.h"

namespace sst::dse {

/// Final outcome of one point (only final outcomes are recorded — a
/// point mid-retry has no ledger line and is re-run on resume).
struct LedgerRecord {
  std::uint64_t point = 0;
  std::string status;        // "ok" | "failed" | "timeout"
  int exit_code = 0;         // child exit code (when it exited)
  int term_signal = 0;       // terminating signal (when killed)
  unsigned attempts = 1;     // total attempts including the final one
  std::vector<std::string> values;  // axis values, parallel to spec.axes
};

class Ledger {
 public:
  /// Binds to `path`; nothing is read or written until load()/append().
  explicit Ledger(std::string path);

  /// Reads the ledger if it exists.  Returns false (empty ledger) when
  /// the file is absent.  Throws SweepError when the header disagrees
  /// with the given sweep identity or a line is malformed.
  bool load(const std::string& sweep_name, std::uint64_t point_count);

  /// Durably appends a final outcome (writing the header line first if
  /// the file is new).  Re-recording a point appends a superseding
  /// line; load() keeps the last one.
  void append(const LedgerRecord& record, const std::string& sweep_name,
              std::uint64_t point_count);

  [[nodiscard]] bool has(std::uint64_t point) const {
    return records_.contains(point);
  }
  [[nodiscard]] const LedgerRecord* record(std::uint64_t point) const {
    auto it = records_.find(point);
    return it == records_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<std::uint64_t, LedgerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

 private:
  sdl::JsonlLedger<SweepError> file_;
  std::map<std::uint64_t, LedgerRecord> records_;
};

}  // namespace sst::dse
