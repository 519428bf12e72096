// Daemon request ledger: the crash-consistent record of every accepted
// request and its final outcome — the durable queue that makes a
// kill -9'd daemon restartable without losing or duplicating work.
//
// JSONL, one header line ({"daemon":"sstsimd","version":1}) plus one
// line per request.  A request is recorded as "accepted" before its
// acceptance is acknowledged to the client (its full request line having
// already been spooled to <out>/request.json), and overwritten with its
// final status exactly once.  On restart, every record still "accepted"
// is re-enqueued from its spooled request; records with a final status
// are served straight from the ledger when the same id is resubmitted —
// the replay path that gives clients exactly-once completion.
//
// Writes are group-committed: record() only stages a line in memory;
// flush() durably appends every staged line in one write + fsync
// (sdl/jsonl_ledger.h, which also repairs a torn final line on load and
// throws on interior corruption).  The daemon flushes once per
// event-loop pass, *before* any acceptance or completion reply reaches a
// socket, so a client never observes a state the ledger could lose —
// while a burst of accepted requests costs one fsync, not one per
// request.  A later line for the same id supersedes the earlier one; the
// reader keeps the last.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "sdl/jsonl_ledger.h"

namespace sst::daemon {

struct RequestRecord {
  std::string id;
  std::string status;  // "accepted" | "ok" | "failed" | "timeout" | "error"
  int exit_code = 0;   // sstsim exit-code contract (0-6) or 7 (daemon error)
  int term_signal = 0; // terminating signal when a worker died on the job
  unsigned attempts = 0;
  std::string out_dir;
  std::uint64_t content_hash = 0;
  std::string error;   // diagnostic for non-ok outcomes

  [[nodiscard]] bool final() const { return status != "accepted"; }
};

class RequestLedger {
 public:
  explicit RequestLedger(std::string path)
      : file_(std::move(path), "sstsimd") {}

  /// Reads the ledger if present; a missing file is an empty ledger.
  /// Repairs a torn final line (with a stderr note); throws DaemonError
  /// on interior corruption or a foreign/mismatched header.
  void load();

  /// Upserts a record in memory and stages its line for the next
  /// flush().  NOT durable until flush() returns.
  void record(const RequestRecord& rec);

  /// Durably appends every staged line (one write + fsync).  No-op when
  /// nothing is staged.  Callers must flush before acting on a record's
  /// durability — the daemon flushes before releasing client replies.
  void flush();

  /// Staged lines not yet on disk (exposed for tests).
  [[nodiscard]] bool dirty() const { return !pending_.empty(); }

  [[nodiscard]] const RequestRecord* find(const std::string& id) const {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
  }
  /// Records still "accepted" — the restart-recovery work list.
  [[nodiscard]] std::vector<RequestRecord> pending() const;
  [[nodiscard]] const std::map<std::string, RequestRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::string& path() const { return file_.path(); }

 private:
  sdl::JsonlLedger<DaemonError> file_;
  std::map<std::string, RequestRecord> records_;
  std::string pending_;  // staged JSONL lines, flushed together
};

}  // namespace sst::daemon
