// sstsimd wire protocol: newline-delimited JSON over a Unix-domain
// stream socket.  Every message is one JSON object on one line; the
// same framing is used daemon<->client and daemon<->worker, so one
// parser serves both sides.
//
// Client -> daemon ops:
//   {"op":"run", "id":..., "model":"<SDL JSON text>", "out":"<dir>",
//    "overrides":{"/config/seed":"7", ...}, "timeout":S, "retries":N,
//    "backoff":S}
//   {"op":"status"}            health snapshot
//   {"op":"result","id":...}   look up a finished request in the ledger
//   {"op":"drain"}             finish accepted work, refuse new, exit
//
// Daemon -> client replies:
//   {"type":"accepted","id":...}
//   {"type":"rejected","id":...,"reason":"overloaded"|"draining"}
//   {"type":"done","id":...,"status":"ok|failed|timeout|error",
//    "exit":N,"signal":N,"attempts":N,"stats":"<dir>/stats.json",
//    "error":"..."}
//   {"type":"status", ...counters...}
//   {"type":"error","error":"..."}       protocol-level problem
//
// A run's settings travel as overrides.  The older run fields "ranks",
// "end" and "seed" are checked aliases of /config/num_ranks, end_time and
// seed ("ranks": 0 and "end": "" keep the model's own); "timeout" is the
// deadline and also /config/watchdog_seconds.  Both win over "overrides".
//
// The "test_signal" run field (a signal number, 0..64) is a harness hook:
// the worker raises that signal instead of simulating, so crash isolation
// can be exercised deterministically from CI.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "sdl/json.h"

namespace sst::daemon {

/// Daemon-side failures that are neither the model's fault nor the
/// simulation's: unreachable sockets, protocol violations, unusable
/// state directories.  Tools map this to exit code 7.
class DaemonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One simulation request.  `model_json` carries the SDL bytes inline so
/// the daemon never depends on client-side files staying put.
struct RunRequest {
  std::string id;          // client-chosen; "" = daemon assigns
  std::string model_json;  // SDL system description text
  std::string out_dir;     // receives request.json + stats.json
  /// ConfigGraph overrides, one per path (the wire carries an object).
  std::vector<std::pair<std::string, std::string>> overrides;
  double timeout_seconds = 300;  // deadline and watchdog (0 = none)
  unsigned retries = 2;          // extra attempts for transient failures
  double backoff_seconds = 0.5;  // initial retry backoff, doubling
  int test_signal = 0;           // harness hook (see header comment)

  /// Sets the override of `path`, replacing an earlier one.
  void set_override(const std::string& path, const std::string& value);
};

/// A parsed client line.
struct ClientMessage {
  enum class Op { kRun, kStatus, kResult, kDrain };
  Op op = Op::kStatus;
  RunRequest run;     // kRun
  std::string id;     // kResult
};

/// Parses one client JSONL line.  Throws DaemonError on malformed JSON,
/// unknown ops, missing required fields, fields of the wrong type, or bad
/// values; never anything else.
[[nodiscard]] ClientMessage parse_client_message(const std::string& line);

/// Serializes a run request back to its wire line (used by clients and
/// by the daemon when spooling request.json for crash recovery).
[[nodiscard]] std::string run_request_to_line(const RunRequest& req);

/// Parses the {"op":"run", ...} fields of `doc` into a RunRequest.
/// Throws DaemonError on a missing field and ConfigError on a bad one.
[[nodiscard]] RunRequest run_request_from_json(const sdl::JsonValue& doc);

/// Worker's verdict on one dispatched job.
struct WorkerReply {
  std::string id;
  std::string status;     // "ok" | "failed" | "timeout"
  int exit_code = 0;      // sstsim exit-code contract (0-6)
  std::string error;      // diagnostic for non-ok outcomes
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  bool cache_hit = false;  // worker-local graph cache hit
};

[[nodiscard]] std::string worker_reply_to_line(const WorkerReply& reply);
[[nodiscard]] WorkerReply parse_worker_reply(const std::string& line);

/// A daemon -> client reply as the clients (sstsim --daemon, sstdse
/// --daemon) read it.  Members absent from the line keep the defaults.
struct DaemonReply {
  std::string type;               // accepted|rejected|done|status|error
  std::string id;
  std::string reason;             // rejected: "overloaded" | "draining"
  std::string status = "failed";  // done: "ok" | "failed" | ...
  int exit_code = 1;              // done: 0..255
  int term_signal = 0;            // done: 0..64
  unsigned attempts = 1;          // done: 0 if refused before a run
  std::string stats;              // done: the stats.json path
  std::string error;              // done, error
  std::size_t queue_capacity = 16;  // status: at least 1
};

/// Reads a parsed reply line.  Its counts are cast to integers, so each is
/// range-checked first; a bad or wrong-typed member is a DaemonError
/// naming it.
[[nodiscard]] DaemonReply parse_daemon_reply(const sdl::JsonValue& doc);

/// Job line sent daemon -> worker: the run request plus the daemon's
/// content hash (so the worker's graph cache keys match the daemon's).
[[nodiscard]] std::string worker_job_to_line(const RunRequest& req,
                                             std::uint64_t content_hash);

/// Incremental newline framing for a nonblocking byte stream.
class LineBuffer {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Pops the next complete line (without the '\n') into `line`.
  bool next(std::string& line) {
    const auto pos = buf_.find('\n');
    if (pos == std::string::npos) return false;
    line.assign(buf_, 0, pos);
    buf_.erase(0, pos + 1);
    return true;
  }
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
};

}  // namespace sst::daemon
