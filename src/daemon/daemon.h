// The sstsimd daemon: a crash-tolerant simulation-as-a-service server.
//
// Single-threaded poll loop over a Unix-domain listening socket, the
// connected clients, a self-pipe for signals, and the worker socketpairs.
// The daemon itself never simulates — every request runs on the
// Executor's pre-forked workers (executor.h), the same lifecycle an
// in-process sweep uses, so a crashing, hanging, or OOMing simulation
// takes down only its worker, which is reaped, diagnosed via the sstsim
// exit-code contract, and respawned.
//
// Request lifecycle (DESIGN.md "Daemon request lifecycle"):
//   validate -> spool request.json -> ledger "accepted" -> ack ->
//   Executor (queue -> dispatch -> reply | death -> retry) ->
//   final ledger record -> notify waiting clients.
// The ledger "accepted" record is durable before the ack, so a daemon
// killed at any instant restarts, re-enqueues every accepted-but-
// unfinished request from its spooled request.json, and completes each
// exactly once; resubmitting a finished id replays the recorded result
// without re-running.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/executor.h"
#include "daemon/graph_cache.h"
#include "daemon/protocol.h"
#include "daemon/request_ledger.h"

namespace sst::daemon {

struct DaemonOptions {
  std::string socket_path;       // Unix-domain socket to serve on
  std::string state_dir;         // ledger + metrics live here
  unsigned workers = 4;          // pre-forked worker processes (>= 1)
  std::size_t queue_capacity = 64;   // admission bound, >= 1 (then shed)
  std::size_t cache_capacity = 64;   // resident parsed ConfigGraphs
  bool verbose = false;          // per-request stderr notes
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until a drain request or SIGTERM/SIGINT finishes the accepted
  /// work.  Returns a process exit code (0 = clean drain).  Throws
  /// DaemonError for startup failures (socket in use, bad state dir).
  int run();

  /// The "done" reply for a final record, as every client reads it with
  /// parse_daemon_reply.  A model refused at admission, or a request lost
  /// across a restart before it ran, reports 0 attempts.
  [[nodiscard]] static std::string done_line(const RequestRecord& rec);

 private:
  struct Client {
    LineBuffer in;
    std::string out;   // bytes not yet written to the (nonblocking) fd
  };

  // Startup.
  void bind_socket();
  void recover_pending();
  void close_fds_in_child();  // worker-fork prelude

  // Event handling.
  void begin_drain();  // SIGTERM/SIGINT or a drain op
  void accept_clients();
  bool service_client(int fd);   // false = connection finished
  void handle_line(int fd, const std::string& line);
  void handle_run(int fd, RunRequest req);
  void finish_request(const RequestRecord& rec);

  // Replies.
  void send_line(int fd, const std::string& line);
  void flush_client(int fd);
  void notify_waiters(const std::string& id, const std::string& line);
  void drop_client(int fd);
  [[nodiscard]] std::string status_line() const;
  void write_metrics();

  DaemonOptions options_;
  int listen_fd_ = -1;
  int signal_read_fd_ = -1;
  int signal_write_fd_ = -1;

  GraphCache cache_;
  RequestLedger ledger_;
  Executor executor_;

  std::map<int, Client> clients_;
  /// Clients awaiting a "done" line per request id.
  std::map<std::string, std::vector<int>> waiters_;

  bool draining_ = false;
  std::uint64_t next_auto_id_ = 0;
  SteadyTime started_at_{};

  // Health counters (status op + metrics JSONL).
  std::uint64_t accepted_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t rejected_overloaded_ = 0;
  std::uint64_t rejected_draining_ = 0;
  std::uint64_t rejected_invalid_ = 0;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t completed_failed_ = 0;
  std::uint64_t completed_timeout_ = 0;
  std::uint64_t completed_error_ = 0;
  std::uint64_t recovered_ = 0;
};

}  // namespace sst::daemon
