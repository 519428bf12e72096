// Blocking JSONL client for the sstsimd socket.  Used by sstsim's
// --daemon mode and sstdse's --daemon submission path; thin by design —
// callers drive the protocol with send()/next_reply() and interpret the
// typed reply objects themselves.
#pragma once

#include <string>

#include "daemon/protocol.h"
#include "sdl/json.h"

namespace sst::daemon {

class DaemonClient {
 public:
  /// Connects to the daemon socket.  Throws DaemonError when the path is
  /// not a live daemon (missing socket, connection refused, not a
  /// socket) — tools map that to exit code 7.
  explicit DaemonClient(const std::string& socket_path);
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Writes one protocol line (newline appended here).
  void send(const std::string& line);
  void send(const RunRequest& req) { send(run_request_to_line(req)); }

  /// Blocks for the next reply line and parses it.  Throws DaemonError
  /// on EOF (daemon died) or malformed replies.
  sdl::JsonValue next_reply();

  /// Convenience round trips.
  sdl::JsonValue status();
  sdl::JsonValue drain();

 private:
  std::string socket_path_;
  int fd_ = -1;
  LineBuffer in_;
};

}  // namespace sst::daemon
