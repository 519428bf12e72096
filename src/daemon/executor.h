// Request executor: the one per-request lifecycle behind sstsimd's
// requests (daemon.h) and in-process sweeps (dse::run_points).  It owns
// the WorkerPool, the request queue and the requests in flight:
//
//   * A dispatched request gets a hard deadline of 1.5 x timeout + 2 s;
//     the worker's own watchdog fires at the timeout.
//   * A watchdog abort (exit 3) or a deadline SIGKILL is retried with
//     doubling backoff up to the request's retries, then is "timeout".
//   * Every other outcome is final on its first attempt; a death by any
//     other signal is exit 1 with the signal kept.
//
// A worker's death shows as EOF on its socket and it is reaped by pid, so
// the executor runs inside any program: no SIGCHLD handler, no other
// child's exit status consumed.  The caller owns the event loop: it polls
// the entries poll_fds() appends along with its own fds, then service()
// returns the requests that reached a final outcome.
#pragma once

#include <poll.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "daemon/request_ledger.h"
#include "daemon/request_queue.h"
#include "daemon/worker_pool.h"

namespace sst::daemon {

class Executor {
 public:
  /// `queue_capacity` bounds admission (full()); `child_prelude` runs in
  /// each forked worker; `log_tag` prefixes the verbose notes on stderr.
  Executor(unsigned workers, std::size_t queue_capacity,
           std::function<void()> child_prelude, std::string log_tag,
           bool verbose);

  void start() { pool_.start(); }        // forks the workers
  void shutdown() { pool_.shutdown(); }  // closes sockets, reaps workers

  [[nodiscard]] bool full() const { return queue_.size() >= queue_.capacity(); }
  /// Queues accepted work; never refuses (check full() first).
  void enqueue(QueuedRequest q) { queue_.defer(std::move(q)); }

  /// Dispatches ready requests to idle workers and SIGKILLs workers past
  /// their hard deadline.
  void step(SteadyTime now);
  /// Appends one POLLIN entry per worker slot.
  void poll_fds(std::vector<pollfd>& fds);
  /// Until the nearest deadline or (a worker idle) backoff gate; -1 = none.
  [[nodiscard]] int poll_timeout_ms(SteadyTime now) const;
  /// Reads the worker sockets poll() marked and returns what finished.
  std::vector<RequestRecord> service(const std::vector<pollfd>& fds);

  [[nodiscard]] bool idle() const { return queue_.empty() && busy() == 0; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const {
    return queue_.capacity();
  }
  [[nodiscard]] unsigned workers() const { return pool_.count(); }
  [[nodiscard]] unsigned busy() const { return pool_.busy_count(); }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t restarts() const { return pool_.restarts(); }

 private:
  void service_worker(int slot);
  void handle_worker_reply(int slot, const WorkerReply& reply);
  void handle_worker_exit(const WorkerExit& ex);
  bool maybe_retry(QueuedRequest q, const std::string& why);
  void finish(const QueuedRequest& q, RequestRecord rec);

  RequestQueue queue_;
  WorkerPool pool_;
  /// The request each worker is running (attempts already counted).
  std::vector<std::optional<QueuedRequest>> running_;
  std::size_t poll_first_ = 0;  // where poll_fds() put slot 0's entry
  std::vector<RequestRecord> finished_;
  std::string log_tag_;
  bool verbose_ = false;
  std::uint64_t retries_ = 0;
};

}  // namespace sst::daemon
