// Pre-forked worker pool: the isolation boundary between a process that
// runs simulations (the sstsimd daemon, or a sweep running in-process)
// and the simulations themselves.
//
// Each worker is a forked child connected to its parent by a socketpair.
// The parent writes one JSONL job line per dispatch; the worker parses
// the model (through its own content-hash GraphCache, warmed across
// requests), runs the simulation in-process with stdout and stderr in
// <out>/run.log, publishes stats.json crash-consistently, and writes one
// JSONL reply line.  Failures the worker can catch (watchdog, deadlock,
// config, runtime errors) are reported in-band via the sstsim exit-code
// contract and the worker lives on; a worker that segfaults, OOMs, or is
// SIGKILLed by the deadline backstop takes only its current request with
// it — its socket reaches EOF, and the parent reaps it by pid, diagnoses
// the wait status, and forks a replacement.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "daemon/protocol.h"

namespace sst::daemon {

/// Child entry point: serve job lines on `fd` until it closes, then
/// _exit(0).  Never returns.
[[noreturn]] void run_worker_loop(int fd);

/// What the parent learns when it reaps a dead worker.
struct WorkerExit {
  int slot = -1;
  pid_t pid = -1;
  int exit_code = 0;    // valid when exited normally
  int term_signal = 0;  // valid when killed by a signal
  bool was_busy = false;
  std::string request_id;  // request in flight when the worker died
  bool hard_killed = false;  // the deadline SIGKILL, not a crash
};

class WorkerPool {
 public:
  /// `child_prelude` runs in each freshly forked worker before the serve
  /// loop — the daemon uses it to close its listener, client, and signal
  /// fds so workers hold no daemon resources (nullptr = nothing to do).
  WorkerPool(unsigned count, std::function<void()> child_prelude);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void start();

  [[nodiscard]] unsigned count() const {
    return static_cast<unsigned>(slots_.size());
  }
  /// First idle live worker, or -1.
  [[nodiscard]] int idle_slot() const;
  [[nodiscard]] unsigned busy_count() const;

  /// Sends a job and marks the slot busy.  Returns false when the write
  /// fails (the worker just died; reap() it).
  bool dispatch(int slot, const std::string& job_line,
                const std::string& request_id,
                std::chrono::steady_clock::time_point deadline);

  /// SIGKILLs an overdue worker (deadline backstop).  The slot stays
  /// busy until reap() returns its WorkerExit with hard_killed set.
  void kill_slot(int slot);

  /// Reaps the worker on `slot` by pid once its socket has reached EOF
  /// (it died or is dying; blocks until it is gone), forks a replacement,
  /// and reports what died.  Never waits for any other child.
  WorkerExit reap(int slot);

  /// Marks a slot idle again after its in-band reply was consumed.
  void mark_idle(int slot);

  [[nodiscard]] int fd(int slot) const { return slots_[slot].fd; }
  [[nodiscard]] pid_t pid(int slot) const { return slots_[slot].pid; }
  [[nodiscard]] bool busy(int slot) const { return slots_[slot].busy; }
  [[nodiscard]] bool alive(int slot) const { return slots_[slot].pid > 0; }
  [[nodiscard]] const std::string& request_id(int slot) const {
    return slots_[slot].request_id;
  }
  [[nodiscard]] std::chrono::steady_clock::time_point deadline(
      int slot) const {
    return slots_[slot].deadline;
  }
  [[nodiscard]] LineBuffer& line_buffer(int slot) {
    return slots_[slot].in;
  }
  /// Workers respawned after dying (the health counter).
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

  /// Closes every worker fd (workers see EOF and _exit(0)) and waits for
  /// them.  The destructor falls back to SIGKILL.
  void shutdown();

 private:
  struct Slot {
    pid_t pid = -1;
    int fd = -1;
    bool busy = false;
    bool hard_killed = false;
    std::string request_id;
    std::chrono::steady_clock::time_point deadline{};
    LineBuffer in;
  };

  void spawn(int slot);

  std::vector<Slot> slots_;
  std::function<void()> child_prelude_;
  std::uint64_t restarts_ = 0;
  bool started_ = false;
  bool shutting_down_ = false;
};

}  // namespace sst::daemon
