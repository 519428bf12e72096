#include "daemon/worker_pool.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "ckpt/checkpoint.h"
#include "core/atomic_file.h"
#include "core/simulation.h"
#include "daemon/graph_cache.h"

namespace fs = std::filesystem;

namespace sst::daemon {

namespace {

/// Writes the whole buffer to a socket, riding out EINTR.  Returns false
/// on error (for the parent that means the worker is gone).  MSG_NOSIGNAL
/// keeps a dead peer from raising SIGPIPE in a host program that never
/// ignored it.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs one job inside the worker process and reports the outcome using
/// the sstsim exit-code contract, delivered in-band.
WorkerReply execute_job(GraphCache& cache, const RunRequest& req,
                        std::uint64_t hash) {
  WorkerReply reply;
  reply.id = req.id;
  std::error_code ec;
  fs::create_directories(req.out_dir, ec);
  // Everything the job prints lands in its run.log, next to its stats,
  // as for an sstsim run in that directory.
  const int log =
      ::open((req.out_dir + "/run.log").c_str(), O_WRONLY | O_CREAT | O_TRUNC,
             0644);
  if (log >= 0) {
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::close(log);
  }
  auto fail = [&reply](const char* status, int code, const std::exception& e) {
    reply.status = status;
    reply.exit_code = code;
    reply.error = e.what();
  };
  try {
    if (req.test_signal != 0) {
      // Harness hook: die the way a crashing simulation would, so the
      // daemon's reap/diagnose/respawn path is exercised deterministically.
      ::signal(req.test_signal, SIG_DFL);
      ::raise(req.test_signal);
    }
    const std::uint64_t hits_before = cache.hits();
    // Copy so per-request overrides never mutate the cached graph.
    sdl::ConfigGraph graph = cache.graph(hash, req.model_json);
    reply.cache_hit = cache.hits() > hits_before;
    for (const auto& [path, value] : req.overrides) {
      graph.apply_override(path, value);
    }
    graph.check();
    // Simulations run with the request's out directory as cwd, so
    // model-relative observability paths land there.
    if (::chdir(req.out_dir.c_str()) != 0) {
      throw ConfigError("cannot enter out directory '" + req.out_dir + "'");
    }
    auto sim = graph.build();
    ckpt::install_writer(*sim, [&graph] { return graph.to_json().dump(); });
    const RunStats stats = sim->run();
    print_done_line(std::cerr, stats);
    std::ostringstream os;
    sim->stats().write_json(os);
    const std::string err = atomic_publish("stats.json", os.str());
    if (!err.empty()) throw std::runtime_error("stats publish failed: " + err);
    reply.status = "ok";
    reply.events = stats.events_processed;
    reply.wall_seconds = stats.wall_seconds;
  } catch (const WatchdogError& e) {
    fail("timeout", 3, e);
  } catch (const DeadlockError& e) {
    fail("failed", 4, e);
  } catch (const ConfigError& e) {
    fail("failed", 2, e);
  } catch (const std::exception& e) {
    fail("failed", 1, e);
  }
  if (reply.status != "ok") {
    std::cerr << "run " << reply.status << " (exit " << reply.exit_code
              << "): " << reply.error << "\n";
  }
  return reply;
}

}  // namespace

void run_worker_loop(int fd) {
  // Undo the parent's signal arrangements: workers die by default
  // dispositions so the parent's waitpid diagnosis sees the real cause.
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGPIPE, SIG_IGN);
  const int own_out = ::dup(1);  // restored after each job's run.log
  const int own_err = ::dup(2);
  GraphCache cache;
  LineBuffer in;
  std::string line;
  char buf[65536];
  for (;;) {
    while (in.next(line)) {
      if (line.empty()) continue;
      WorkerReply reply;
      try {
        const sdl::JsonValue doc = sdl::JsonValue::parse(line);
        const RunRequest req = run_request_from_json(doc);
        const std::uint64_t hash =
            std::stoull(doc.get_string("hash", "0"), nullptr, 16);
        reply = execute_job(cache, req, hash);
      } catch (const std::exception& e) {
        reply.status = "failed";
        reply.exit_code = 2;
        reply.error = std::string("bad job line: ") + e.what();
      }
      std::fflush(nullptr);
      ::dup2(own_out, 1);
      ::dup2(own_err, 2);
      if (!write_all(fd, worker_reply_to_line(reply) + "\n")) ::_exit(0);
    }
    const ::ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ::_exit(0);  // parent closed the socket: clean drain
    in.feed(buf, static_cast<std::size_t>(n));
  }
}

WorkerPool::WorkerPool(unsigned count, std::function<void()> child_prelude)
    : slots_(count), child_prelude_(std::move(child_prelude)) {}

WorkerPool::~WorkerPool() {
  for (const auto& s : slots_) {
    if (s.pid > 0) ::kill(s.pid, SIGKILL);
  }
  shutdown();
}

void WorkerPool::start() {
  started_ = true;
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) spawn(i);
}

void WorkerPool::spawn(int slot) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw DaemonError("socketpair failed for worker slot " +
                      std::to_string(slot));
  }
  // Buffered output of the parent would otherwise be written twice, the
  // second time into a job's run.log.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw DaemonError("fork failed for worker slot " + std::to_string(slot));
  }
  if (pid == 0) {
    ::close(sv[0]);
    // Drop the daemon ends of every sibling's socketpair: a worker that
    // kept them open would stop siblings from ever seeing EOF on drain.
    for (const auto& other : slots_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    if (child_prelude_) child_prelude_();
    run_worker_loop(sv[1]);  // never returns
  }
  ::close(sv[1]);
  Slot& s = slots_[slot];
  s.pid = pid;
  s.fd = sv[0];
  s.busy = false;
  s.hard_killed = false;
  s.request_id.clear();
  s.in = LineBuffer{};
}

int WorkerPool::idle_slot() const {
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
    if (slots_[i].pid > 0 && !slots_[i].busy) return i;
  }
  return -1;
}

unsigned WorkerPool::busy_count() const {
  unsigned n = 0;
  for (const auto& s : slots_) {
    if (s.busy) ++n;
  }
  return n;
}

bool WorkerPool::dispatch(int slot, const std::string& job_line,
                          const std::string& request_id,
                          std::chrono::steady_clock::time_point deadline) {
  Slot& s = slots_[slot];
  s.busy = true;
  s.hard_killed = false;
  s.request_id = request_id;
  s.deadline = deadline;
  return write_all(s.fd, job_line + "\n");
}

void WorkerPool::kill_slot(int slot) {
  Slot& s = slots_[slot];
  if (s.pid > 0 && !s.hard_killed) {
    s.hard_killed = true;
    ::kill(s.pid, SIGKILL);
  }
}

void WorkerPool::mark_idle(int slot) {
  Slot& s = slots_[slot];
  s.busy = false;
  s.hard_killed = false;
  s.request_id.clear();
}

WorkerExit WorkerPool::reap(int slot) {
  Slot& s = slots_[slot];
  int status = 0;
  while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {
  }
  WorkerExit ex;
  ex.slot = slot;
  ex.pid = s.pid;
  if (WIFEXITED(status)) ex.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) ex.term_signal = WTERMSIG(status);
  ex.was_busy = s.busy;
  ex.request_id = s.request_id;
  ex.hard_killed = s.hard_killed;
  if (s.fd >= 0) ::close(s.fd);
  s = Slot{};
  if (started_ && !shutting_down_) {
    spawn(slot);
    ++restarts_;
  }
  return ex;
}

void WorkerPool::shutdown() {
  shutting_down_ = true;
  for (auto& s : slots_) {
    if (s.fd >= 0) {
      ::close(s.fd);  // worker sees EOF and _exit(0)s
      s.fd = -1;
    }
  }
  for (auto& s : slots_) {
    if (s.pid > 0) {
      ::waitpid(s.pid, nullptr, 0);
      s.pid = -1;
    }
  }
}

}  // namespace sst::daemon
