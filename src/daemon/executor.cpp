#include "daemon/executor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <iostream>

namespace sst::daemon {

namespace {

/// The worker's watchdog gets `timeout`; a worker that still has not
/// answered by 1.5x + 2 s is wedged beyond its watchdog's reach.
double hard_deadline_seconds(double timeout) { return timeout * 1.5 + 2.0; }

/// Backoff before the attempt after `attempts`: `initial`, doubled per
/// attempt made after the first (saturating to infinity, never a shift).
double backoff_seconds(double initial, unsigned attempts) {
  const unsigned doublings = attempts > 0 ? attempts - 1 : 0;
  return std::ldexp(initial, static_cast<int>(std::min(doublings, 2048u)));
}

SteadyTime after_seconds(SteadyTime now, double seconds) {
  // Past ~30 years a gate is as good as never, and the duration cast
  // would overflow.
  if (!(seconds < 1e9)) return SteadyTime::max();
  return now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
}

}  // namespace

Executor::Executor(unsigned workers, std::size_t queue_capacity,
                   std::function<void()> child_prelude, std::string log_tag,
                   bool verbose)
    : queue_(queue_capacity),
      pool_(workers, std::move(child_prelude)),
      running_(workers),
      log_tag_(std::move(log_tag)),
      verbose_(verbose) {}

void Executor::step(SteadyTime now) {
  for (int slot = 0; slot < static_cast<int>(pool_.count()); ++slot) {
    if (pool_.alive(slot) && pool_.busy(slot) && now >= pool_.deadline(slot)) {
      pool_.kill_slot(slot);
    }
  }
  for (;;) {
    const int slot = pool_.idle_slot();
    if (slot < 0) return;
    auto q = queue_.pop_ready(now);
    if (!q) return;
    q->attempts += 1;
    const SteadyTime deadline =
        q->req.timeout_seconds > 0
            ? after_seconds(now, hard_deadline_seconds(q->req.timeout_seconds))
            : SteadyTime::max();
    if (!pool_.dispatch(slot, worker_job_to_line(q->req, q->content_hash),
                        q->req.id, deadline)) {
      // The worker died before the job landed: un-count the attempt,
      // requeue, and replace the worker.
      pool_.mark_idle(slot);
      q->attempts -= 1;
      queue_.defer(std::move(*q));
      handle_worker_exit(pool_.reap(slot));
      return;
    }
    running_[slot] = std::move(q);
  }
}

void Executor::poll_fds(std::vector<pollfd>& fds) {
  poll_first_ = fds.size();
  for (int slot = 0; slot < static_cast<int>(pool_.count()); ++slot) {
    fds.push_back({pool_.fd(slot), POLLIN, 0});  // poll skips fd -1
  }
}

int Executor::poll_timeout_ms(SteadyTime now) const {
  SteadyTime wake = SteadyTime::max();
  for (int slot = 0; slot < static_cast<int>(pool_.count()); ++slot) {
    if (pool_.busy(slot)) wake = std::min(wake, pool_.deadline(slot));
  }
  if (pool_.idle_slot() >= 0) {
    wake = std::min(wake, queue_.next_ready_at().value_or(wake));
  }
  if (wake == SteadyTime::max()) return -1;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(wake - now);
  return static_cast<int>(std::clamp<std::int64_t>(ms.count(), 0, 60000));
}

std::vector<RequestRecord> Executor::service(const std::vector<pollfd>& fds) {
  // Only servicing a slot can replace its worker, so every other entry
  // still names the process it was polled for.
  for (int slot = 0; slot < static_cast<int>(pool_.count()); ++slot) {
    if (fds[poll_first_ + slot].revents != 0) service_worker(slot);
  }
  std::vector<RequestRecord> done;
  done.swap(finished_);
  return done;
}

void Executor::service_worker(int slot) {
  char buf[65536];
  const ::ssize_t n = ::read(pool_.fd(slot), buf, sizeof buf);
  if (n < 0 && errno == EINTR) return;
  if (n <= 0) {
    handle_worker_exit(pool_.reap(slot));  // EOF: the worker is gone
    return;
  }
  LineBuffer& in = pool_.line_buffer(slot);
  in.feed(buf, static_cast<std::size_t>(n));
  std::string line;
  while (in.next(line)) {
    if (line.empty()) continue;
    try {
      handle_worker_reply(slot, parse_worker_reply(line));
    } catch (const DaemonError& e) {
      std::cerr << "[" << log_tag_ << "] dropping garbled worker reply: "
                << e.what() << "\n";
    }
  }
}

void Executor::handle_worker_reply(int slot, const WorkerReply& reply) {
  pool_.mark_idle(slot);
  if (!running_[slot]) return;  // one job per worker: the reply is its
  QueuedRequest q = std::move(*running_[slot]);
  running_[slot].reset();
  if (reply.status == "timeout" &&
      maybe_retry(q, "watchdog abort: " + reply.error)) {
    return;
  }
  RequestRecord rec;
  rec.status = reply.status;
  rec.exit_code = reply.exit_code;
  rec.error = reply.error;
  finish(q, std::move(rec));
}

void Executor::handle_worker_exit(const WorkerExit& ex) {
  if (ex.was_busy && verbose_) {
    std::cerr << "[" << log_tag_ << "] worker pid " << ex.pid << " died on '"
              << ex.request_id << "' (signal " << ex.term_signal << ", exit "
              << ex.exit_code << (ex.hard_killed ? ", deadline kill" : "")
              << ")\n";
  }
  if (!ex.was_busy || !running_[ex.slot]) return;
  QueuedRequest q = std::move(*running_[ex.slot]);
  running_[ex.slot].reset();
  RequestRecord rec;
  if (ex.hard_killed) {
    if (maybe_retry(q, "hard deadline exceeded")) return;
    rec.status = "timeout";
    rec.exit_code = 3;
    rec.error = "hard deadline exceeded; worker killed after " +
                std::to_string(q.attempts) + " attempt(s)";
  } else if (ex.term_signal != 0) {
    rec.status = "error";
    rec.exit_code = 1;
    rec.term_signal = ex.term_signal;
    rec.error = "worker pid " + std::to_string(ex.pid) +
                " killed by signal " + std::to_string(ex.term_signal) +
                " while running this request";
  } else {
    rec.status = "error";
    rec.exit_code = ex.exit_code != 0 ? ex.exit_code : 1;
    rec.error = "worker pid " + std::to_string(ex.pid) +
                " exited unexpectedly (code " + std::to_string(ex.exit_code) +
                ")";
  }
  finish(q, std::move(rec));
}

bool Executor::maybe_retry(QueuedRequest q, const std::string& why) {
  if (q.attempts > q.req.retries) return false;
  const double backoff = backoff_seconds(q.req.backoff_seconds, q.attempts);
  ++retries_;
  if (verbose_) {
    std::cerr << "[" << log_tag_ << "] retrying '" << q.req.id << "' in "
              << backoff << "s (attempt " << q.attempts + 1 << "): " << why
              << "\n";
  }
  q.not_before = after_seconds(std::chrono::steady_clock::now(), backoff);
  queue_.defer(std::move(q));
  return true;
}

void Executor::finish(const QueuedRequest& q, RequestRecord rec) {
  rec.id = q.req.id;
  rec.attempts = q.attempts;
  rec.out_dir = q.req.out_dir;
  rec.content_hash = q.content_hash;
  finished_.push_back(std::move(rec));
}

}  // namespace sst::daemon
