#include "daemon/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/atomic_file.h"
#include "obs/json_util.h"

namespace fs = std::filesystem;

namespace sst::daemon {

namespace {

int g_signal_fd = -1;

void on_signal(int /*sig*/) {
  const char b = 'T';  // SIGTERM or SIGINT: drain
  if (g_signal_fd >= 0) {
    [[maybe_unused]] const ::ssize_t n = ::write(g_signal_fd, &b, 1);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

DaemonOptions normalize(DaemonOptions o) {
  if (o.state_dir.empty()) o.state_dir = o.socket_path + ".state";
  std::error_code ec;
  const fs::path abs = fs::absolute(o.state_dir, ec);
  if (!ec) o.state_dir = abs.string();
  return o;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(normalize(std::move(options))),
      cache_(options_.cache_capacity),
      ledger_(options_.state_dir + "/requests.jsonl"),
      executor_(options_.workers, options_.queue_capacity,
                [this] { close_fds_in_child(); }, "sstsimd",
                options_.verbose) {}

Daemon::~Daemon() {
  for (const auto& [fd, client] : clients_) {
    (void)client;
    ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (signal_read_fd_ >= 0) ::close(signal_read_fd_);
  if (signal_write_fd_ >= 0) {
    if (g_signal_fd == signal_write_fd_) g_signal_fd = -1;
    ::close(signal_write_fd_);
  }
}

void Daemon::close_fds_in_child() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (signal_read_fd_ >= 0) ::close(signal_read_fd_);
  if (signal_write_fd_ >= 0) ::close(signal_write_fd_);
  for (const auto& [fd, client] : clients_) {
    (void)client;
    ::close(fd);
  }
}

void Daemon::bind_socket() {
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof addr.sun_path) {
    throw DaemonError("socket path '" + options_.socket_path +
                      "' exceeds the unix socket path limit");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (fs::exists(options_.socket_path)) {
    // Stale-socket probe: a live daemon answers the connect; a socket
    // left behind by a killed daemon refuses and is safe to reclaim.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const int rc = ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                               sizeof addr);
      ::close(probe);
      if (rc == 0) {
        throw DaemonError("another daemon is already serving '" +
                          options_.socket_path + "'");
      }
    }
    ::unlink(options_.socket_path.c_str());
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw DaemonError("cannot create socket");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw DaemonError("cannot bind '" + options_.socket_path +
                      "': " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw DaemonError("cannot listen on '" + options_.socket_path + "'");
  }
  set_nonblocking(listen_fd_);
}

void Daemon::recover_pending() {
  for (const auto& rec : ledger_.pending()) {
    const std::string spool = rec.out_dir + "/request.json";
    try {
      std::ifstream in(spool);
      if (!in) throw DaemonError("spooled request '" + spool + "' missing");
      std::string line;
      std::getline(in, line);
      ClientMessage msg = parse_client_message(line);
      if (msg.op != ClientMessage::Op::kRun) {
        throw DaemonError("spooled request '" + spool + "' is not a run op");
      }
      const std::uint64_t hash =
          cache_.admit(msg.run.model_json, Factory::instance());
      QueuedRequest q;
      q.req = std::move(msg.run);
      q.content_hash = hash;
      q.attempts = rec.attempts;
      executor_.enqueue(std::move(q));
      ++recovered_;
    } catch (const std::exception& e) {
      RequestRecord failed = rec;
      failed.status = "error";
      failed.exit_code = 7;
      failed.error = std::string("recovery failed: ") + e.what();
      ledger_.record(failed);
      ++completed_error_;
      std::cerr << "[sstsimd] request '" << rec.id
                << "' lost across restart: " << e.what() << "\n";
    }
  }
  if (recovered_ > 0) {
    std::cerr << "[sstsimd] recovered " << recovered_
              << " accepted-but-unfinished request(s) from "
              << ledger_.path() << "\n";
  }
}

int Daemon::run() {
  started_at_ = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(options_.state_dir, ec);
  if (ec) {
    throw DaemonError("cannot create state dir '" + options_.state_dir +
                      "': " + ec.message());
  }
  ledger_.load();
  next_auto_id_ = ledger_.records().size();
  bind_socket();

  int pipefd[2];
  if (::pipe(pipefd) != 0) throw DaemonError("cannot create signal pipe");
  signal_read_fd_ = pipefd[0];
  signal_write_fd_ = pipefd[1];
  set_nonblocking(signal_read_fd_);
  set_nonblocking(signal_write_fd_);
  g_signal_fd = signal_write_fd_;
  ::signal(SIGTERM, on_signal);
  ::signal(SIGINT, on_signal);
  ::signal(SIGPIPE, SIG_IGN);

  executor_.start();
  recover_pending();
  write_metrics();
  std::cerr << "[sstsimd] serving on " << options_.socket_path << " ("
            << options_.workers << " workers, queue "
            << options_.queue_capacity << ", state " << options_.state_dir
            << ")\n";

  std::vector<pollfd> fds;
  struct Tag {
    char kind;  // 's'ignal, 'l'istener, 'c'lient
    int ref;    // client fd
  };
  std::vector<Tag> tags;
  for (;;) {
    const SteadyTime now = std::chrono::steady_clock::now();
    executor_.step(now);

    // Group commit: every record staged during the previous pass is
    // made durable in one fsync, and only then do the replies that
    // depend on it (acks, done lines) go out.  send_line never writes
    // the socket directly, so durability-before-visibility holds while
    // a burst of requests costs one ledger append, not one per request.
    ledger_.flush();
    if (!clients_.empty()) {
      std::vector<int> with_output;
      for (const auto& [fd, client] : clients_) {
        if (!client.out.empty()) with_output.push_back(fd);
      }
      for (const int fd : with_output) flush_client(fd);  // may drop fd
    }

    if (draining_ && executor_.idle()) break;

    fds.clear();
    tags.clear();
    fds.push_back({signal_read_fd_, POLLIN, 0});
    tags.push_back({'s', 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    tags.push_back({'l', 0});
    for (const auto& [fd, client] : clients_) {
      short events = POLLIN;
      if (!client.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      tags.push_back({'c', fd});
    }
    executor_.poll_fds(fds);  // worker sockets follow the tagged entries

    const int rc = ::poll(fds.data(), fds.size(), executor_.poll_timeout_ms(now));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw DaemonError(std::string("poll failed: ") + std::strerror(errno));
    }
    // Accepting is deferred to the end of the pass: every handler below
    // may drop a client, and a freshly accepted connection could recycle
    // the dropped fd number while stale revents for it are still queued.
    bool want_accept = false;
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto [kind, ref] = tags[i];
      if (kind == 's') {
        char buf[64];  // every byte is a SIGTERM/SIGINT
        while (::read(signal_read_fd_, buf, sizeof buf) > 0) begin_drain();
      } else if (kind == 'l') {
        want_accept = true;
      } else if (kind == 'c') {
        if (clients_.count(ref) == 0) continue;  // dropped earlier this pass
        if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
          drop_client(ref);
          continue;
        }
        if ((fds[i].revents & POLLOUT) != 0) {
          // The reap handler above may have finalized requests and
          // buffered their done lines; commit before draining so the
          // backed-up socket can't observe an undurable record.
          ledger_.flush();
          flush_client(ref);
        }
        if (clients_.count(ref) != 0 &&
            (fds[i].revents & (POLLIN | POLLHUP)) != 0) {
          if (!service_client(ref)) drop_client(ref);
        }
      }
    }
    for (const RequestRecord& rec : executor_.service(fds)) {
      finish_request(rec);
    }
    if (want_accept) accept_clients();
  }

  executor_.shutdown();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  write_metrics();
  std::cerr << "[sstsimd] drained: " << completed_ok_ << " ok, "
            << completed_failed_ << " failed, " << completed_timeout_
            << " timeout, " << completed_error_ << " error ("
            << executor_.retries() << " retries, " << executor_.restarts()
            << " worker restarts)\n";
  return 0;
}

void Daemon::begin_drain() {
  if (draining_) return;
  draining_ = true;
  std::cerr << "[sstsimd] drain requested: finishing " << executor_.queued()
            << " queued + " << executor_.busy()
            << " in-flight request(s), refusing new work\n";
  write_metrics();
}

void Daemon::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    clients_[fd];
  }
}

bool Daemon::service_client(int fd) {
  char buf[65536];
  for (;;) {
    const ::ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      clients_[fd].in.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<::ssize_t>(sizeof buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer closed (or hard error)
  }
  std::string line;
  while (clients_.count(fd) != 0 && clients_[fd].in.next(line)) {
    if (!line.empty()) handle_line(fd, line);
  }
  return clients_.count(fd) != 0;
}

void Daemon::handle_line(int fd, const std::string& line) {
  ClientMessage msg;
  try {
    msg = parse_client_message(line);
  } catch (const DaemonError& e) {
    send_line(fd, std::string("{\"type\":\"error\",\"error\":\"") +
                      obs::json_escape(e.what()) + "\"}");
    return;
  }
  switch (msg.op) {
    case ClientMessage::Op::kRun:
      handle_run(fd, std::move(msg.run));
      break;
    case ClientMessage::Op::kStatus:
      send_line(fd, status_line());
      break;
    case ClientMessage::Op::kResult: {
      const RequestRecord* rec = ledger_.find(msg.id);
      if (rec == nullptr) {
        send_line(fd, "{\"type\":\"error\",\"error\":\"unknown request id '" +
                          obs::json_escape(msg.id) + "'\"}");
      } else if (rec->final()) {
        send_line(fd, done_line(*rec));
      } else {
        waiters_[msg.id].push_back(fd);
        send_line(fd, "{\"type\":\"accepted\",\"id\":\"" +
                          obs::json_escape(msg.id) + "\"}");
      }
      break;
    }
    case ClientMessage::Op::kDrain:
      begin_drain();
      send_line(fd, status_line());
      break;
  }
}

void Daemon::handle_run(int fd, RunRequest req) {
  if (req.id.empty()) {
    do {
      req.id = "r" + std::to_string(next_auto_id_++);
    } while (ledger_.find(req.id) != nullptr);
  }
  if (const RequestRecord* rec = ledger_.find(req.id)) {
    if (rec->final()) {
      // Exactly-once replay: the work already happened; serve the
      // recorded outcome without re-running.
      ++replays_;
      send_line(fd, done_line(*rec));
      return;
    }
    // Still in flight (duplicate submission, or a client reconnecting
    // after a daemon restart): re-attach to the outcome.
    waiters_[req.id].push_back(fd);
    send_line(fd, "{\"type\":\"accepted\",\"id\":\"" +
                      obs::json_escape(req.id) + "\"}");
    return;
  }
  if (draining_) {
    ++rejected_draining_;
    send_line(fd, "{\"type\":\"rejected\",\"id\":\"" +
                      obs::json_escape(req.id) +
                      "\",\"reason\":\"draining\"}");
    return;
  }
  std::uint64_t hash = 0;
  try {
    hash = cache_.admit(req.model_json, Factory::instance());
  } catch (const ConfigError& e) {
    // Invalid model: refuse up front instead of burning a worker; not
    // recorded in the ledger because nothing was accepted.
    ++rejected_invalid_;
    RequestRecord rec;
    rec.id = req.id;
    rec.status = "failed";
    rec.exit_code = 2;
    rec.out_dir = req.out_dir;
    rec.error = e.what();
    send_line(fd, done_line(rec));
    return;
  }
  if (executor_.full()) {
    ++rejected_overloaded_;
    send_line(fd, "{\"type\":\"rejected\",\"id\":\"" +
                      obs::json_escape(req.id) +
                      "\",\"reason\":\"overloaded\"}");
    write_metrics();
    return;
  }
  // Workers chdir per job, so the out dir must survive the move.
  std::error_code ec;
  const fs::path abs_out = fs::absolute(req.out_dir, ec);
  if (!ec) req.out_dir = abs_out.string();
  fs::create_directories(req.out_dir, ec);
  if (ec) {
    send_line(fd, "{\"type\":\"error\",\"error\":\"cannot create out dir '" +
                      obs::json_escape(req.out_dir) + "': " +
                      obs::json_escape(ec.message()) + "\"}");
    return;
  }
  // Durability order: spool the full request, then the ledger "accepted"
  // record, then the ack — a daemon killed between any two steps either
  // never accepted the request (client sees no ack, retries) or can
  // replay it from the spool on restart.  The spool takes the cheap
  // durability tier (one data fsync, no rename/dir-fsync): recovery
  // turns a torn or missing spool into an explicit error record, so the
  // failure mode is reported, never silent.
  const std::string spool_err = write_durable(
      req.out_dir + "/request.json", run_request_to_line(req) + "\n");
  if (!spool_err.empty()) {
    send_line(fd, "{\"type\":\"error\",\"error\":\"cannot spool request: " +
                      obs::json_escape(spool_err) + "\"}");
    return;
  }
  RequestRecord rec;
  rec.id = req.id;
  rec.status = "accepted";
  rec.out_dir = req.out_dir;
  rec.content_hash = hash;
  ledger_.record(rec);
  ++accepted_;
  waiters_[req.id].push_back(fd);
  send_line(fd, "{\"type\":\"accepted\",\"id\":\"" +
                    obs::json_escape(req.id) + "\"}");
  if (options_.verbose) {
    std::cerr << "[sstsimd] accepted '" << req.id << "' -> " << req.out_dir
              << "\n";
  }
  QueuedRequest q;
  q.req = std::move(req);
  q.content_hash = hash;
  executor_.enqueue(std::move(q));  // capacity was checked above
  write_metrics();
}

void Daemon::finish_request(const RequestRecord& rec) {
  ledger_.record(rec);
  if (rec.status == "ok") {
    ++completed_ok_;
  } else if (rec.status == "failed") {
    ++completed_failed_;
  } else if (rec.status == "timeout") {
    ++completed_timeout_;
  } else {
    ++completed_error_;
  }
  if (options_.verbose) {
    std::cerr << "[sstsimd] '" << rec.id << "' -> " << rec.status
              << " (exit " << rec.exit_code << ", attempts " << rec.attempts
              << ")\n";
  }
  notify_waiters(rec.id, done_line(rec));
  write_metrics();
}

void Daemon::send_line(int fd, const std::string& line) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  it->second.out += line;
  it->second.out += '\n';
  // Deliberately no flush here: buffered output is written at the top
  // of the next event-loop pass, after the ledger's group commit, so a
  // reply can never overtake the durability it reports.
}

void Daemon::flush_client(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  std::string& out = it->second.out;
  while (!out.empty()) {
    const ::ssize_t n = ::write(fd, out.data(), out.size());
    if (n > 0) {
      out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    drop_client(fd);  // peer gone; the ledger still completes its work
    return;
  }
}

void Daemon::notify_waiters(const std::string& id,
                            const std::string& line) {
  auto it = waiters_.find(id);
  if (it == waiters_.end()) return;
  const std::vector<int> fds = std::move(it->second);
  waiters_.erase(it);
  for (const int fd : fds) {
    if (clients_.count(fd) != 0) send_line(fd, line);
  }
}

void Daemon::drop_client(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  ::close(fd);
  clients_.erase(it);
  for (auto& [id, fds] : waiters_) {
    (void)id;
    fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
  }
}

std::string Daemon::done_line(const RequestRecord& rec) {
  std::ostringstream os;
  os << "{\"type\":\"done\",\"id\":\"" << obs::json_escape(rec.id)
     << "\",\"status\":\"" << obs::json_escape(rec.status)
     << "\",\"exit\":" << rec.exit_code << ",\"signal\":" << rec.term_signal
     << ",\"attempts\":" << rec.attempts << ",\"stats\":\""
     << obs::json_escape(rec.out_dir.empty() ? ""
                                             : rec.out_dir + "/stats.json")
     << "\",\"error\":\"" << obs::json_escape(rec.error) << "\"}";
  return os.str();
}

std::string Daemon::status_line() const {
  std::ostringstream os;
  os << "{\"type\":\"status\",\"draining\":" << (draining_ ? "true" : "false")
     << ",\"queue\":" << executor_.queued()
     << ",\"queue_capacity\":" << executor_.queue_capacity()
     << ",\"workers\":" << executor_.workers()
     << ",\"busy\":" << executor_.busy()
     << ",\"inflight\":" << executor_.busy()
     << ",\"accepted\":" << accepted_ << ",\"recovered\":" << recovered_
     << ",\"replays\":" << replays_
     << ",\"rejected_overloaded\":" << rejected_overloaded_
     << ",\"rejected_draining\":" << rejected_draining_
     << ",\"rejected_invalid\":" << rejected_invalid_
     << ",\"retries\":" << executor_.retries()
     << ",\"completed_ok\":" << completed_ok_
     << ",\"completed_failed\":" << completed_failed_
     << ",\"completed_timeout\":" << completed_timeout_
     << ",\"completed_error\":" << completed_error_
     << ",\"cache_hits\":" << cache_.hits()
     << ",\"cache_misses\":" << cache_.misses()
     << ",\"cache_size\":" << cache_.size()
     << ",\"worker_restarts\":" << executor_.restarts() << "}";
  return os.str();
}

void Daemon::write_metrics() {
  // Observability stream, not crash-critical state: plain append, one
  // JSONL snapshot per lifecycle transition (same shape as the status
  // op, plus elapsed wall time).
  std::ofstream out(options_.state_dir + "/daemon.metrics.jsonl",
                    std::ios::app);
  if (!out) return;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started_at_);
  std::string line = status_line();
  line.replace(line.find("\"type\":\"status\""),
               std::string("\"type\":\"status\"").size(),
               "\"type\":\"daemon\",\"elapsed_ms\":" +
                   std::to_string(elapsed.count()));
  out << line << "\n";
}

}  // namespace sst::daemon
