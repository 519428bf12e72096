#include "dse/orchestrator.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "daemon/client.h"
#include "daemon/executor.h"
#include "daemon/graph_cache.h"

namespace fs = std::filesystem;

namespace sst::dse {

namespace {

/// Writes a point's model.json and builds its request, just before the
/// point is handed over (so only the points in flight hold a copy).
using Submit = std::function<daemon::QueuedRequest(const Point&)>;
using Finish = std::function<void(const daemon::RequestRecord&)>;

/// Writes the point's materialized model (base + axis overrides).
void write_point_model(const SweepSpec& spec, const Point& point,
                       const sdl::JsonValue& base_model,
                       const std::string& dir) {
  sdl::ConfigGraph graph = sdl::ConfigGraph::from_json(base_model);
  apply_point(spec, point, graph);
  const std::string path = dir + "/model.json";
  std::ofstream out(path);
  out << graph.to_json().dump(2) << "\n";
  if (!out) throw SweepError("cannot write point model '" + path + "'");
}

/// Zero-padded point label ("p000042") — the request-id component and
/// the directory name share it.
std::string point_label(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "p%06llu",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Runs the points on a worker pool forked for this sweep.
void run_on_pool(std::deque<const Point*> todo, unsigned workers, bool verbose,
                 const Submit& submit, const Finish& finish) {
  daemon::Executor executor(workers, todo.size(), nullptr, "dse", verbose);
  executor.start();
  std::size_t left = todo.size();
  std::vector<pollfd> fds;
  while (left > 0) {
    // Hand over at most one more point per worker than is running.
    while (!todo.empty() && executor.queued() < executor.workers()) {
      executor.enqueue(submit(*todo.front()));
      todo.pop_front();
    }
    const auto now = std::chrono::steady_clock::now();
    executor.step(now);
    fds.clear();
    executor.poll_fds(fds);
    if (::poll(fds.data(), fds.size(), executor.poll_timeout_ms(now)) < 0 &&
        errno != EINTR) {
      throw SweepError("poll on the sweep's workers failed");
    }
    for (const daemon::RequestRecord& rec : executor.service(fds)) {
      finish(rec);
      --left;
    }
  }
  executor.shutdown();
}

/// Runs the points on a running sstsimd: the daemon's Executor applies
/// the same lifecycle; this side submits with bounded in-flight credit.
/// Request ids are stable ("<sweep>/p<id>"), so resuming after the daemon
/// recovered a kill -9 replays finished work from its ledger.
void run_on_daemon(std::deque<const Point*> todo, const std::string& socket,
                   const Submit& submit, const Finish& finish) {
  daemon::DaemonClient client(socket);
  // Never submit more than the daemon's admission queue can hold, so a
  // single sweep cannot trip its own overload shedding.
  const std::size_t window =
      daemon::parse_daemon_reply(client.status()).queue_capacity;

  std::map<std::string, const Point*> inflight;
  while (!todo.empty() || !inflight.empty()) {
    while (!todo.empty() && inflight.size() < window) {
      const daemon::QueuedRequest q = submit(*todo.front());
      client.send(q.req);
      inflight.emplace(q.req.id, todo.front());
      todo.pop_front();
    }
    const daemon::DaemonReply reply =
        daemon::parse_daemon_reply(client.next_reply());
    if (reply.type == "error") {
      throw daemon::DaemonError("daemon: " + reply.error);
    }
    const auto it = inflight.find(reply.id);
    if (it == inflight.end()) continue;
    if (reply.type == "rejected") {
      if (reply.reason == "draining") {
        throw daemon::DaemonError("daemon at '" + socket +
                                  "' is draining and refused the sweep");
      }
      // Overloaded (other clients share the queue): back off briefly,
      // then resubmit — the shed is explicit and bounded, not a hang.
      todo.push_back(it->second);
      inflight.erase(it);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (reply.type != "done") continue;
    inflight.erase(it);
    daemon::RequestRecord rec;
    rec.id = reply.id;
    rec.status = reply.status;
    rec.exit_code = reply.exit_code;
    rec.term_signal = reply.term_signal;
    rec.attempts = reply.attempts;
    finish(rec);
  }
}

}  // namespace

std::string point_dir(const std::string& out_dir, std::uint64_t id) {
  return out_dir + "/points/" + point_label(id);
}

OrchestratorSummary run_points(const SweepSpec& spec,
                               const std::vector<Point>& points,
                               const sdl::JsonValue& base_model,
                               Ledger& ledger,
                               const OrchestratorOptions& options) {
  OrchestratorSummary summary;
  std::string model_bytes;
  {
    std::ifstream in(spec.model_path);
    if (!in) throw SweepError("cannot open '" + spec.model_path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    model_bytes = buf.str();
  }
  const std::uint64_t hash = daemon::GraphCache::content_hash(model_bytes);
  // Workers chdir into each point directory, so paths must survive that.
  const std::string out_dir = fs::absolute(options.out_dir).string();

  std::deque<const Point*> todo;
  for (const auto& p : points) {
    const LedgerRecord* rec = ledger.record(p.id);
    if (rec != nullptr && rec->status == "ok") {
      ++summary.skipped;
    } else {
      todo.push_back(&p);
    }
  }
  const std::uint64_t to_run = todo.size();
  if (options.verbose && summary.skipped > 0) {
    std::cerr << "[dse] resuming: " << summary.skipped
              << " points already complete, " << to_run << " to run\n";
  }
  if (to_run == 0) return summary;

  std::map<std::string, const Point*> by_id;
  const Submit submit = [&](const Point& p) {
    daemon::QueuedRequest q;
    daemon::RunRequest& req = q.req;
    req.id = spec.name + "/" + point_label(p.id);
    // A re-attempt of a previously failed point needs a fresh request id,
    // or a daemon would replay the recorded failure verbatim.
    if (const LedgerRecord* rec = ledger.record(p.id)) {
      req.id += "@a" + std::to_string(rec->attempts);
    }
    req.model_json = model_bytes;
    req.out_dir = point_dir(out_dir, p.id);
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      req.overrides.emplace_back(spec.axes[a].path, p.values[a]);
    }
    // The run policy's settings win over an axis of the same path.
    if (spec.run.ranks > 0) {
      req.set_override("/config/num_ranks", std::to_string(spec.run.ranks));
    }
    if (!spec.run.end_time.empty()) {
      req.set_override("/config/end_time", spec.run.end_time);
    }
    req.timeout_seconds = spec.run.timeout_seconds;
    req.retries = spec.run.retries;
    req.backoff_seconds = spec.run.backoff_seconds;
    q.content_hash = hash;
    by_id[req.id] = &p;
    fs::create_directories(req.out_dir);
    write_point_model(spec, p, base_model, req.out_dir);
    return q;
  };
  std::uint64_t finished = 0;
  const Finish finish = [&](const daemon::RequestRecord& r) {
    const Point* point = by_id.at(r.id);
    LedgerRecord rec;
    rec.point = point->id;
    // The sweep ledger knows ok, timeout and failed; a worker's death by
    // a signal other than the deadline kill (daemon status "error") is a
    // failure.
    rec.status = r.status == "ok" || r.status == "timeout" ? r.status
                                                           : "failed";
    rec.exit_code = r.exit_code;
    rec.term_signal = r.term_signal;
    rec.attempts = r.attempts;
    rec.values = point->values;
    ++(rec.status == "ok" ? summary.ok : summary.failed);
    ledger.append(rec, spec.name, points.size());
    ++finished;
    if (options.verbose) {
      std::cerr << "[dse] point " << rec.point << " " << rec.status << " ("
                << finished << "/" << to_run << ")\n";
    }
  };

  if (!options.daemon_socket.empty()) {
    run_on_daemon(std::move(todo), options.daemon_socket, submit, finish);
  } else {
    const auto workers = static_cast<unsigned>(
        std::clamp<std::uint64_t>(spec.run.concurrency, 1, to_run));
    run_on_pool(std::move(todo), workers, options.verbose, submit, finish);
  }
  return summary;
}

}  // namespace sst::dse
