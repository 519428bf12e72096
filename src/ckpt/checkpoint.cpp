#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include "core/clock.h"
#include "core/component.h"
#include "core/link.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sst::ckpt {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// State capture
// ---------------------------------------------------------------------

SimTime CheckpointEngine::sim_time(const Simulation& sim) {
  SimTime t = 0;
  for (const auto& r : sim.ranks_) t = std::max(t, r.now);
  return t;
}

namespace {

/// Clock tick events are skipped at capture: their schedule is an
/// engine invariant (next tick = floor(now/period)+1 cycles) and they
/// hold a pointer into their Clock, so restore re-arms them instead.
[[nodiscard]] bool is_clock_tick(const Event& ev) {
  return (ev.link_id() & Event::kClockSourceBase) != 0;
}

/// Stable capture order for event sets whose in-memory order is either a
/// heap layout or thread-interleaving-dependent (mailboxes): the engine's
/// deterministic total order.  Behaviourally redundant (the vortex pops
/// in this order and mailbox drains sort), but it makes the checkpoint
/// bytes themselves reproducible.
[[nodiscard]] std::vector<const Event*> sorted_events(
    const std::vector<EventPtr>& events, bool skip_clock_ticks) {
  std::vector<const Event*> out;
  out.reserve(events.size());
  for (const auto& ev : events) {
    if (skip_clock_ticks && is_clock_tick(*ev)) continue;
    out.push_back(ev.get());
  }
  std::sort(out.begin(), out.end(), [](const Event* a, const Event* b) {
    return EventOrder{}(*a, *b);
  });
  return out;
}

}  // namespace

std::vector<std::byte> CheckpointEngine::capture(Simulation& sim) {
  Serializer s(Serializer::Mode::kPack);

  std::uint32_t num_ranks = sim.config_.num_ranks;
  s & num_ranks;

  // --- components: base state + model state --------------------------
  std::uint64_t ncomp = sim.components_.size();
  s & ncomp;
  for (const auto& cp : sim.components_) {
    Component& c = *cp;
    std::string name = c.name_;
    std::uint8_t primary = c.is_primary_ ? 1 : 0;
    std::uint8_t ok = c.said_ok_ ? 1 : 0;
    // The rank is dynamic state since online rebalancing: a migrated
    // component must resume on the rank it was on at the snapshot, not
    // the one the partitioner would rebuild it on.
    std::uint32_t rank = c.rank_;
    s & name & primary & ok & rank & c.trace_seq_ & c.rng_;
    c.serialize_state(s);
  }

  // --- links: send sequences, polled-but-unconsumed events, faults ---
  std::uint64_t nlinks = sim.links_.size();
  s & nlinks;
  for (const auto& lp : sim.links_) {
    Link& l = *lp;
    s & l.send_seq_;
    std::uint64_t nq = l.poll_queue_.size();
    s & nq;
    for (const auto& ev : l.poll_queue_) detail::write_event(s, *ev);
    std::uint8_t has_fault = l.fault_ != nullptr ? 1 : 0;
    s & has_fault;
    if (l.fault_ != nullptr) l.fault_->serialize(s);
  }

  // --- clocks: phase, tick count, surviving handler order ------------
  std::uint64_t nclocks = sim.clocks_.size();
  s & nclocks;
  for (const auto& [key, cp] : sim.clocks_) {
    Clock& c = *cp;
    std::uint32_t rank = key.first;
    std::uint64_t period = key.second;
    std::uint8_t scheduled = c.scheduled_ ? 1 : 0;
    s & rank & period & c.cycle_ & c.ticks_ & scheduled;
    std::vector<ComponentId> order;
    order.reserve(c.handlers_.size());
    for (const auto& h : c.handlers_) order.push_back(h.comp);
    s & order;
  }

  // --- per-rank engine state: time, queues, counters ------------------
  for (auto& r : sim.ranks_) {
    s & r.now & r.events & r.mailbox_received & r.barrier_wait_seconds;
    // The vortex heap stores inline-key nodes; collect the event pointers
    // (clock ticks skipped, see is_clock_tick above) and sort them into
    // the engine's deterministic total order for reproducible bytes.
    std::vector<const Event*> pending;
    pending.reserve(r.vortex.heap_.size());
    for (const auto& node : r.vortex.heap_) {
      if (is_clock_tick(*node.ev)) continue;
      pending.push_back(node.ev.get());
    }
    std::sort(pending.begin(), pending.end(),
              [](const Event* a, const Event* b) {
                return EventOrder{}(*a, *b);
              });
    std::uint64_t n = pending.size();
    s & n;
    for (const Event* ev : pending) detail::write_event(s, *ev);
    // Counters include the skipped clock ticks; restore overlays them
    // after re-inserting events so they stay exact.
    std::uint64_t inserted = r.vortex.inserted_;
    std::uint64_t depth = r.vortex.max_depth_;
    s & inserted & depth;
    const auto mailbox = sorted_events(r.mailbox,
                                       /*skip_clock_ticks=*/false);
    std::uint64_t m = mailbox.size();
    s & m;
    for (const Event* ev : mailbox) detail::write_event(s, *ev);
  }

  // --- whole-engine counters ------------------------------------------
  std::uint64_t cross = sim.cross_rank_events_.load(std::memory_order_relaxed);
  s & cross & sim.run_stats_.sync_windows & sim.ckpt_taken_ &
      sim.ckpt_next_mark_;
  // Rebalance bookkeeping: the epoch phase and the current group's
  // per-component counts, so a resumed run reproduces the original
  // run's migration schedule exactly.
  s & sim.comp_epoch_events_ & sim.rebalance_epoch_ & sim.rebalances_ &
      sim.comps_migrated_;

  // --- statistics values (identity rebuilt, values overlaid) ----------
  std::uint64_t nstats = sim.stats_.all().size();
  s & nstats;
  for (const auto& st : sim.stats_.all()) {
    std::string comp = st->component();
    std::string name = st->name();
    s & comp & name;
    st->ckpt_io(s);
  }

  // --- observability buffers ------------------------------------------
  std::uint8_t has_tracer = sim.tracer_ != nullptr ? 1 : 0;
  s & has_tracer;
  if (sim.tracer_ != nullptr) sim.tracer_->ckpt_io(s);
  std::uint8_t has_metrics = sim.metrics_ != nullptr ? 1 : 0;
  s & has_metrics;
  if (sim.metrics_ != nullptr) sim.metrics_->ckpt_io(s);

  return std::move(s.buffer());
}

// ---------------------------------------------------------------------
// State restore (overlay onto a rebuilt, initialized simulation)
// ---------------------------------------------------------------------

void CheckpointEngine::fix_handler(Simulation& sim, Event& ev) {
  const LinkId id = ev.link_id_;
  if (id >= sim.links_.size()) {
    throw CheckpointError("checkpoint event has source link id " +
                          std::to_string(id) + " but the rebuilt model has " +
                          std::to_string(sim.links_.size()) +
                          " link endpoints (model/checkpoint mismatch)");
  }
  ev.handler_ = &sim.links_[id]->peer_->handler_;
}

void CheckpointEngine::reorder_clock_handlers(
    Clock& clock, const std::vector<ComponentId>& order) {
  std::vector<Clock::Handler> pool = std::move(clock.handlers_);
  std::vector<char> used(pool.size(), 0);
  std::vector<Clock::Handler> next;
  next.reserve(order.size());
  for (const ComponentId want : order) {
    bool found = false;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (used[i] == 0 && pool[i].comp == want) {
        used[i] = 1;
        next.push_back(std::move(pool[i]));
        found = true;
        break;
      }
    }
    if (!found) {
      throw CheckpointError(
          "checkpoint clock state names a handler of component id " +
          std::to_string(want) +
          " that the rebuilt model did not register (model/checkpoint "
          "mismatch)");
    }
  }
  // Handlers left in the pool had unregistered before the snapshot; they
  // are dropped, matching the uninterrupted run.
  clock.handlers_ = std::move(next);
}

void CheckpointEngine::restore(Simulation& sim,
                               std::vector<std::byte> state) {
  if (sim.state_ != Simulation::State::kInitialized) {
    throw CheckpointError(
        "restore requires a freshly initialized simulation");
  }
  Serializer s(std::move(state));

  std::uint32_t num_ranks = 0;
  s & num_ranks;
  if (num_ranks != sim.config_.num_ranks) {
    throw CheckpointError(
        "checkpoint was written with " + std::to_string(num_ranks) +
        " rank(s) but this run has " +
        std::to_string(sim.config_.num_ranks) +
        "; restart with --ranks " + std::to_string(num_ranks));
  }

  // --- components -----------------------------------------------------
  std::uint64_t ncomp = 0;
  s & ncomp;
  if (ncomp != sim.components_.size()) {
    throw CheckpointError("checkpoint has " + std::to_string(ncomp) +
                          " components but the rebuilt model has " +
                          std::to_string(sim.components_.size()));
  }
  std::vector<std::pair<ComponentId, RankId>> moved;
  for (const auto& cp : sim.components_) {
    Component& c = *cp;
    std::string name;
    std::uint8_t primary = 0;
    std::uint8_t ok = 0;
    std::uint32_t rank = 0;
    s & name & primary & ok & rank;
    if (name != c.name_) {
      throw CheckpointError("checkpoint component '" + name +
                            "' does not match rebuilt component '" + c.name_ +
                            "' (model/checkpoint mismatch)");
    }
    if ((primary != 0) != c.is_primary_) {
      throw CheckpointError("checkpoint primary flag of '" + name +
                            "' does not match the rebuilt model");
    }
    if (rank >= sim.config_.num_ranks) {
      throw CheckpointError("checkpoint places component '" + name +
                            "' on rank " + std::to_string(rank) +
                            " but this run has only " +
                            std::to_string(sim.config_.num_ranks) +
                            " rank(s)");
    }
    if (rank != c.rank_) moved.emplace_back(c.id_, rank);
    c.said_ok_ = (ok != 0);
    s & c.trace_seq_ & c.rng_;
    c.serialize_state(s);
  }

  // Apply online-rebalancing migrations that happened before the
  // snapshot: set the checkpointed rank and move the component's clock
  // handlers to the destination rank's clocks (created on demand, as
  // migration created them).  No vortex or arming work is needed — the
  // clock section below overlays cycle/tick/scheduled state and the
  // vortices are replaced wholesale.  The handler ORDER within each
  // clock is also overlaid below, so only membership matters here.
  for (const auto& [comp_id, to] : moved) {
    Component& c = *sim.components_[comp_id];
    const RankId from = c.rank_;
    c.rank_ = to;
    std::vector<std::pair<SimTime, Clock::Handler>> relocated;
    for (auto& [key, clock] : sim.clocks_) {
      if (key.first != from) continue;
      auto& handlers = clock->handlers_;
      for (std::size_t i = 0; i < handlers.size();) {
        if (handlers[i].comp == comp_id) {
          relocated.emplace_back(key.second, std::move(handlers[i]));
          handlers.erase(handlers.begin() +
                         static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }
    for (auto& [period, handler] : relocated) {
      // Direct push (not add_handler): restore must not auto-arm.
      sim.get_clock(to, period)->handlers_.push_back(std::move(handler));
    }
  }
  if (!moved.empty()) sim.refresh_partition();

  // --- links ----------------------------------------------------------
  std::uint64_t nlinks = 0;
  s & nlinks;
  if (nlinks != sim.links_.size()) {
    throw CheckpointError("checkpoint has " + std::to_string(nlinks) +
                          " link endpoints but the rebuilt model has " +
                          std::to_string(sim.links_.size()));
  }
  for (const auto& lp : sim.links_) {
    Link& l = *lp;
    s & l.send_seq_;
    std::uint64_t nq = 0;
    s & nq;
    l.poll_queue_.clear();
    for (std::uint64_t i = 0; i < nq; ++i) {
      l.poll_queue_.push_back(detail::read_event(s));
    }
    std::uint8_t has_fault = 0;
    s & has_fault;
    if ((has_fault != 0) != (l.fault_ != nullptr)) {
      throw CheckpointError(
          "checkpoint fault-model presence on port '" + l.port_ +
          "' does not match the rebuilt model (same SDL fault section "
          "required)");
    }
    if (l.fault_ != nullptr) l.fault_->serialize(s);
  }

  // --- clocks ---------------------------------------------------------
  std::uint64_t nclocks = 0;
  s & nclocks;
  // With rebalancing the checkpoint may hold MORE clocks than the
  // rebuild + migration replay produced: a multi-hop migration leaves
  // empty (handler-less) clocks on intermediate ranks.  Those are
  // recreated on demand below; fewer checkpointed clocks than rebuilt
  // ones is still a mismatch.
  if (nclocks != sim.clocks_.size() &&
      !(sim.config_.rebalance && nclocks > sim.clocks_.size())) {
    throw CheckpointError("checkpoint has " + std::to_string(nclocks) +
                          " clocks but the rebuilt model has " +
                          std::to_string(sim.clocks_.size()));
  }
  std::vector<std::pair<Clock*, bool>> rearm;
  rearm.reserve(nclocks);
  for (std::uint64_t i = 0; i < nclocks; ++i) {
    std::uint32_t rank = 0;
    std::uint64_t period = 0;
    s & rank & period;
    auto it = sim.clocks_.find({rank, period});
    if (it == sim.clocks_.end()) {
      if (sim.config_.rebalance && rank < sim.config_.num_ranks) {
        // Handler-less intermediate clock left behind by migration; the
        // order list below must be empty (reorder throws otherwise).
        (void)sim.get_clock(rank, period);
        it = sim.clocks_.find({rank, period});
      } else {
        throw CheckpointError("checkpoint clock (rank " +
                              std::to_string(rank) + ", period " +
                              std::to_string(period) +
                              "ps) not present in the rebuilt model");
      }
    }
    Clock& c = *it->second;
    std::uint8_t scheduled = 0;
    s & c.cycle_ & c.ticks_ & scheduled;
    std::vector<ComponentId> order;
    s & order;
    reorder_clock_handlers(c, order);
    c.scheduled_ = false;  // pending tick dies with the cleared vortex
    rearm.emplace_back(&c, scheduled != 0);
  }

  // --- per-rank state --------------------------------------------------
  struct StagedRank {
    std::vector<EventPtr> pending;
    std::uint64_t inserted = 0;
    std::uint64_t max_depth = 0;
    std::vector<EventPtr> mailbox;
  };
  std::vector<StagedRank> staged(sim.ranks_.size());
  for (std::size_t r = 0; r < sim.ranks_.size(); ++r) {
    Simulation::RankState& rank = sim.ranks_[r];
    // The rebuild's initial events (first clock ticks, setup sends still
    // staged in the outboxes) are replaced wholesale by the checkpointed
    // queues.
    rank.vortex.clear();
    rank.mailbox.clear();
    for (auto& out : rank.outbox) out.clear();
    s & rank.now & rank.events & rank.mailbox_received &
        rank.barrier_wait_seconds;
    std::uint64_t n = 0;
    s & n;
    staged[r].pending.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      staged[r].pending.push_back(detail::read_event(s));
    }
    s & staged[r].inserted & staged[r].max_depth;
    std::uint64_t m = 0;
    s & m;
    staged[r].mailbox.reserve(m);
    for (std::uint64_t i = 0; i < m; ++i) {
      staged[r].mailbox.push_back(detail::read_event(s));
    }
  }

  // Re-arm clocks now that every rank's time is restored.  The invariant
  // "pending tick cycle = floor(now/period)+1" makes schedule_next(now)
  // reproduce the exact pending tick event the capture skipped.
  for (const auto& [clock, scheduled] : rearm) {
    if (!scheduled) continue;
    if (clock->handlers_.empty()) {
      throw CheckpointError(
          "checkpoint marks a clock scheduled but it has no surviving "
          "handlers (corrupt checkpoint)");
    }
    clock->schedule_next(sim.ranks_[clock->rank_].now);
  }

  // Insert the checkpointed events (handlers recomputed from their source
  // links), then overlay the exact queue counters.
  for (std::size_t r = 0; r < sim.ranks_.size(); ++r) {
    Simulation::RankState& rank = sim.ranks_[r];
    for (auto& ev : staged[r].pending) {
      fix_handler(sim, *ev);
      rank.vortex.insert(std::move(ev));
    }
    rank.vortex.inserted_ = staged[r].inserted;
    rank.vortex.max_depth_ = static_cast<std::size_t>(staged[r].max_depth);
    // The original run's heap grew to max_depth; pre-size the restored
    // heap so the resumed run doesn't re-pay the growth reallocations.
    rank.vortex.reserve(static_cast<std::size_t>(staged[r].max_depth));
    for (auto& ev : staged[r].mailbox) {
      fix_handler(sim, *ev);
      rank.mailbox.push_back(std::move(ev));
    }
  }

  // --- whole-engine counters ------------------------------------------
  std::uint64_t cross = 0;
  s & cross & sim.run_stats_.sync_windows & sim.ckpt_taken_ &
      sim.ckpt_next_mark_;
  s & sim.comp_epoch_events_ & sim.rebalance_epoch_ & sim.rebalances_ &
      sim.comps_migrated_;
  sim.cross_rank_events_.store(cross, std::memory_order_relaxed);

  // --- statistics ------------------------------------------------------
  std::uint64_t nstats = 0;
  s & nstats;
  if (nstats != sim.stats_.all().size()) {
    throw CheckpointError(
        "checkpoint has " + std::to_string(nstats) +
        " statistics but the rebuilt model registered " +
        std::to_string(sim.stats_.all().size()) +
        " (observability/profiling flags must match the original run)");
  }
  for (const auto& st : sim.stats_.all()) {
    std::string comp;
    std::string name;
    s & comp & name;
    if (comp != st->component() || name != st->name()) {
      throw CheckpointError("checkpoint statistic '" + comp + "." + name +
                            "' does not match rebuilt statistic '" +
                            st->component() + "." + st->name() + "'");
    }
    st->ckpt_io(s);
  }

  // --- observability buffers ------------------------------------------
  std::uint8_t has_tracer = 0;
  s & has_tracer;
  if ((has_tracer != 0) != (sim.tracer_ != nullptr)) {
    throw CheckpointError(
        "checkpoint trace settings do not match this run (enable/disable "
        "--trace to match the original run)");
  }
  if (sim.tracer_ != nullptr) sim.tracer_->ckpt_io(s);
  std::uint8_t has_metrics = 0;
  s & has_metrics;
  if ((has_metrics != 0) != (sim.metrics_ != nullptr)) {
    throw CheckpointError(
        "checkpoint metrics settings do not match this run (enable/disable "
        "--metrics to match the original run)");
  }
  if (sim.metrics_ != nullptr) sim.metrics_->ckpt_io(s);

  // --- derived state ---------------------------------------------------
  std::uint32_t ok_count = 0;
  for (const auto& cp : sim.components_) {
    if (cp->is_primary_ && cp->said_ok_) ++ok_count;
  }
  sim.primary_ok_count_.store(ok_count, std::memory_order_release);

  if (!s.exhausted()) {
    throw CheckpointError(
        "checkpoint stream has " +
        std::to_string(s.buffer().size() - s.cursor()) +
        " trailing bytes (corrupt checkpoint)");
  }
}

// ---------------------------------------------------------------------
// File format
// ---------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'S', 'S', 'T', 'C', 'K', 'P', 'T', '1'};

/// Fixed-size little-endian header; the checksum covers the payload
/// (graph JSON followed by the state blob).
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t seq;
  std::uint64_t sim_time;
  std::uint64_t graph_bytes;
  std::uint64_t state_bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(FileHeader) == 56);

[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// POSIX write-all with EINTR handling.
void write_all(int fd, const void* data, std::size_t n,
               const std::string& path) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError("checkpoint write to '" + path +
                            "' failed: " + std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// One discovered snapshot file in a checkpoint directory.
struct Snapshot {
  std::uint64_t seq = 0;
  fs::path path;
};

/// Files named "<base>.ckpt.<digits>" in `dir`, newest (highest seq)
/// first.  Non-matching files are ignored.
[[nodiscard]] std::vector<Snapshot> scan_checkpoints(const fs::path& dir) {
  std::vector<Snapshot> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const auto pos = name.rfind(".ckpt.");
    if (pos == std::string::npos) continue;
    const std::string suffix = name.substr(pos + 6);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back({std::stoull(suffix), entry.path()});
  }
  std::sort(out.begin(), out.end(), [](const Snapshot& a, const Snapshot& b) {
    if (a.seq != b.seq) return a.seq > b.seq;
    return a.path.string() > b.path.string();
  });
  return out;
}

void fsync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return;  // best effort (e.g. directories on odd filesystems)
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string checkpoint_file_name(std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "sim.ckpt." + digits;
}

void write_checkpoint_file(const std::string& dir, const CheckpointData& data,
                           unsigned keep) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw CheckpointError("cannot create checkpoint directory '" + dir +
                          "': " + ec.message());
  }
  const fs::path final_path = fs::path(dir) / checkpoint_file_name(data.seq);
  // PID-tagged temp name: two processes sharing a checkpoint directory
  // (e.g. a daemon worker and a direct sstsim) can never collide on the
  // same in-flight temp file.
  const fs::path tmp_path =
      fs::path(dir) / (".tmp." + std::to_string(::getpid()) + "." +
                       checkpoint_file_name(data.seq));

  FileHeader hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof kMagic);
  hdr.version = kCheckpointVersion;
  hdr.flags = 0;
  hdr.seq = data.seq;
  hdr.sim_time = data.sim_time;
  hdr.graph_bytes = data.graph_json.size();
  hdr.state_bytes = data.state.size();
  hdr.checksum = fnv1a(data.state.data(), data.state.size(),
                       fnv1a(data.graph_json.data(), data.graph_json.size()));

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw CheckpointError("cannot create checkpoint temp file '" +
                          tmp_path.string() +
                          "': " + std::strerror(errno));
  }
  try {
    write_all(fd, &hdr, sizeof hdr, tmp_path.string());
    write_all(fd, data.graph_json.data(), data.graph_json.size(),
              tmp_path.string());
    write_all(fd, data.state.data(), data.state.size(), tmp_path.string());
    if (::fsync(fd) != 0) {
      throw CheckpointError("fsync of checkpoint '" + tmp_path.string() +
                            "' failed: " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    throw;
  }
  ::close(fd);

  // Atomic publish: a crash before this rename leaves the previous
  // snapshot set untouched; after it, the new snapshot is complete.
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp_path.c_str());
    throw CheckpointError("cannot publish checkpoint '" +
                          final_path.string() +
                          "': " + std::strerror(err));
  }
  fsync_path(dir, O_RDONLY | O_DIRECTORY);

  // Rotating retention: drop everything beyond the newest `keep`.
  if (keep > 0) {
    const auto snapshots = scan_checkpoints(dir);
    for (std::size_t i = keep; i < snapshots.size(); ++i) {
      std::error_code rm_ec;
      fs::remove(snapshots[i].path, rm_ec);
    }
  }
}

CheckpointData read_checkpoint_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw CheckpointError("cannot open checkpoint '" + path + "'");
  }
  std::vector<char> bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  if (f.bad()) {
    throw CheckpointError("error reading checkpoint '" + path + "'");
  }
  if (bytes.size() < sizeof(FileHeader)) {
    throw CheckpointError("checkpoint '" + path +
                          "' is truncated (shorter than the header)");
  }
  FileHeader hdr{};
  std::memcpy(&hdr, bytes.data(), sizeof hdr);
  if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("'" + path + "' is not a checkpoint file");
  }
  if (hdr.version != kCheckpointVersion) {
    throw CheckpointError(
        "checkpoint '" + path + "' has format version " +
        std::to_string(hdr.version) + " but this build supports version " +
        std::to_string(kCheckpointVersion));
  }
  const std::uint64_t payload = bytes.size() - sizeof(FileHeader);
  if (hdr.graph_bytes > payload ||
      hdr.state_bytes > payload - hdr.graph_bytes) {
    throw CheckpointError("checkpoint '" + path + "' is truncated (header "
                          "promises more payload than the file holds)");
  }
  if (hdr.graph_bytes + hdr.state_bytes != payload) {
    throw CheckpointError("checkpoint '" + path +
                          "' has trailing bytes after the payload");
  }
  const char* graph_begin = bytes.data() + sizeof(FileHeader);
  const char* state_begin = graph_begin + hdr.graph_bytes;
  const std::uint64_t sum =
      fnv1a(state_begin, hdr.state_bytes,
            fnv1a(graph_begin, hdr.graph_bytes));
  if (sum != hdr.checksum) {
    throw CheckpointError("checkpoint '" + path +
                          "' failed checksum validation (corrupt)");
  }

  CheckpointData data;
  data.seq = hdr.seq;
  data.sim_time = hdr.sim_time;
  data.graph_json.assign(graph_begin, hdr.graph_bytes);
  data.state.resize(hdr.state_bytes);
  std::memcpy(data.state.data(), state_begin, hdr.state_bytes);
  return data;
}

CheckpointData load_checkpoint(const std::string& path,
                               std::string* loaded_path) {
  std::error_code ec;
  const bool is_dir = fs::is_directory(path, ec);

  std::vector<Snapshot> candidates;
  std::string primary_error;
  if (is_dir) {
    candidates = scan_checkpoints(path);
    if (candidates.empty()) {
      throw CheckpointError("no checkpoint files (*.ckpt.N) "
                            "in directory '" + path + "'");
    }
  } else {
    try {
      CheckpointData data = read_checkpoint_file(path);
      if (loaded_path != nullptr) *loaded_path = path;
      return data;
    } catch (const CheckpointError& e) {
      primary_error = e.what();
      std::cerr << "[sst] checkpoint rejected: " << e.what() << "\n";
    }
    // Fall back to the newest intact sibling snapshot.
    const fs::path parent = fs::path(path).parent_path();
    for (auto& snap :
         scan_checkpoints(parent.empty() ? fs::path(".") : parent)) {
      if (fs::equivalent(snap.path, path, ec)) continue;
      candidates.push_back(std::move(snap));
    }
    if (candidates.empty()) {
      throw CheckpointError(primary_error +
                            ", and no fallback checkpoint exists next to it");
    }
  }

  std::size_t rejected = 0;
  for (const auto& snap : candidates) {
    try {
      CheckpointData data = read_checkpoint_file(snap.path.string());
      if (!is_dir || rejected > 0) {
        std::cerr << "[sst] falling back to intact checkpoint '"
                  << snap.path.string() << "' (seq " << data.seq << ")\n";
      }
      if (loaded_path != nullptr) *loaded_path = snap.path.string();
      return data;
    } catch (const CheckpointError& e) {
      ++rejected;
      std::cerr << "[sst] checkpoint rejected: " << e.what() << "\n";
    }
  }
  throw CheckpointError(
      "no intact checkpoint under '" + path + "' (" +
      std::to_string(candidates.size() + (is_dir ? 0 : 1)) +
      " candidate(s) rejected by validation)");
}

void install_writer(Simulation& sim,
                    const std::function<std::string()>& graph_json,
                    std::uint64_t start_seq) {
  if (sim.config().checkpoint_period == 0 &&
      sim.config().checkpoint_wall <= 0) {
    return;
  }
  auto seq = std::make_shared<std::uint64_t>(start_seq);
  sim.set_checkpoint_writer(
      [graph = graph_json(), seq](Simulation& s) {
        CheckpointData data;
        data.seq = ++*seq;
        data.sim_time = CheckpointEngine::sim_time(s);
        data.graph_json = graph;
        data.state = CheckpointEngine::capture(s);
        write_checkpoint_file(s.config().checkpoint_dir, data,
                              s.config().checkpoint_keep);
      });
}

}  // namespace sst::ckpt
