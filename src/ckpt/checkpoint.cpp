#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
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
// State walk: capture packs and restore unpacks through walk()
// ---------------------------------------------------------------------

SimTime CheckpointEngine::sim_time(const Simulation& sim) {
  SimTime t = 0;
  for (const auto& r : sim.ranks_) t = std::max(t, r.now);
  return t;
}

/// One pending event of a checkpoint list: packing borrows it from an
/// engine queue, unpacking creates it.
struct CheckpointEngine::EventSlot {
  const Event* borrowed = nullptr;
  EventPtr owned;

  void ckpt_io(Serializer& s) {
    if (s.packing()) {
      detail::write_event(s, *borrowed);
    } else {
      owned = detail::read_event(s);
    }
  }
};

/// One clock period across every rank.  All armed clocks of a period
/// share their pending cycle at a cut, and a clock is armed exactly when
/// it has handlers, so the record needs no rank key.
struct CheckpointEngine::ClockRecord {
  SimTime period = 0;
  Cycle cycle = 0;          // pending tick cycle of the armed clocks
  std::uint64_t ticks = 0;  // summed over the period's clocks
  // Handler order by component id.  kInvalidComponent marks the metrics
  // samplers (the only engine handlers): handlers that came before the
  // sampler on their rank precede it, the rest follow.
  std::vector<ComponentId> order;

  void ckpt_io(Serializer& s) { s & period & cycle & ticks & order; }
};

namespace {

/// Clock tick events are skipped at capture: they hold a pointer into
/// their Clock, and restore re-arms each clock at its saved cycle.
[[nodiscard]] bool is_clock_tick(const Event& ev) {
  return (ev.link_id() & Event::kClockSourceBase) != 0;
}

}  // namespace

std::vector<std::byte> CheckpointEngine::capture(Simulation& sim) {
  Serializer s(Serializer::Mode::kPack);
  walk(sim, s);
  return std::move(s.buffer());
}

void CheckpointEngine::restore(Simulation& sim,
                               std::vector<std::byte> state) {
  if (sim.state_ != Simulation::State::kInitialized) {
    throw CheckpointError(
        "restore requires a freshly initialized simulation");
  }
  // The rebuild's initial events (first clock ticks, setup sends still
  // staged in the outboxes) give way to the checkpointed ones.
  for (auto& r : sim.ranks_) {
    r.vortex.clear();
    for (auto& out : r.outbox) out.clear();
  }
  Serializer s(std::move(state));
  walk(sim, s);
  if (!s.exhausted()) {
    throw CheckpointError(
        "checkpoint stream has " +
        std::to_string(s.buffer().size() - s.cursor()) +
        " trailing bytes (corrupt checkpoint)");
  }
  std::uint32_t ok_count = 0;
  for (const auto& cp : sim.components_) {
    if (cp->is_primary_ && cp->said_ok_) ++ok_count;
  }
  sim.primary_ok_count_.store(ok_count, std::memory_order_release);
}

void CheckpointEngine::walk(Simulation& sim, Serializer& s) {
  const bool unpacking = !s.packing();
  const std::uint32_t ranks = sim.config_.num_ranks;
  // A section's element count, which must equal the rebuild's.
  const auto count = [&s, unpacking](std::uint64_t rebuilt,
                                     const std::string& what,
                                     const std::string& hint = "") {
    std::uint64_t n = rebuilt;
    s & n;
    if (unpacking && n != rebuilt) {
      throw CheckpointError("checkpoint has " + std::to_string(n) + " " +
                            what + " but the rebuilt model has " +
                            std::to_string(rebuilt) + hint);
    }
  };
  // Whether an optional part exists, which must match the rebuild.
  const auto presence = [&s, unpacking](bool rebuilt,
                                        const std::string& mismatch) {
    bool present = rebuilt;
    s & present;
    if (unpacking && present != rebuilt) throw CheckpointError(mismatch);
  };

  // --- header: the writer's rank count and the cut time ---------------
  std::uint32_t writer_ranks = ranks;
  SimTime now = sim_time(sim);
  s & writer_ranks & now;
  const bool same_ranks = writer_ranks == ranks;
  if (unpacking) {
    const char* per_rank_flag = sim.config_.profile_engine ? "--profile-engine"
                                : sim.config_.trace_engine ? "--trace-engine"
                                                           : nullptr;
    if (!same_ranks && per_rank_flag != nullptr) {
      throw CheckpointError(
          std::string(per_rank_flag) + " output is per rank, so this "
          "checkpoint resumes only at the " + std::to_string(writer_ranks) +
          " rank(s) that wrote it (restart with --ranks " +
          std::to_string(writer_ranks) + ")");
    }
    for (auto& r : sim.ranks_) r.now = now;
  }

  // --- components: base state + model state.  The rank is a placement
  // hint: at the writer's rank count it brings back rebalancing moves,
  // otherwise each component stays where the partitioner put it. -------
  count(sim.components_.size(), "components");
  for (const auto& cp : sim.components_) {
    Component& c = *cp;
    std::string name = c.name_;
    bool primary = c.is_primary_;
    std::uint32_t rank = c.rank_;
    s & name & primary & c.said_ok_ & rank;
    if (unpacking) {
      if (name != c.name_) {
        throw CheckpointError("checkpoint component '" + name +
                              "' does not match rebuilt component '" +
                              c.name_ + "' (model/checkpoint mismatch)");
      }
      if (primary != c.is_primary_) {
        throw CheckpointError("checkpoint primary flag of '" + name +
                              "' does not match the rebuilt model");
      }
      if (rank >= writer_ranks) {
        throw CheckpointError("checkpoint places component '" + name +
                              "' on rank " + std::to_string(rank) + " of " +
                              std::to_string(writer_ranks) +
                              " (corrupt checkpoint)");
      }
      if (same_ranks) c.rank_ = rank;
    }
    s & c.trace_seq_ & c.rng_;
    c.serialize_state(s);
  }
  if (unpacking) sim.refresh_partition();

  // --- links: send sequences, polled-but-unconsumed events, faults ---
  count(sim.links_.size(), "link endpoints");
  for (const auto& lp : sim.links_) {
    Link& l = *lp;
    s & l.send_seq_;
    std::vector<EventSlot> polled;
    if (!unpacking) {
      for (const auto& ev : l.poll_queue_) polled.push_back({ev.get(), {}});
    }
    s & polled;
    if (unpacking) {
      l.poll_queue_.clear();
      for (auto& slot : polled) l.poll_queue_.push_back(std::move(slot.owned));
    }
    presence(l.fault_ != nullptr,
             "checkpoint fault-model presence on port '" + l.port_ +
                 "' does not match the rebuilt model (same SDL fault "
                 "section required)");
    if (l.fault_ != nullptr) l.fault_->serialize(s);
  }

  // --- clocks: one record per period ----------------------------------
  std::vector<ClockRecord> clocks;
  if (!unpacking) clocks = gather_clocks(sim);
  s & clocks;
  if (unpacking) apply_clocks(sim, clocks);

  // --- pending events: one list in the engine's total order -----------
  std::vector<EventSlot> pending;
  if (!unpacking) pending = gather_events(sim);
  s & pending;
  if (unpacking) apply_events(sim, pending);

  // --- counters --------------------------------------------------------
  // Rebalance bookkeeping (the epoch phase and the current group's
  // per-component counts) lets a resumed run reproduce the original
  // run's migration schedule.
  std::uint64_t cross = sim.cross_rank_events_.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> epoch_events = sim.comp_epoch_events_;
  // (events processed, mailbox events received) per writer rank.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rank_counts;
  for (const auto& r : sim.ranks_) {
    rank_counts.emplace_back(r.events, r.mailbox_received);
  }
  s & cross & sim.run_stats_.sync_windows & sim.ckpt_taken_ &
      sim.ckpt_next_mark_ & epoch_events & sim.rebalance_epoch_ &
      sim.rebalances_ & sim.comps_migrated_ & rank_counts;
  if (unpacking) {
    sim.cross_rank_events_.store(cross, std::memory_order_relaxed);
    // Only a run with a rebalance controller counts per component; the
    // vector is empty otherwise.  A run keeps its own unless both have
    // one (the engine indexes it whenever it has a controller).
    if (epoch_events.size() == sim.comp_epoch_events_.size()) {
      sim.comp_epoch_events_ = std::move(epoch_events);
    }
    if (rank_counts.size() != writer_ranks) {
      throw CheckpointError("checkpoint has counters for " +
                            std::to_string(rank_counts.size()) + " of " +
                            std::to_string(writer_ranks) +
                            " ranks (corrupt checkpoint)");
    }
    // At another rank count the split means nothing: rank 0 takes the
    // totals, so RunStats still counts the whole run.
    for (std::size_t r = 0; r < rank_counts.size(); ++r) {
      auto& rank = sim.ranks_[same_ranks ? r : 0];
      rank.events += rank_counts[r].first;
      rank.mailbox_received += rank_counts[r].second;
    }
  }

  // --- statistics values (identity rebuilt, values overlaid) ----------
  count(sim.stats_.all().size(), "statistics",
        " (observability/profiling flags must match the original run)");
  for (const auto& st : sim.stats_.all()) {
    std::string comp = st->component();
    std::string name = st->name();
    s & comp & name;
    if (unpacking && (comp != st->component() || name != st->name())) {
      throw CheckpointError("checkpoint statistic '" + comp + "." + name +
                            "' does not match rebuilt statistic '" +
                            st->component() + "." + st->name() + "'");
    }
    st->ckpt_io(s);
  }

  // --- observability buffers ------------------------------------------
  presence(sim.tracer_ != nullptr,
           "checkpoint trace settings do not match this run (enable/"
           "disable --trace to match the original run)");
  if (sim.tracer_ != nullptr) sim.tracer_->ckpt_io(s);
  presence(sim.metrics_ != nullptr,
           "checkpoint metrics settings do not match this run (enable/"
           "disable --metrics to match the original run)");
  if (sim.metrics_ != nullptr) sim.metrics_->ckpt_io(s);
}

std::vector<CheckpointEngine::ClockRecord> CheckpointEngine::gather_clocks(
    const Simulation& sim) {
  struct Gathered {
    ClockRecord record;
    bool sampler = false;
    std::vector<ComponentId> after;  // behind the sampler on their rank
  };
  std::map<SimTime, Gathered> by_period;
  for (const auto& r : sim.ranks_) {
    for (const auto& [period, clock] : r.clocks) {
      Gathered& g = by_period[period];
      g.record.period = period;
      g.record.ticks += clock->ticks_;
      if (clock->scheduled_) g.record.cycle = clock->cycle_;
      bool past_sampler = false;
      for (const auto& h : clock->handlers_) {
        if (h.comp == kInvalidComponent) {
          past_sampler = g.sampler = true;
        } else {
          (past_sampler ? g.after : g.record.order).push_back(h.comp);
        }
      }
    }
  }
  std::vector<ClockRecord> records;
  for (auto& [period, g] : by_period) {
    if (g.sampler) g.record.order.push_back(kInvalidComponent);
    g.record.order.insert(g.record.order.end(), g.after.begin(),
                          g.after.end());
    records.push_back(std::move(g.record));
  }
  return records;
}

void CheckpointEngine::apply_clocks(Simulation& sim,
                                    std::vector<ClockRecord>& records) {
  // Every rebuilt component handler by period, from every rank.  The
  // metrics samplers stay on their clocks; the pending ticks went with
  // the cleared vortices.
  struct Rebuilt {
    std::vector<Clock::Handler> handlers;
    std::vector<Clock*> sampled;  // the period's clocks with a sampler
  };
  std::map<SimTime, Rebuilt> rebuilt;
  for (auto& rank : sim.ranks_) {
    for (auto& [period, clock] : rank.clocks) {
      Rebuilt& r = rebuilt[period];
      auto& hs = clock->handlers_;
      for (auto& h : hs) {
        if (h.comp != kInvalidComponent) r.handlers.push_back(std::move(h));
      }
      std::erase_if(hs, [](const Clock::Handler& h) {
        return h.comp != kInvalidComponent;
      });
      if (!hs.empty()) r.sampled.push_back(clock.get());
      clock->scheduled_ = false;
    }
  }
  SimTime prev = 0;
  for (const ClockRecord& rec : records) {
    if (rec.period <= prev) {
      throw CheckpointError(
          "checkpoint clock periods are not strictly ascending (corrupt "
          "checkpoint)");
    }
    prev = rec.period;
    auto node = rebuilt.extract(rec.period);
    Rebuilt pool = node.empty() ? Rebuilt{} : std::move(node.mapped());
    const auto sampling_mismatch = [&rec] {
      return CheckpointError(
          "checkpoint clock of period " + std::to_string(rec.period) +
          "ps does not match this run's metrics sampling (same --metrics "
          "and --metrics-period as the original run required)");
    };
    if (!rec.order.empty() &&
        (rec.cycle == 0 || rec.cycle > kTimeNever / rec.period)) {
      throw CheckpointError(
          "checkpoint clock of period " + std::to_string(rec.period) +
          "ps has handlers but pending cycle " + std::to_string(rec.cycle) +
          " (corrupt checkpoint)");
    }

    // Place the handlers in saved order by the engine's rule, each on
    // the side of the sampler marker it was saved on.  Handlers the
    // order does not name had unregistered before the snapshot; they are
    // dropped, as in the uninterrupted run.
    bool after_sampler = false;
    for (const ComponentId id : rec.order) {
      if (id == kInvalidComponent) {
        if (after_sampler || pool.sampled.empty()) throw sampling_mismatch();
        after_sampler = true;
        continue;
      }
      const auto it = std::find_if(
          pool.handlers.begin(), pool.handlers.end(),
          [id](const Clock::Handler& h) { return h.comp == id; });
      if (it == pool.handlers.end()) {
        throw CheckpointError(
            "checkpoint clock state names a handler of component id " +
            std::to_string(id) +
            " that the rebuilt model did not register (model/checkpoint "
            "mismatch)");
      }
      sim.place_handler(rec.period, std::move(*it), after_sampler,
                        rec.cycle);
      pool.handlers.erase(it);
    }
    if (!after_sampler && !pool.sampled.empty()) throw sampling_mismatch();
    // The samplers tick with the period's other clocks.
    for (Clock* clock : pool.sampled) {
      if (!clock->scheduled_) {
        clock->schedule_next((rec.cycle - 1) * rec.period);
      }
    }
    // The summed tick count goes to one clock of the period.
    sim.get_clock(0, rec.period)->ticks_ = rec.ticks;
  }
  if (!rebuilt.empty()) {
    throw CheckpointError("the rebuilt model has a clock of period " +
                          std::to_string(rebuilt.begin()->first) +
                          "ps that the checkpoint lacks (model/checkpoint "
                          "mismatch)");
  }
}

std::vector<CheckpointEngine::EventSlot> CheckpointEngine::gather_events(
    const Simulation& sim) {
  std::vector<EventSlot> pending;
  for (const auto& r : sim.ranks_) {
    for (const auto& node : r.vortex.heap_) {
      if (!is_clock_tick(*node.ev)) pending.push_back({node.ev.get(), {}});
    }
  }
  // The engine's total order, so the bytes depend on neither the heap
  // layout nor the rank count.
  std::sort(pending.begin(), pending.end(),
            [](const EventSlot& a, const EventSlot& b) {
              return EventOrder{}(*a.borrowed, *b.borrowed);
            });
  return pending;
}

void CheckpointEngine::apply_events(Simulation& sim,
                                    std::vector<EventSlot>& pending) {
  for (EventSlot& slot : pending) {
    Event& ev = *slot.owned;
    const LinkId id = ev.link_id_;
    if (id >= sim.links_.size() || sim.links_[id]->peer_ == nullptr) {
      throw CheckpointError(
          "checkpoint event has source link id " + std::to_string(id) +
          ", which is not a connected link endpoint of the rebuilt model "
          "(model/checkpoint mismatch)");
    }
    // Handler recomputed from the source link; the event waits on the
    // rank its target component lives on in this run.
    ev.handler_ = &sim.links_[id]->peer_->handler_;
    sim.place_event(std::move(slot.owned));
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
/// first.  Non-matching files are ignored, including names whose digits
/// do not fit a u64.
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
    std::uint64_t seq = 0;
    const char* end = suffix.data() + suffix.size();
    const auto [ptr, err] = std::from_chars(suffix.data(), end, seq);
    if (err != std::errc{} || ptr != end) continue;
    out.push_back({seq, entry.path()});
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
