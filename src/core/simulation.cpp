#include "core/simulation.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <queue>
#include <thread>
#include <utility>

#include "core/window_barrier.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sst {

namespace {
// Largest sync window.  It bounds the window when no rank has outgoing
// cut links (the causal horizon is then infinite), so ranks still meet
// for termination votes and checkpoints instead of running past a
// primary-exit decision.
constexpr SimTime kMaxSyncWindow = 10 * kMicrosecond;

// a + b, saturating at kTimeNever.
SimTime sat_add(SimTime a, SimTime b) {
  return a >= kTimeNever - b ? kTimeNever : a + b;
}

// Safety valve for init phases (a component that stages data every phase
// forever is a bug, not a workload).
constexpr unsigned kMaxInitPhases = 64;

// CPUs this process may run on (its affinity mask; 1 if unreadable).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
}
}  // namespace

Simulation::Simulation(SimConfig config) : config_(config) {
  if (config_.num_ranks == 0) throw ConfigError("num_ranks must be >= 1");
  ranks_ = std::vector<RankState>(config_.num_ranks);
  for (auto& r : ranks_) r.outbox.resize(config_.num_ranks);
}

Simulation::~Simulation() {
  // Clear a dangling build context if a constructor threw mid-build.
  if (build_context() == this) build_context() = nullptr;
}

Simulation*& Simulation::build_context() {
  thread_local Simulation* ctx = nullptr;
  return ctx;
}

void Simulation::begin_component(const std::string& name) {
  if (state_ != State::kBuilding) {
    throw ConfigError("add_component after initialize()");
  }
  if (constructing_) {
    throw ConfigError(
        "nested add_component (components must not create components)");
  }
  if (name.empty()) throw ConfigError("component name must not be empty");
  if (component_names_.contains(name)) {
    throw ConfigError("duplicate component name '" + name + "'");
  }
  pending_name_ = name;
  constructing_ = true;
  build_context() = this;
}

Component* Simulation::end_component(std::unique_ptr<Component> comp) {
  constructing_ = false;
  build_context() = nullptr;
  Component* raw = comp.get();
  component_names_.emplace(raw->name_, raw->id_);
  components_.push_back(std::move(comp));
  return raw;
}

void Simulation::abort_component() {
  constructing_ = false;
  build_context() = nullptr;
}

Link* Simulation::create_link(ComponentId owner, std::string_view port,
                              EventHandler handler, bool polling,
                              bool optional) {
  auto key = std::make_pair(owner, std::string(port));
  if (ports_.contains(key)) {
    throw ConfigError("duplicate port '" + std::string(port) +
                      "' on component '" + components_raw_name(owner) + "'");
  }
  const LinkId id = static_cast<LinkId>(links_.size());
  if (id >= Event::kClockSourceBase) {
    throw ConfigError("too many link endpoints");
  }
  links_.push_back(std::unique_ptr<Link>(new Link(
      *this, id, owner, std::string(port), std::move(handler), polling,
      optional)));
  Link* link = links_.back().get();
  ports_.emplace(std::move(key), link);
  return link;
}

Link* Simulation::create_self_link(ComponentId owner, std::string_view name,
                                   SimTime latency, EventHandler handler) {
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(std::unique_ptr<Link>(
      new Link(*this, id, owner, "self:" + std::string(name),
               std::move(handler), /*polling=*/false, /*optional=*/false)));
  Link* link = links_.back().get();
  link->peer_ = link;
  link->latency_ = latency;
  return link;
}

std::string Simulation::components_raw_name(ComponentId id) const {
  // Valid during construction: the component being built is not yet in
  // components_, so fall back to the pending name.
  if (id < components_.size()) return components_[id]->name();
  return pending_name_;
}

void Simulation::connect(const std::string& comp_a, const std::string& port_a,
                         const std::string& comp_b, const std::string& port_b,
                         SimTime latency_ps) {
  connect(comp_a, port_a, comp_b, port_b, latency_ps, latency_ps);
}

void Simulation::connect(const std::string& comp_a, const std::string& port_a,
                         const std::string& comp_b, const std::string& port_b,
                         SimTime latency_a_to_b, SimTime latency_b_to_a) {
  if (state_ != State::kBuilding) {
    throw ConfigError("connect after initialize()");
  }
  if (latency_a_to_b == 0 || latency_b_to_a == 0) {
    throw ConfigError("link latency must be >= 1ps (" + comp_a + "." +
                      port_a + " <-> " + comp_b + "." + port_b + ")");
  }
  connections_.push_back(
      {comp_a, port_a, comp_b, port_b, latency_a_to_b, latency_b_to_a});
}

void Simulation::install_link_fault(const std::string& component,
                                    const std::string& port,
                                    std::unique_ptr<LinkFault> fault) {
  if (!fault) throw ConfigError("install_link_fault: null fault model");
  if (state_ == State::kRunning || state_ == State::kDone) {
    throw ConfigError("install_link_fault after run()");
  }
  auto it = component_names_.find(component);
  if (it == component_names_.end()) {
    throw ConfigError("install_link_fault: unknown component '" + component +
                      "'");
  }
  auto pit = ports_.find({it->second, port});
  if (pit == ports_.end()) {
    throw ConfigError("install_link_fault: component '" + component +
                      "' has no port '" + port + "'");
  }
  pit->second->fault_ = std::move(fault);
}

void Simulation::set_component_rank(const std::string& name, RankId rank) {
  if (rank >= config_.num_ranks) {
    throw ConfigError("rank " + std::to_string(rank) + " out of range for '" +
                      name + "'");
  }
  pinned_ranks_[name] = rank;
}

Component* Simulation::find_component(const std::string& name) const {
  auto it = component_names_.find(name);
  if (it == component_names_.end()) return nullptr;
  return components_[it->second].get();
}

RankId Simulation::component_rank(ComponentId id) const {
  if (id >= components_.size()) {
    throw ConfigError("component id out of range");
  }
  return components_[id]->rank_;
}

SimTime Simulation::time(std::string_view text) {
  return UnitAlgebra(text).to_simtime();
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

void Simulation::assign_ranks() {
  const unsigned R = config_.num_ranks;
  const std::size_t N = components_.size();
  if (R == 1) {
    for (auto& c : components_) c->rank_ = 0;
  } else {
    switch (config_.partition) {
      case PartitionStrategy::kLinear: {
        // Contiguous blocks in creation order.  Creation order usually
        // follows system structure (node 0's parts, node 1's parts, ...),
        // so this is SST's default partitioner too.
        const std::size_t per = (N + R - 1) / R;
        for (std::size_t i = 0; i < N; ++i) {
          components_[i]->rank_ = static_cast<RankId>(std::min<std::size_t>(
              i / std::max<std::size_t>(per, 1), R - 1));
        }
        break;
      }
      case PartitionStrategy::kRoundRobin: {
        for (std::size_t i = 0; i < N; ++i) {
          components_[i]->rank_ = static_cast<RankId>(i % R);
        }
        break;
      }
      case PartitionStrategy::kMinCut: {
        assign_ranks_mincut();
        break;
      }
    }
  }
  // Explicit pins override the partitioner.
  for (const auto& [name, rank] : pinned_ranks_) {
    auto it = component_names_.find(name);
    if (it == component_names_.end()) {
      throw ConfigError("set_component_rank: unknown component '" + name +
                        "'");
    }
    components_[it->second]->rank_ = rank;
  }
}

void Simulation::assign_ranks_mincut() {
  // Two-stage heuristic: (1) BFS-grown blocks over the connection graph
  // give a connected initial partition; (2) Kernighan-Lin-style greedy
  // refinement moves boundary components to the rank where they have the
  // most neighbours, subject to balance, until no move reduces the cut.
  // Deterministic throughout (fixed visit order).
  const unsigned R = config_.num_ranks;
  const std::size_t N = components_.size();
  std::vector<std::vector<ComponentId>> adj(N);
  for (const auto& c : connections_) {
    auto a = component_names_.find(c.comp_a);
    auto b = component_names_.find(c.comp_b);
    if (a == component_names_.end() || b == component_names_.end()) continue;
    adj[a->second].push_back(b->second);
    adj[b->second].push_back(a->second);
  }

  // Stage 1: BFS growth from pseudo-peripheral seeds — each new block
  // starts at the unassigned component farthest from everything assigned
  // so far, so blocks grow as compact tiles instead of interleaving.
  std::vector<RankId> rank(N, static_cast<RankId>(R - 1));
  std::vector<bool> assigned(N, false);
  const std::size_t quota = (N + R - 1) / R;
  auto pick_far_seed = [&]() -> std::size_t {
    // Multi-source BFS from the assigned set; farthest unassigned vertex
    // wins (lowest id on ties).  With nothing assigned yet, vertex 0.
    std::vector<std::uint32_t> dist(N, ~0U);
    std::queue<ComponentId> q;
    for (std::size_t i = 0; i < N; ++i) {
      if (assigned[i]) {
        dist[i] = 0;
        q.push(static_cast<ComponentId>(i));
      }
    }
    if (q.empty()) return 0;
    while (!q.empty()) {
      const ComponentId v = q.front();
      q.pop();
      for (ComponentId w : adj[v]) {
        if (dist[w] == ~0U) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
      }
    }
    std::size_t best = N;
    std::uint32_t best_dist = 0;
    for (std::size_t i = 0; i < N; ++i) {
      if (assigned[i]) continue;
      // Unreachable (disconnected) vertices are the farthest of all.
      const std::uint32_t d = dist[i] == ~0U ? ~0U - 1 : dist[i];
      if (best == N || d > best_dist) {
        best = i;
        best_dist = d;
      }
    }
    return best;
  };
  // Best-first growth: always absorb the frontier vertex with the most
  // edges into the growing block (ties to the lowest id), which keeps
  // blocks compact instead of the plus-shapes FIFO BFS produces.
  std::vector<std::uint32_t> edges_into_block(N, 0);
  for (unsigned r = 0; r < R; ++r) {
    std::size_t filled = 0;
    std::vector<ComponentId> frontier;
    std::fill(edges_into_block.begin(), edges_into_block.end(), 0);
    while (filled < quota) {
      if (frontier.empty()) {
        const std::size_t seed = pick_far_seed();
        if (seed >= N) break;
        frontier.push_back(static_cast<ComponentId>(seed));
      }
      std::size_t pick = 0;
      for (std::size_t i = 1; i < frontier.size(); ++i) {
        const ComponentId a = frontier[i];
        const ComponentId b = frontier[pick];
        if (edges_into_block[a] > edges_into_block[b] ||
            (edges_into_block[a] == edges_into_block[b] && a < b)) {
          pick = i;
        }
      }
      const ComponentId v = frontier[pick];
      frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
      if (assigned[v]) continue;
      assigned[v] = true;
      rank[v] = static_cast<RankId>(r);
      ++filled;
      for (ComponentId w : adj[v]) {
        if (!assigned[w]) {
          if (edges_into_block[w] == 0) frontier.push_back(w);
          ++edges_into_block[w];
        }
      }
    }
  }

  // Stage 2: Kernighan-Lin-style refinement.  Alternates two kinds of
  // deterministic greedy passes until neither changes anything:
  //   * move passes — relocate a vertex to the rank holding more of its
  //     neighbours (subject to balance);
  //   * swap passes — exchange two vertices between ranks when the
  //     combined gain is positive (fixes block *shapes*, which single
  //     moves cannot under tight balance).
  std::vector<std::size_t> size(R, 0);
  for (std::size_t i = 0; i < N; ++i) ++size[rank[i]];
  const std::size_t per = N / R;
  const std::size_t slack = std::max<std::size_t>(1, per / 8);
  const std::size_t size_max = quota + slack;
  const std::size_t size_min = per > slack ? per - slack : 1;

  // edges_to[v][r]: number of v's graph edges whose other end is in r.
  std::vector<std::vector<std::uint32_t>> edges_to(
      N, std::vector<std::uint32_t>(R, 0));
  auto recount = [&](std::size_t v) {
    std::fill(edges_to[v].begin(), edges_to[v].end(), 0);
    for (ComponentId w : adj[v]) ++edges_to[v][rank[w]];
  };
  for (std::size_t v = 0; v < N; ++v) recount(v);
  auto relocate = [&](std::size_t v, RankId to) {
    const RankId from = rank[v];
    rank[v] = to;
    for (ComponentId u : adj[v]) {
      --edges_to[u][from];
      ++edges_to[u][to];
    }
  };

  for (int round = 0; round < 8; ++round) {
    bool changed = false;

    // Move pass.
    for (std::size_t v = 0; v < N; ++v) {
      if (adj[v].empty()) continue;
      const RankId cur = rank[v];
      RankId best = cur;
      std::int64_t best_gain = 0;
      for (RankId r = 0; r < R; ++r) {
        if (r == cur || size[r] >= size_max) continue;
        const std::int64_t gain =
            static_cast<std::int64_t>(edges_to[v][r]) -
            static_cast<std::int64_t>(edges_to[v][cur]);
        if (gain > best_gain) {
          best_gain = gain;
          best = r;
        }
      }
      if (best != cur && size[cur] > size_min) {
        --size[cur];
        ++size[best];
        relocate(v, best);
        changed = true;
      }
    }

    // Swap pass (balance-preserving, so no size checks needed).
    for (std::size_t v = 0; v < N; ++v) {
      if (adj[v].empty()) continue;
      const RankId rv = rank[v];
      std::size_t best_w = N;
      std::int64_t best_gain = 0;
      for (std::size_t w = v + 1; w < N; ++w) {
        const RankId rw = rank[w];
        if (rw == rv || adj[w].empty()) continue;
        std::int64_t gain =
            static_cast<std::int64_t>(edges_to[v][rw]) -
            static_cast<std::int64_t>(edges_to[v][rv]) +
            static_cast<std::int64_t>(edges_to[w][rv]) -
            static_cast<std::int64_t>(edges_to[w][rw]);
        // If v and w are adjacent, their shared edges were counted as
        // gains on both sides but stay cut after the swap.
        for (ComponentId u : adj[v]) {
          if (u == w) gain -= 2;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_w = w;
        }
      }
      if (best_w < N) {
        const RankId rw = rank[best_w];
        relocate(v, rw);
        relocate(best_w, rv);
        changed = true;
      }
    }

    if (!changed) break;
  }

  for (std::size_t i = 0; i < N; ++i) {
    components_[i]->rank_ = rank[i];
  }
}

// ---------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------

void Simulation::wire_links() {
  for (const auto& c : connections_) {
    auto ca = component_names_.find(c.comp_a);
    if (ca == component_names_.end()) {
      throw ConfigError("connect: unknown component '" + c.comp_a + "'");
    }
    auto cb = component_names_.find(c.comp_b);
    if (cb == component_names_.end()) {
      throw ConfigError("connect: unknown component '" + c.comp_b + "'");
    }
    auto pa = ports_.find({ca->second, c.port_a});
    if (pa == ports_.end()) {
      throw ConfigError("connect: component '" + c.comp_a +
                        "' has no port '" + c.port_a + "'");
    }
    auto pb = ports_.find({cb->second, c.port_b});
    if (pb == ports_.end()) {
      throw ConfigError("connect: component '" + c.comp_b +
                        "' has no port '" + c.port_b + "'");
    }
    Link* la = pa->second;
    Link* lb = pb->second;
    if (la->peer_ != nullptr || lb->peer_ != nullptr) {
      throw ConfigError("port connected twice: " + c.comp_a + "." + c.port_a +
                        " <-> " + c.comp_b + "." + c.port_b);
    }
    la->peer_ = lb;
    lb->peer_ = la;
    la->latency_ = c.latency_ab;
    lb->latency_ = c.latency_ba;
  }

  // Check for dangling required ports and record which component each
  // link delivers into (the receiving endpoint's owner).  Link objects
  // and their owners never change after this point — migration only
  // rewrites rank fields — so link_target_ is built once.
  link_target_.assign(links_.size(), kInvalidComponent);
  for (const auto& link : links_) {
    if (link->peer_ == nullptr) {
      if (!link->optional_) {
        throw ConfigError("port never connected: '" +
                          components_[link->owner_]->name() + "." +
                          link->port_ + "'");
      }
      continue;
    }
    link_target_[link->id_] = link->peer_->owner_;
  }
  refresh_partition();
}

void Simulation::refresh_partition() {
  // Everything derived from component ranks: link endpoint ranks, the
  // lookahead per sending rank and the cut-link count.  Called from
  // wire_links at initialization, after checkpoint restore, and at a
  // sync barrier after migrations moved components.
  cut_links_ = 0;
  rank_min_out_.assign(config_.num_ranks, kTimeNever);
  for (const auto& link : links_) {
    link->owner_rank_ = components_[link->owner_]->rank_;
    if (link->peer_ == nullptr) continue;
    link->peer_rank_ = components_[link->peer_->owner_]->rank_;
    if (link->owner_rank_ != link->peer_rank_) {
      ++cut_links_;
      rank_min_out_[link->owner_rank_] =
          std::min(rank_min_out_[link->owner_rank_], link->latency_);
    }
  }
}

void Simulation::register_component_clock(ComponentId comp, SimTime period,
                                          ClockHandler handler) {
  if (state_ == State::kBuilding) {
    pending_clocks_.push_back({comp, period, std::move(handler)});
  } else {
    get_clock(components_[comp]->rank_, period)
        ->add_handler(comp, std::move(handler));
  }
}

Clock* Simulation::get_clock(RankId rank, SimTime period) {
  auto& clocks = ranks_[rank].clocks;
  auto it = clocks.find(period);
  if (it == clocks.end()) {
    it = clocks
             .emplace(period, std::unique_ptr<Clock>(
                                  new Clock(*this, rank, period)))
             .first;
  }
  return it->second.get();
}

// ---------------------------------------------------------------------
// Initialization
// ---------------------------------------------------------------------

void Simulation::initialize() {
  if (state_ != State::kBuilding) return;
  assign_ranks();
  wire_links();
  // Online rebalancing: serial runs ignore the flag (there is only one
  // rank).  The controller validates the tuning.
  if (config_.rebalance && config_.num_ranks > 1) {
    RebalanceConfig rc;
    rc.threshold = config_.rebalance_threshold;
    rc.period = config_.rebalance_period;
    rc.max_moves = config_.rebalance_max_moves;
    rebalance_ctl_ =
        std::make_unique<RebalanceController>(rc, config_.num_ranks);
    comp_epoch_events_.assign(components_.size(), 0);
  }
  // Now that ranks are known, create clocks registered during build.
  for (auto& pc : pending_clocks_) {
    get_clock(components_[pc.comp]->rank_, pc.period)
        ->add_handler(pc.comp, std::move(pc.handler));
  }
  pending_clocks_.clear();
  setup_observability();
  run_init_phases();
  state_ = State::kInitialized;
  for (auto& c : components_) c->setup();
}

void Simulation::run_init_phases() {
  unsigned phase = 0;
  do {
    init_data_sent_ = false;
    init_phase_active_ = true;
    for (auto& c : components_) c->init(phase);
    init_phase_active_ = false;
    // Deliver staged init data for the next phase.
    for (auto& link : links_) {
      while (!link->init_staging_.empty()) {
        link->peer_->init_queue_.push_back(
            std::move(link->init_staging_.front()));
        link->init_staging_.pop_front();
      }
    }
    ++phase;
    if (phase > kMaxInitPhases) {
      throw SimulationError("init phases did not converge (component keeps "
                            "sending init data)");
    }
  } while (init_data_sent_);
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

void Simulation::flush_outbox(RankId me) {
  RankState& src = ranks_[me];
  std::uint64_t staged = 0;
  for (RankId dst = 0; dst < src.outbox.size(); ++dst) {
    auto& buf = src.outbox[dst];
    if (buf.empty()) continue;
    staged += buf.size();
    {
      std::lock_guard<std::mutex> lock(ranks_[dst].mailbox_mutex);
      auto& mailbox = ranks_[dst].mailbox;
      for (auto& ev : buf) mailbox.push_back(std::move(ev));
    }
    buf.clear();  // capacity is reused by the next window
    ++src.outbox_flushes;
  }
  if (staged > 0) {
    // One atomic add per flushed buffer set instead of one per event.
    cross_rank_events_.fetch_add(staged, std::memory_order_relaxed);
  }
}

void Simulation::drain_mailbox(RankState& rank) {
  std::vector<EventPtr>& incoming = rank.drain_scratch;
  {
    std::lock_guard<std::mutex> lock(rank.mailbox_mutex);
    incoming.swap(rank.mailbox);
  }
  rank.mailbox_received += incoming.size();
  // The mailbox order depends on which sender thread flushed first, but
  // no sort is needed: every event's EventOrder key is unique, so the
  // vortex pops the same sequence whatever order they went in.
  for (auto& ev : incoming) rank.vortex.insert(std::move(ev));
  // The swap left the (empty) scratch capacity in the mailbox; clearing
  // here leaves this window's capacity staged for the next drain.
  incoming.clear();
}

// ---------------------------------------------------------------------
// Run loops
// ---------------------------------------------------------------------

void print_done_line(std::ostream& os, const RunStats& stats) {
  os << "done: t=" << stats.final_time << " ps, " << stats.events_processed
     << " events, " << stats.wall_seconds << " s wall ("
     << static_cast<std::uint64_t>(stats.events_per_second())
     << " events/s)\n";
}

RunStats Simulation::run() {
  if (state_ == State::kBuilding) initialize();
  if (state_ == State::kDone) {
    throw SimulationError("Simulation::run called twice");
  }
  state_ = State::kRunning;
  if (metrics_) build_metrics_index();

  // Wall-clock watchdog: a side thread sleeps for the budget and raises a
  // flag the run loops poll.  A finished run cancels the wait and joins.
  // Checkpoint writes suspend the countdown: their wall time accumulates
  // in ckpt_pause_ns_ and extends the deadline, and an expiry observed
  // while a write is in flight is deferred until the write completes, so
  // a slow disk cannot convert a healthy run into a spurious abort.
  watchdog_fired_.store(false, std::memory_order_relaxed);
  std::thread watchdog;
  std::mutex wd_mutex;
  std::condition_variable wd_cv;
  bool wd_cancel = false;
  if (config_.watchdog_seconds > 0) {
    watchdog = std::thread([this, &wd_mutex, &wd_cv, &wd_cancel] {
      std::unique_lock<std::mutex> lock(wd_mutex);
      const auto start = std::chrono::steady_clock::now();
      const auto budget =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.watchdog_seconds));
      for (;;) {
        auto deadline =
            start + budget +
            std::chrono::nanoseconds(
                ckpt_pause_ns_.load(std::memory_order_relaxed));
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          if (ckpt_writing_.load(std::memory_order_acquire)) {
            // Snapshot in flight: re-check shortly; its duration will be
            // credited to the budget when it finishes.
            deadline = now + std::chrono::milliseconds(50);
          } else {
            watchdog_fired_.store(true, std::memory_order_relaxed);
            return;
          }
        }
        if (wd_cv.wait_until(lock, deadline,
                             [&wd_cancel] { return wd_cancel; })) {
          return;
        }
      }
    });
  }
  auto stop_watchdog = [&] {
    if (!watchdog.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(wd_mutex);
      wd_cancel = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  };

  const auto wall_start = std::chrono::steady_clock::now();
  ckpt_last_wall_ = wall_start;
  try {
    run_windows();
  } catch (...) {
    stop_watchdog();
    state_ = State::kDone;
    throw;
  }
  const auto wall_end = std::chrono::steady_clock::now();
  stop_watchdog();

  if (watchdog_fired_.load(std::memory_order_relaxed)) {
    state_ = State::kDone;
    // Best-effort trace/metrics flush so the aborted run can be inspected.
    flush_observability(/*nothrow=*/true);
    throw WatchdogError(diagnostic_report(
        "watchdog: wall-clock budget of " +
        std::to_string(config_.watchdog_seconds) + "s exceeded"));
  }
  if (primary_count_.load(std::memory_order_acquire) > 0 &&
      !primaries_done()) {
    bool drained = true;
    for (const auto& r : ranks_) drained = drained && r.vortex.empty();
    if (drained) {
      state_ = State::kDone;
      flush_observability(/*nothrow=*/true);
      throw DeadlockError(diagnostic_report(
          "deadlock: no events pending but primary components never "
          "signalled completion"));
    }
  }

  state_ = State::kDone;
  finish_components();

  run_stats_.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  run_stats_.events_processed = 0;
  for (const auto& r : ranks_) run_stats_.events_processed += r.events;
  run_stats_.clock_ticks = 0;
  run_stats_.pool_allocs = 0;
  run_stats_.pool_recycles = 0;
  for (const auto& r : ranks_) {
    for (const auto& [period, clock] : r.clocks) {
      run_stats_.clock_ticks += clock->ticks();
      run_stats_.pool_allocs += clock->tick_allocs();
      run_stats_.pool_recycles += clock->tick_recycles();
    }
  }
  run_stats_.cross_rank_events =
      cross_rank_events_.load(std::memory_order_relaxed);
  run_stats_.exchange_flushes = 0;
  for (const auto& r : ranks_) run_stats_.exchange_flushes += r.outbox_flushes;
  run_stats_.cut_links = cut_links_;
  run_stats_.lookahead = std::min(
      *std::min_element(rank_min_out_.begin(), rank_min_out_.end()),
      kMaxSyncWindow);
  run_stats_.rebalances = rebalances_;
  run_stats_.components_migrated = comps_migrated_;
  run_stats_.checkpoints = ckpt_taken_;
  run_stats_.checkpoint_seconds = ckpt_write_seconds_;
  SimTime final_time = 0;
  for (const auto& r : ranks_) final_time = std::max(final_time, r.now);
  run_stats_.final_time = final_time;

  if (config_.profile_engine) {
    finalize_engine_stats(run_stats_.wall_seconds);
  }
  flush_observability(/*nothrow=*/false);

  if (config_.verbose) {
    std::cerr << "[sst] run complete: " << run_stats_.events_processed
              << " events, " << run_stats_.sync_windows << " windows, t="
              << run_stats_.final_time << "ps, wall="
              << run_stats_.wall_seconds << "s\n";
  }
  return run_stats_;
}

void Simulation::rank_process_until(RankId me) {
  RankState& rank = ranks_[me];
  std::uint64_t steps = 0;
  const bool account = rebalance_accounting_;
  while (!rank.vortex.empty()) {
    const SimTime t = rank.vortex.next_time();
    if (t >= horizon_) return;
    if ((++steps & kEnginePollMask) == 0 &&
        watchdog_fired_.load(std::memory_order_relaxed)) {
      return;
    }
    EventPtr ev = rank.vortex.pop();
    rank.now = t;
    ++rank.events;
    if (tracer_ && ev->link_id_ < Event::kClockSourceBase) {
      tracer_->record_delivery(me, t, ev->link_id_, ev->order_);
    }
    if (account && ev->link_id_ < Event::kClockSourceBase) {
      // Attribute the delivery to the receiving component; clock ticks
      // are attributed per handler in Clock::tick.
      ++comp_epoch_events_[link_target_[ev->link_id_]];
    }
    const EventHandler* handler = ev->handler_;
    if (handler == nullptr) {
      throw SimulationError("event with no handler in queue");
    }
    (*handler)(std::move(ev));
  }
}

void Simulation::run_windows() {
  const unsigned R = config_.num_ranks;
  // Rebalance accounting: per-component counters written only by the
  // owning rank's thread during a window and read at the barrier.
  rebalance_accounting_ = rebalance_ctl_ != nullptr;
  rank_epoch_mark_.assign(R, 0);

  // Cross-rank events sent during setup() are staged in outboxes; they
  // must be in the vortices before the first horizon is computed or the
  // first window could run past them.
  for (RankId r = 0; r < R; ++r) flush_outbox(r);
  for (auto& r : ranks_) drain_mailbox(r);
  const SimTime first = next_window_start();
  window_done_ = first == kTimeNever;
  if (!window_done_) {
    // Arm the checkpoint period mark from the first event time, so a
    // restarted run reproduces the original checkpoint schedule.
    if (checkpointing()) (void)checkpoint_due(first, false);
    horizon_ = next_horizon(first);
  }

  // Waiters spin before they block only while every rank has a CPU to
  // itself; past that a spinner takes the CPU a late rank needs.  A
  // property of the host and the rank count, so not a setting.
  const bool spin = R <= usable_cpus();
  WindowBarrier after_send(R, spin);
  WindowBarrier after_drain(R, spin);
  const bool time_barriers = config_.profile_engine;
  // Stamped by the last arriver under profile_engine, read by every rank
  // once the barrier releases it.
  std::chrono::steady_clock::time_point last_arrival;
  auto worker = [&, time_barriers](RankId me) {
    auto wait = [&](WindowBarrier& barrier, auto&& done) {
      if (!time_barriers) {
        barrier.arrive_and_wait(done);
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      // Checkpoints are written inside the barrier completion while every
      // rank is parked, and the watchdog is credited that wall time via
      // ckpt_pause_ns_.  Credit the barrier-wait profile the same way, so
      // both counters below measure synchronization, not snapshot I/O.
      const std::uint64_t ckpt0 =
          ckpt_pause_ns_.load(std::memory_order_relaxed);
      barrier.arrive_and_wait([&] {
        last_arrival = std::chrono::steady_clock::now();
        done();
      });
      const auto t1 = std::chrono::steady_clock::now();
      const double ckpt =
          1e-9 * static_cast<double>(
                     ckpt_pause_ns_.load(std::memory_order_relaxed) - ckpt0);
      auto seconds = [&](auto since) {
        return std::max(
            std::chrono::duration<double>(t1 - since).count() - ckpt, 0.0);
      };
      // The wait splits at the last arrival: before it, this rank waited
      // for slower ranks (imbalance); after it, for the release.
      RankState& rank = ranks_[me];
      rank.barrier_wait_seconds += seconds(t0);
      rank.barrier_release_seconds += seconds(last_arrival);
    };
    while (!window_done_) {
      rank_process_until(me);
      flush_outbox(me);
      wait(after_send, [] {});
      drain_mailbox(ranks_[me]);
      wait(after_drain, [this] { complete_window(); });
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(R - 1);
  for (RankId r = 1; r < R; ++r) {
    threads.emplace_back(worker, r);
  }
  worker(0);
  for (auto& t : threads) t.join();
  rebalance_accounting_ = false;
  if (!rebalance_error_.empty()) {
    // A half-applied migration leaves an inconsistent partition; the run
    // cannot continue.  (Never expected: migrate() only throws on engine
    // invariant violations.)
    throw SimulationError("rebalance: migration failed: " +
                          rebalance_error_);
  }
}

SimTime Simulation::next_window_start() {
  if (watchdog_fired_.load(std::memory_order_relaxed) || primaries_done()) {
    return kTimeNever;
  }
  SimTime global_min = kTimeNever;
  for (const auto& r : ranks_) {
    global_min = std::min(global_min, r.vortex.next_time());
  }
  if (global_min > config_.end_time) {
    // The next event lies past end_time, so the run ends there.  Drained
    // queues end it instead: the clocks keep their last event's time.
    if (global_min != kTimeNever) {
      for (auto& r : ranks_) r.now = config_.end_time;
    }
    return kTimeNever;
  }
  return global_min;
}

SimTime Simulation::next_horizon(SimTime global_min) const {
  // Every pending event is in a vortex (the mailboxes were drained), so
  // the earliest event rank r can process next is at next_time(r), and
  // anything it sends to another rank crosses a cut link of latency >=
  // rank_min_out_[r].  No event produced in the coming window can
  // therefore land on another rank before the minimum of those bounds,
  // and every event below it is safe to process.  A rank with an empty
  // queue produces nothing until it receives, which the bound of the
  // sender already covers; a rank with no outgoing cut link never sends
  // across ranks.
  SimTime horizon = sat_add(global_min, kMaxSyncWindow);
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const SimTime next = ranks_[r].vortex.next_time();
    if (next == kTimeNever || rank_min_out_[r] == kTimeNever) continue;
    horizon = std::min(horizon, sat_add(next, rank_min_out_[r]));
  }
  if (checkpointing() && config_.checkpoint_period > 0) {
    // The window ends at the armed period mark, so the snapshot cut at
    // the next barrier holds exactly the events below it.
    horizon = std::min(horizon, ckpt_next_mark_);
  }
  return std::min(horizon, sat_add(config_.end_time, 1));
}

void Simulation::complete_window() noexcept {
  ++run_stats_.sync_windows;
  const SimTime global_min = next_window_start();
  if (global_min == kTimeNever) {
    window_done_ = true;
    return;
  }
  // The checkpoint decision comes first: it advances the period mark
  // that every horizon from here on (the next window's, and the span end
  // a migration traces) is capped at.
  const bool snapshot = checkpointing() && checkpoint_due(global_min, true);
  // Rebalance check — before the horizon is computed: a migration moves
  // pending events and cut links between ranks, and the next horizon
  // must honour both to stay causal.  The epoch counter advances on
  // sync windows only, whose boundaries are a pure function of the
  // event times.
  if (rebalance_ctl_ != nullptr &&
      ++rebalance_epoch_ >= rebalance_ctl_->config().period) {
    rebalance_epoch_ = 0;
    maybe_rebalance(global_min);
    if (!rebalance_error_.empty()) {
      window_done_ = true;
      return;
    }
  }
  horizon_ = next_horizon(global_min);
  record_window(global_min);
  // Safe point: every rank thread is parked in the barrier and the
  // mailboxes are drained, so the global state is a consistent cut.
  // Runs after the window's observability so the snapshot carries this
  // window's records.
  if (snapshot) take_checkpoint();
}

void Simulation::record_window(SimTime global_min) {
  if (tracer_ && config_.trace_engine) {
    tracer_->record_window(global_min, horizon_, run_stats_.sync_windows);
  }
  if (!config_.profile_engine || engine_stats_.empty()) return;
  // Per-rank events retired this epoch, and the epoch imbalance ratio
  // (max/mean) — what the rebalance controller sees, visible without
  // tracing.
  std::uint64_t epoch_max = 0;
  std::uint64_t epoch_total = 0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const std::uint64_t d = ranks_[r].events - rank_epoch_mark_[r];
    epoch_total += d;
    if (d > epoch_max) epoch_max = d;
  }
  const double epoch_imbalance =
      epoch_total == 0 ? 0.0
                       : static_cast<double>(epoch_max) *
                             static_cast<double>(ranks_.size()) /
                             static_cast<double>(epoch_total);
  if (imbalance_stat_ != nullptr && epoch_total > 0) {
    imbalance_stat_->add(epoch_imbalance);
  }
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& rs = ranks_[r];
    const std::uint64_t epoch_events = rs.events - rank_epoch_mark_[r];
    rank_epoch_mark_[r] = rs.events;
    engine_stats_[r].vortex_depth->add(static_cast<double>(rs.vortex.size()));
    if (metrics_) {
      std::string payload =
          "{\"events\":" + std::to_string(rs.events) +
          ",\"epoch_events\":" + std::to_string(epoch_events) +
          ",\"imbalance\":" + obs::json_number(epoch_imbalance) +
          ",\"vortex_depth\":" + std::to_string(rs.vortex.size()) +
          ",\"mailbox_received\":" + std::to_string(rs.mailbox_received) +
          ",\"barrier_wait_s\":" + obs::json_number(rs.barrier_wait_seconds) +
          ",\"release_s\":" +
          obs::json_number(rs.barrier_release_seconds) + "}";
      metrics_->record_engine(static_cast<RankId>(r), global_min,
                              std::move(payload));
    }
  }
}

// ---------------------------------------------------------------------
// Checkpointing (writer lives in src/ckpt; cadence and watchdog
// suspension live here so every rank count cuts at the same events)
// ---------------------------------------------------------------------

void Simulation::set_checkpoint_writer(
    std::function<void(Simulation&)> writer) {
  ckpt_writer_ = std::move(writer);
}

// ---------------------------------------------------------------------
// Online rebalancing
// ---------------------------------------------------------------------

void Simulation::maybe_rebalance(SimTime global_min) {
  // Runs inside the (noexcept) barrier completion, single-threaded, with
  // every mailbox drained — the same safe point checkpoints use.  Any
  // failure parks in rebalance_error_; run_windows rethrows it.
  try {
    std::vector<std::uint64_t> rank_events(config_.num_ranks, 0);
    std::vector<ComponentLoad> loads(components_.size());
    for (std::size_t c = 0; c < components_.size(); ++c) {
      loads[c].comp = static_cast<ComponentId>(c);
      loads[c].rank = components_[c]->rank_;
      loads[c].events = comp_epoch_events_[c];
      rank_events[loads[c].rank] += loads[c].events;
    }
    const std::vector<MigrationDecision> moves = rebalance_ctl_->plan(loads);
    if (!moves.empty()) {
      const double before = RebalanceController::imbalance(rank_events);
      for (const MigrationDecision& m : moves) {
        components_[m.comp]->rank_ = m.to;
        rank_events[m.from] -= comp_epoch_events_[m.comp];
        rank_events[m.to] += comp_epoch_events_[m.comp];
      }
      migrate();
      const double after = RebalanceController::imbalance(rank_events);
      ++rebalances_;
      comps_migrated_ += moves.size();
      if (rebalance_count_stat_ != nullptr) {
        rebalance_count_stat_->add(1);
        rebalance_moved_stat_->add(moves.size());
        imb_before_stat_->add(before);
        imb_after_stat_->add(after);
      }
      if (tracer_ && config_.trace_engine) {
        // One span per move on the engine track, spanning the barrier's
        // sync point to the first horizon the new partition computes.
        const SimTime span_end = next_horizon(global_min);
        for (const MigrationDecision& m : moves) {
          tracer_->record_migration(global_min, span_end, m.comp, m.from,
                                    m.to);
        }
      }
      if (config_.verbose) {
        std::cerr << "[sst] rebalance @" << global_min << "ps: moved "
                  << moves.size() << " component(s), imbalance " << before
                  << " -> " << after << "\n";
      }
    }
    // Each period is measured independently: reset the counters whether
    // or not anything moved.
    std::fill(comp_epoch_events_.begin(), comp_epoch_events_.end(), 0);
  } catch (const std::exception& e) {
    rebalance_error_ = e.what();
  }
}

void Simulation::migrate() {
  // Clock handlers whose component moved leave their clock, each keeping
  // its side of the metrics sampler.  A clock left without handlers
  // parks its tick, as one whose last handler unregistered does, so no
  // empty dispatch runs.
  struct Moved {
    SimTime period;
    Cycle cycle;
    bool after_sampler;
    Clock::Handler handler;
  };
  std::vector<Moved> moved;
  for (RankId r = 0; r < ranks_.size(); ++r) {
    for (auto& [period, clock] : ranks_[r].clocks) {
      auto& hs = clock->handlers_;
      const std::size_t before = moved.size();
      bool after_sampler = false;
      for (std::size_t i = 0; i < hs.size();) {
        const ComponentId c = hs[i].comp;
        if (c == kInvalidComponent) after_sampler = true;
        if (c == kInvalidComponent || components_[c]->rank_ == r) {
          ++i;
          continue;
        }
        if (!clock->scheduled_) {
          throw SimulationError(
              "migrate: clock of period " + std::to_string(period) +
              "ps has handlers but no pending tick (engine bug)");
        }
        moved.push_back(
            {period, clock->cycle_, after_sampler, std::move(hs[i])});
        hs.erase(hs.begin() + static_cast<std::ptrdiff_t>(i));
      }
      if (moved.size() > before && hs.empty()) clock->disarm();
    }
  }
  for (Moved& m : moved) {
    place_handler(m.period, std::move(m.handler), m.after_sampler, m.cycle);
  }
  // Pending deliveries follow their target.  Keys are unique, so the
  // order they are re-queued in does not matter.
  for (RankId r = 0; r < ranks_.size(); ++r) {
    for (EventPtr& ev : ranks_[r].vortex.extract_if([this, r](LinkId id) {
           return id < Event::kClockSourceBase &&
                  components_[link_target_[id]]->rank_ != r;
         })) {
      place_event(std::move(ev));
    }
  }
  refresh_partition();
}

void Simulation::place_handler(SimTime period, Clock::Handler h,
                               bool after_sampler, Cycle cycle) {
  Clock& clock = *get_clock(components_[h.comp]->rank_, period);
  auto& hs = clock.handlers_;
  auto at = hs.end();
  if (!after_sampler) {
    at = std::find_if(hs.begin(), hs.end(), [](const Clock::Handler& x) {
      return x.comp == kInvalidComponent;
    });
  }
  hs.insert(at, std::move(h));
  if (!clock.scheduled_) {
    clock.schedule_next((cycle - 1) * period);  // arms `cycle`
  } else if (clock.cycle_ != cycle) {
    throw SimulationError("clock of period " + std::to_string(period) +
                          "ps is pending at cycle " +
                          std::to_string(clock.cycle_) + ", not " +
                          std::to_string(cycle) + " (engine bug)");
  }
}

bool Simulation::checkpoint_due(SimTime t, bool check_wall) {
  if (config_.checkpoint_period > 0) {
    const SimTime period = config_.checkpoint_period;
    if (ckpt_next_mark_ == kTimeNever) {
      // First event time seen this run arms the first period mark.  A
      // restarted run sees the same first event the uninterrupted run
      // saw right after its checkpoint, so both compute the same mark.
      ckpt_next_mark_ = (t / period + 1) * period;
    } else if (t >= ckpt_next_mark_) {
      ckpt_next_mark_ = (t / period + 1) * period;
      return true;
    }
  }
  if (check_wall && config_.checkpoint_wall > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - ckpt_last_wall_).count() >=
        config_.checkpoint_wall) {
      return true;
    }
  }
  return false;
}

void Simulation::take_checkpoint() noexcept {
  // The count is bumped before capture so the snapshot includes its own
  // occurrence: a restarted run then continues the sequence instead of
  // recounting the checkpoint it resumed from.
  ++ckpt_taken_;
  if (ckpt_count_stat_ != nullptr) ckpt_count_stat_->add(1);
  ckpt_writing_.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ckpt_writer_(*this);
  } catch (const std::exception& e) {
    std::cerr << "[sst] checkpoint write failed (run continues): " << e.what()
              << "\n";
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  ckpt_write_seconds_ += 1e-9 * static_cast<double>(ns);
  ckpt_pause_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                           std::memory_order_relaxed);
  ckpt_writing_.store(false, std::memory_order_release);
  ckpt_last_wall_ = t1;
  if (ckpt_write_stat_ != nullptr) {
    ckpt_write_stat_->add(1e-9 * static_cast<double>(ns));
  }
  if (config_.verbose) {
    std::cerr << "[sst] checkpoint " << ckpt_taken_ << " written in "
              << (1e-9 * static_cast<double>(ns)) << "s\n";
  }
}

std::string Simulation::diagnostic_report(const std::string& reason) const {
  std::string out = reason + "\n";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& rank = ranks_[r];
    out += "  rank " + std::to_string(r) + ": t=" + std::to_string(rank.now) +
           "ps, " + std::to_string(rank.vortex.size()) +
           " pending events, " + std::to_string(rank.events) + " processed\n";
  }
  std::vector<const Component*> blocked;
  for (const auto& c : components_) {
    if (c->is_primary_ && !c->said_ok_) blocked.push_back(c.get());
  }
  if (!blocked.empty()) {
    out += "  blocked primary components (" + std::to_string(blocked.size()) +
           "):\n";
    std::size_t shown = 0;
    for (const Component* c : blocked) {
      if (++shown > 16) {
        out += "    ... and " + std::to_string(blocked.size() - 16) +
               " more\n";
        break;
      }
      out += "    '" + c->name() + "' on rank " + std::to_string(c->rank_) +
             "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Observability (src/obs)
// ---------------------------------------------------------------------

/// Resolves the construction-time ids buffered in trace/metrics records
/// to component and port names at write time.
class Simulation::ObsResolver final : public obs::TraceResolver {
 public:
  explicit ObsResolver(const Simulation& sim) : sim_(sim) {}

  [[nodiscard]] ComponentId delivery_target(LinkId link) const override {
    const Link* l = sim_.links_[link].get();
    return l->peer_ != nullptr ? l->peer_->owner_ : l->owner_;
  }

  [[nodiscard]] std::string delivery_label(LinkId link) const override {
    const Link* l = sim_.links_[link].get();
    const Link* dst = l->peer_ != nullptr ? l->peer_ : l;
    return sim_.components_[dst->owner_]->name() + "." + dst->port_;
  }

  [[nodiscard]] std::string component_name(ComponentId comp) const override {
    return sim_.components_[comp]->name();
  }

  [[nodiscard]] std::size_t component_count() const override {
    return sim_.components_.size();
  }

 private:
  const Simulation& sim_;
};

void Simulation::setup_observability() {
  if (config_.trace || !config_.trace_path.empty()) {
    tracer_ = std::make_unique<obs::Tracer>(config_.num_ranks);
    tracer_->set_include_engine(config_.trace_engine);
  }
  if (config_.metrics || !config_.metrics_path.empty()) {
    if (config_.metrics_period == 0) {
      throw ConfigError("metrics_period must be >= 1ps");
    }
    if (config_.end_time == kTimeNever &&
        primary_count_.load(std::memory_order_acquire) == 0) {
      throw ConfigError(
          "metrics sampling requires an end_time or primary components "
          "(the sampling clock would otherwise keep the simulation alive "
          "forever)");
    }
    metrics_ = std::make_unique<obs::MetricsCollector>(config_.num_ranks);
    metrics_->set_include_engine(config_.profile_engine);
    // One sampling clock per rank, including ranks that own nothing yet
    // (a migration may move components there).  Each handler snapshots
    // only its own rank's components, so parallel sampling is race-free
    // and the merged stream matches the serial one exactly; every
    // sampler ticks at the same times, so no window boundary moves.
    for (RankId r = 0; r < config_.num_ranks; ++r) {
      get_clock(r, config_.metrics_period)
          ->add_handler(kInvalidComponent, [this, r](Cycle) {
            sample_metrics(r);
            return false;
          });
    }
  }
  if (config_.profile_engine && config_.num_ranks > 1) {
    // One sample per sync epoch that retired events: the per-rank
    // event-rate imbalance (max/mean) — the quantity the rebalance
    // controller thresholds on, observable without tracing.
    imbalance_stat_ =
        stats_.create<Accumulator>("engine.sync", "imbalance_ratio");
  }
  if (config_.profile_engine && config_.num_ranks > 1 && config_.rebalance) {
    rebalance_count_stat_ =
        stats_.create<Counter>("engine.rebalance", "migrations");
    rebalance_moved_stat_ =
        stats_.create<Counter>("engine.rebalance", "components_moved");
    imb_before_stat_ =
        stats_.create<Accumulator>("engine.rebalance", "imbalance_before");
    imb_after_stat_ =
        stats_.create<Accumulator>("engine.rebalance", "imbalance_after");
  }
  if (config_.profile_engine) {
    engine_stats_.resize(config_.num_ranks);
    for (RankId r = 0; r < config_.num_ranks; ++r) {
      const std::string comp = "engine.rank" + std::to_string(r);
      EngineStats& es = engine_stats_[r];
      es.events = stats_.create<Counter>(comp, "events_processed");
      es.mailbox = stats_.create<Counter>(comp, "mailbox_received");
      es.pool_allocs = stats_.create<Counter>(comp, "tick_pool_allocs");
      es.pool_recycles = stats_.create<Counter>(comp, "tick_pool_recycles");
      es.exchange_flushes =
          stats_.create<Counter>(comp, "exchange_flushes");
      es.vortex_depth = stats_.create<Accumulator>(comp, "vortex_depth");
      es.barrier_wait =
          stats_.create<Accumulator>(comp, "barrier_wait_seconds");
      es.barrier_release =
          stats_.create<Accumulator>(comp, "barrier_release_seconds");
      es.events_per_sec = stats_.create<Accumulator>(comp, "events_per_sec");
    }
    if (config_.checkpoint_period > 0 || config_.checkpoint_wall > 0) {
      // Checkpoint pause/resume window: how often the run was paused to
      // snapshot, and for how long (wall time the watchdog was credited).
      ckpt_count_stat_ = stats_.create<Counter>("engine.ckpt", "checkpoints");
      ckpt_write_stat_ =
          stats_.create<Accumulator>("engine.ckpt", "write_seconds");
    }
  }
}

void Simulation::build_metrics_index() {
  metrics_stats_.assign(components_.size(), {});
  for (const auto& s : stats_.all()) {
    auto it = component_names_.find(s->component());
    if (it == component_names_.end()) continue;  // engine.rankN etc.
    metrics_stats_[it->second].push_back(s.get());
  }
}

void Simulation::sample_metrics(RankId rank) {
  const SimTime t = ranks_[rank].now;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (components_[c]->rank_ != rank) continue;
    const auto& list = metrics_stats_[c];
    if (list.empty()) continue;
    std::string payload = "{";
    bool first = true;
    for (const Statistic* s : list) {
      if (!first) payload += ",";
      first = false;
      payload += "\"" + obs::json_escape(s->name()) + "\":{";
      bool first_field = true;
      for (const auto& f : s->fields()) {
        if (!first_field) payload += ",";
        first_field = false;
        payload +=
            "\"" + obs::json_escape(f.name) + "\":" + obs::json_number(f.value);
      }
      payload += "}";
    }
    payload += "}";
    metrics_->record(rank, t, static_cast<ComponentId>(c),
                     std::move(payload));
  }
}

void Simulation::finalize_engine_stats(double wall_seconds) {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    // Fold the rank's tick-pool traffic into its engine.rankN counters.
    std::uint64_t allocs = 0;
    std::uint64_t recycles = 0;
    for (const auto& [period, clock] : ranks_[r].clocks) {
      allocs += clock->tick_allocs();
      recycles += clock->tick_recycles();
    }
    EngineStats& es = engine_stats_[r];
    es.events->add(ranks_[r].events);
    es.mailbox->add(ranks_[r].mailbox_received);
    es.pool_allocs->add(allocs);
    es.pool_recycles->add(recycles);
    es.exchange_flushes->add(ranks_[r].outbox_flushes);
    es.barrier_wait->add(ranks_[r].barrier_wait_seconds);
    es.barrier_release->add(ranks_[r].barrier_release_seconds);
    if (wall_seconds > 0) {
      es.events_per_sec->add(static_cast<double>(ranks_[r].events) /
                             wall_seconds);
    }
  }
}

void Simulation::flush_observability(bool nothrow) {
  auto write_file = [&](const std::string& path, const char* what,
                        auto&& writer) {
    if (path.empty()) return;
    std::ofstream f(path, std::ios::binary);
    if (!f) {
      if (nothrow) {
        std::cerr << "[sst] cannot open " << what << " output '" << path
                  << "'\n";
        return;
      }
      throw SimulationError("cannot open " + std::string(what) +
                            " output '" + path + "'");
    }
    writer(f);
    if (!f && !nothrow) {
      throw SimulationError("error writing " + std::string(what) +
                            " output '" + path + "'");
    }
  };
  if (tracer_) {
    write_file(config_.trace_path, "trace",
               [this](std::ostream& os) { write_trace_json(os); });
  }
  if (metrics_) {
    write_file(config_.metrics_path, "metrics",
               [this](std::ostream& os) { write_metrics_jsonl(os); });
  }
}

void Simulation::trace_clock_dispatch(RankId rank, SimTime t,
                                      ComponentId comp, Cycle cycle) {
  tracer_->record_clock(rank, t, comp, cycle);
}

void Simulation::trace_marker(RankId rank, SimTime t, ComponentId comp,
                              std::uint64_t seq, const std::string& name,
                              const std::string& detail) {
  tracer_->record_marker(rank, t, comp, seq, name, detail);
}

void Simulation::write_trace_json(std::ostream& os) const {
  if (!tracer_) {
    throw ConfigError("tracing was not enabled (SimConfig::trace)");
  }
  ObsResolver resolver(*this);
  tracer_->write_json(os, resolver);
}

void Simulation::write_metrics_jsonl(std::ostream& os) const {
  if (!metrics_) {
    throw ConfigError("metrics were not enabled (SimConfig::metrics)");
  }
  ObsResolver resolver(*this);
  metrics_->write_jsonl(os, resolver);
}

void Simulation::finish_components() {
  for (auto& c : components_) c->finish();
  // Flag probable configuration mistakes: no events at all usually means
  // the model graph was wired but never started.
  if (config_.verbose) {
    std::uint64_t total = 0;
    for (const auto& r : ranks_) total += r.events;
    if (total == 0) {
      std::cerr << "[sst] warning: simulation processed zero events\n";
    }
  }
}

}  // namespace sst
