// Simulation: owns the component graph and drives the discrete-event
// engine.
//
// Execution model — an in-process reproduction of SST's MPI-rank-based
// conservative PDES, with one event loop for every rank count:
//   * components are partitioned across R ranks (threads); a serial run
//     is the R = 1 case, which starts no thread;
//   * each rank runs its own TimeVortex;
//   * events on links that cross ranks are exchanged through mailboxes;
//   * link latency is the lookahead: rank r cannot affect another rank
//     before its next event time plus the minimum latency of its
//     outgoing cross-rank links, so every rank may safely process all
//     events earlier than the minimum of that bound over the ranks (the
//     window horizon, see next_horizon) before the next synchronization;
//   * every event pops in one total order, (time, priority, source link,
//     source sequence), whatever order the mailboxes delivered it in, so
//     results are bit-identical regardless of thread interleaving and
//     rank count, up to window-quantized primary termination at R > 1.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/component.h"
#include "core/link.h"
#include "core/statistics.h"
#include "core/rebalance.h"
#include "core/time_vortex.h"
#include "core/types.h"

namespace sst {

namespace obs {
class Tracer;
class MetricsCollector;
}  // namespace obs

namespace ckpt {
class CheckpointEngine;
}  // namespace ckpt

/// The event loop polls the watchdog flag once every kEnginePollInterval
/// events, so the hot path pays one AND-and-branch instead of an atomic
/// load per event.  Power of two; kEnginePollMask is the corresponding
/// `(steps & mask) == 0` mask.
inline constexpr std::uint64_t kEnginePollInterval = 1024;
inline constexpr std::uint64_t kEnginePollMask = kEnginePollInterval - 1;

/// How components are assigned to ranks when no explicit rank is given.
enum class PartitionStrategy {
  kLinear,      // contiguous blocks by creation order
  kRoundRobin,  // id % num_ranks
  kMinCut,      // BFS-grown blocks over the link graph (fewer cut links)
};

struct SimConfig {
  /// Number of partitions (in-process ranks).  1 runs the same windowed
  /// event loop on the calling thread alone.
  unsigned num_ranks = 1;
  /// Hard stop time; kTimeNever runs until the termination protocol fires.
  SimTime end_time = kTimeNever;
  /// Global seed feeding every component RNG stream.
  std::uint64_t seed = 1;
  PartitionStrategy partition = PartitionStrategy::kLinear;
  /// Print engine progress/diagnostics to stderr.
  bool verbose = false;
  /// Seed for fault-injection RNG streams (src/fault); 0 = reuse `seed`.
  /// Kept separate so fault scenarios can be varied without perturbing the
  /// workload's own random behaviour.
  std::uint64_t fault_seed = 0;
  /// Wall-clock budget for run() in seconds; 0 disables the watchdog.
  /// On expiry the run stops and throws a SimulationError carrying a
  /// per-rank diagnostic report instead of hanging forever.
  double watchdog_seconds = 0.0;

  // --- online rebalancing (rebalance.h) -------------------------------
  /// Migrate components across ranks at sync barriers when the measured
  /// per-rank event-rate imbalance crosses rebalance_threshold.  The
  /// decision function is deterministic (epoch event counts + component
  /// ids only), and a migration is invisible to the model — runs stay
  /// byte-identical to their non-rebalanced selves at every rank count.
  /// The engine moves components itself.  Ignored serially.
  bool rebalance = false;
  /// Fire when max/mean per-rank epoch event rate reaches this ratio.
  double rebalance_threshold = 1.5;
  /// Sync epochs between imbalance checks.
  std::uint64_t rebalance_period = 8;
  /// Components migrated per rebalance at most.
  std::uint32_t rebalance_max_moves = 8;

  // --- observability (src/obs) ---------------------------------------
  /// Enable the event tracer (implied when trace_path is set).  The
  /// default trace records only model-level activity and is byte-identical
  /// at any rank count.
  bool trace = false;
  /// Write Chrome trace-event JSON here at the end of run() ("" = don't).
  std::string trace_path;
  /// Also record rank-dependent engine spans (sync windows) in the trace.
  /// Opt-in because it breaks the rank-count byte-identity.
  bool trace_engine = false;
  /// Enable periodic metrics snapshots (implied when metrics_path is set).
  bool metrics = false;
  /// Write JSONL metrics snapshots here at the end of run() ("" = don't).
  std::string metrics_path;
  /// Simulated-time period between metrics snapshots.
  SimTime metrics_period = kMillisecond;
  /// Engine self-profiling: per-rank engine.rankN statistics (events
  /// processed, TimeVortex depth, mailbox traffic, barrier wait) plus
  /// per-rank engine lines in the metrics stream.  Opt-in because the
  /// values are inherently rank-count-dependent.
  bool profile_engine = false;
  /// Stats output destination and format for tools ("" = tool default;
  /// format is "console", "csv", or "json").  The engine itself does not
  /// write these — sstsim honours them after run().
  std::string stats_path;
  std::string stats_format;

  // --- checkpointing (src/ckpt) --------------------------------------
  /// Simulated-time cadence between checkpoints; 0 disables the
  /// simulated-time trigger.  Windows end at each period mark, so a
  /// snapshot holds exactly the events below its mark at every rank
  /// count, and any period >= 1ps is honoured.
  SimTime checkpoint_period = 0;
  /// Wall-clock cadence between checkpoints in seconds; 0 disables the
  /// wall-clock trigger.  Either trigger may be used alone or combined.
  double checkpoint_wall = 0.0;
  /// Directory receiving checkpoint files (created on demand).
  std::string checkpoint_dir = "ckpt";
  /// Rotating retention: only the newest K checkpoint files are kept.
  unsigned checkpoint_keep = 3;
};

/// Engine-level metrics from a completed run (used by the PDES scaling
/// experiments and by tests).
struct RunStats {
  std::uint64_t events_processed = 0;  // summed across ranks
  std::uint64_t clock_ticks = 0;       // clock dispatches across ranks
  std::uint64_t sync_windows = 0;      // barrier rounds (any rank count)
  std::uint64_t cross_rank_events = 0; // events that crossed a partition
  SimTime final_time = 0;              // simulated time at termination
  double wall_seconds = 0.0;
  std::uint64_t cut_links = 0;         // link endpoints crossing ranks
  SimTime lookahead = 0;               // min cut-link latency, <= 10us
  std::uint64_t checkpoints = 0;       // snapshots written this run
  double checkpoint_seconds = 0.0;     // wall time spent writing them
  std::uint64_t pool_allocs = 0;       // fresh clock-tick allocations
  std::uint64_t pool_recycles = 0;     // tick events reused from the pool
  std::uint64_t exchange_flushes = 0;  // batched cross-rank buffer flushes
  std::uint64_t rebalances = 0;        // rebalance passes that moved >= 1
  std::uint64_t components_migrated = 0;  // cross-rank component moves
  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(events_processed) /
                                  wall_seconds
                            : 0.0;
  }
};

/// Prints the run's one-line summary, "done: t=<ps> ps, <N> events, <s> s
/// wall (<r> events/s)": sstsim ends every run with it, and sweep workers
/// write it to each point's run.log.
void print_done_line(std::ostream& os, const RunStats& stats);

class Simulation {
 public:
  explicit Simulation(SimConfig config = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- construction phase -------------------------------------------

  /// Creates a component.  T's constructor runs with this Simulation as
  /// its build context, so the component may configure links, clocks, and
  /// statistics immediately.
  template <typename T, typename... Args>
  T* add_component(const std::string& name, Args&&... args) {
    begin_component(name);
    std::unique_ptr<Component> comp;
    try {
      comp = std::make_unique<T>(std::forward<Args>(args)...);
    } catch (...) {
      abort_component();
      throw;
    }
    return static_cast<T*>(end_component(std::move(comp)));
  }

  /// Connects two declared ports with the given latency (both directions).
  void connect(const std::string& comp_a, const std::string& port_a,
               const std::string& comp_b, const std::string& port_b,
               SimTime latency_ps);

  /// Connection with distinct per-direction latencies:
  /// latency_a_to_b applies to events sent from comp_a's endpoint.
  void connect(const std::string& comp_a, const std::string& port_a,
               const std::string& comp_b, const std::string& port_b,
               SimTime latency_a_to_b, SimTime latency_b_to_a);

  /// Pins a component to a rank (overrides the partitioner).
  void set_component_rank(const std::string& name, RankId rank);

  /// Installs a fault-injection hook on the sending side of
  /// (component, port).  Models hold private RNG state and must not be
  /// shared between endpoints; to fault both directions of a link install
  /// one model per endpoint.  Must be called before run().
  void install_link_fault(const std::string& component,
                          const std::string& port,
                          std::unique_ptr<LinkFault> fault);

  /// Seed that fault models should derive their streams from
  /// (config().fault_seed, falling back to config().seed when unset).
  [[nodiscard]] std::uint64_t effective_fault_seed() const {
    return config_.fault_seed != 0 ? config_.fault_seed : config_.seed;
  }

  /// Wires links, partitions, runs init phases and setup().  Called
  /// automatically by run() when needed; idempotent.
  void initialize();

  // ---- run phase ----------------------------------------------------

  /// Runs to completion; returns engine metrics.
  RunStats run();

  /// True once run() finished.
  [[nodiscard]] bool finished() const { return state_ == State::kDone; }

  // ---- queries ------------------------------------------------------

  [[nodiscard]] Component* find_component(const std::string& name) const;
  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] StatisticsRegistry& stats() { return stats_; }
  [[nodiscard]] const StatisticsRegistry& stats() const { return stats_; }
  [[nodiscard]] const RunStats& run_stats() const { return run_stats_; }

  /// Current time of a rank (what Component::now() reports).
  [[nodiscard]] SimTime rank_now(RankId r) const { return ranks_[r].now; }
  /// Current time of rank 0 — convenience for serial simulations.
  [[nodiscard]] SimTime now() const { return ranks_[0].now; }

  /// Parses a time string to picoseconds ("10ns" -> 10000).
  [[nodiscard]] static SimTime time(std::string_view text);

  /// Rank assignment of each component (valid after initialize()).
  [[nodiscard]] RankId component_rank(ComponentId id) const;

  // ---- observability ------------------------------------------------

  /// True when the event tracer is active for this run.
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }
  /// True when periodic metrics snapshots are being collected.
  [[nodiscard]] bool metrics_enabled() const { return metrics_ != nullptr; }

  /// Writes the merged Chrome trace-event JSON (requires tracing()).
  void write_trace_json(std::ostream& os) const;
  /// Writes the merged metrics snapshot stream (requires metrics_enabled()).
  void write_metrics_jsonl(std::ostream& os) const;

  // ---- checkpointing (src/ckpt) -------------------------------------

  /// Installs the checkpoint writer callback.  The engine invokes it
  /// inside the window barrier (every rank parked, every mailbox drained)
  /// whenever the configured simulated-time or wall-clock cadence is due;
  /// the simulated-time trigger fires at the window that ends at its
  /// period mark.  Writer failures are reported to stderr and the run
  /// continues.  Installed by ckpt::install_writer().
  void set_checkpoint_writer(std::function<void(Simulation&)> writer);

  /// True when a checkpoint writer is installed.
  [[nodiscard]] bool checkpointing() const {
    return static_cast<bool>(ckpt_writer_);
  }

 private:
  friend class Component;
  friend class Link;
  friend class Clock;
  friend class ckpt::CheckpointEngine;  // captures/overlays engine state

  enum class State { kBuilding, kInitialized, kRunning, kDone };

  struct Connection {
    std::string comp_a, port_a, comp_b, port_b;
    SimTime latency_ab, latency_ba;
  };

  struct RankState {
    TimeVortex vortex;
    // This rank's clocks by period.  A component registers on its own
    // rank's thread, so a clock made mid-run touches no other rank's map.
    std::map<SimTime, std::unique_ptr<Clock>> clocks;
    SimTime now = 0;
    std::uint64_t events = 0;
    // Incoming cross-rank events, locked by senders.
    std::mutex mailbox_mutex;
    std::vector<EventPtr> mailbox;
    // Outbound cross-rank staging, one buffer per destination rank, sized
    // by the constructor.  Filled lock-free by this rank's thread while a
    // window runs (and by setup()); flushed with one mailbox lock per
    // destination at the after_send barrier and before the first window.
    // Buffers keep their capacity across windows.
    std::vector<std::vector<EventPtr>> outbox;
    // drain_mailbox swaps the mailbox into this scratch vector under the
    // lock, so both vectors' capacities ping-pong between windows instead
    // of being reallocated every drain.
    std::vector<EventPtr> drain_scratch;
    std::uint64_t outbox_flushes = 0;  // non-empty per-destination flushes
    // Self-profiler gauges (mailbox count is always maintained — one add
    // per drain; barrier wait is measured under profile_engine only).
    std::uint64_t mailbox_received = 0;
    double barrier_wait_seconds = 0.0;
    // The part of barrier_wait_seconds after the last rank arrived.
    double barrier_release_seconds = 0.0;
  };

  // Component construction context.
  [[nodiscard]] std::string components_raw_name(ComponentId id) const;
  void begin_component(const std::string& name);
  Component* end_component(std::unique_ptr<Component> comp);
  void abort_component();
  static Simulation*& build_context();

  // Called by Component.
  Link* create_link(ComponentId owner, std::string_view port,
                    EventHandler handler, bool polling, bool optional);
  Link* create_self_link(ComponentId owner, std::string_view name,
                         SimTime latency, EventHandler handler);
  Clock* get_clock(RankId rank, SimTime period);
  void register_component_clock(ComponentId comp, SimTime period,
                                ClockHandler handler);
  void note_primary() { ++primary_count_; }
  void note_primary_ok() {
    ++primary_ok_count_;
    // A one-rank run stops right after the handler that completes the
    // set: closing the open window ends rank_process_until before the
    // next event.  With more ranks termination is a vote at the barrier.
    if (config_.num_ranks == 1 && primaries_done()) horizon_ = 0;
  }

  // Called by Link / Clock on every send — defined inline so the whole
  // send -> vortex-insert chain compiles into the caller.
  void schedule(RankId src_rank, RankId dst_rank, EventPtr ev) {
    if (src_rank == dst_rank) {
      ranks_[dst_rank].vortex.insert(std::move(ev));
      return;
    }
    // We are on src_rank's thread (or in setup()): stage locally, no
    // lock.  The whole buffer moves to dst's mailbox under one lock in
    // flush_outbox() at the end of the window (or before the first one).
    ranks_[src_rank].outbox[dst_rank].push_back(std::move(ev));
  }
  void schedule_local(RankId rank, EventPtr ev) {
    ranks_[rank].vortex.insert(std::move(ev));
  }
  [[nodiscard]] bool in_init_phase() const { return init_phase_active_; }
  void note_init_data_sent() { init_data_sent_ = true; }

  // Engine internals.
  void wire_links();
  /// Recomputes everything wire_links derives from component ranks (link
  /// owner/peer ranks, cut-link count, per-rank min out-latency) after
  /// migrations changed the partition.  Runs at the sync barrier while
  /// every rank thread is parked.
  void refresh_partition();
  /// Rebalance check at the sync barrier (single-threaded, before the
  /// next horizon is computed — a migration moves pending events and cut
  /// links between ranks, and the new window must honour both).  Builds
  /// per-component loads from comp_epoch_events_, asks the
  /// RebalanceController for a plan, sets each planned component's rank
  /// and migrates.
  void maybe_rebalance(SimTime global_min);
  /// Moves the clock handlers and pending deliveries of every component
  /// whose rank changed to that rank, then refreshes the partition.
  /// Link objects never move, so no handler pointer changes.  Throws
  /// SimulationError on a violated engine invariant.
  void migrate();
  // The placement rule migration and checkpoint restore share: a
  // component's rank decides the clock its handlers join and the vortex
  // its pending deliveries wait in.
  /// Puts `h` on the clock of `period` on its component's rank: in front
  /// of the clock's metrics sampler, or at the end when `after_sampler`
  /// or the clock has none.  The clock ticks next at `cycle`: an idle
  /// clock is armed there, and an armed one must agree (every armed
  /// clock of a period shares its pending cycle at a barrier).
  void place_handler(SimTime period, Clock::Handler h, bool after_sampler,
                     Cycle cycle);
  /// Queues a pending delivery in the vortex of its target's rank.
  void place_event(EventPtr ev) {
    const ComponentId target = link_target_[ev->link_id_];
    ranks_[components_[target]->rank_].vortex.insert(std::move(ev));
  }
  void assign_ranks();
  void assign_ranks_mincut();
  void run_init_phases();
  /// The event loop for every rank count: rank 0 runs on the calling
  /// thread, ranks 1..R-1 on one thread each.
  void run_windows();
  // Window steps.  Each runs single-threaded: before the worker threads
  // start, or inside the barrier completion while every rank thread is
  // parked and every mailbox is drained.
  /// Earliest pending event time over all ranks, or kTimeNever when the
  /// run is over (watchdog fired, primaries done, queues drained, or the
  /// next event lies past end_time — the rank clocks then stop there).
  [[nodiscard]] SimTime next_window_start();
  /// Exact causal horizon of the window starting at `global_min`:
  /// min over ranks r with pending events and outgoing cut links of
  /// (next event time of r + rank_min_out_[r]), capped at
  /// global_min + kMaxSyncWindow, at the armed checkpoint mark and at
  /// end_time + 1.
  [[nodiscard]] SimTime next_horizon(SimTime global_min) const;
  /// Per-window engine observability: trace span, profile stats and
  /// per-rank metrics lines.
  void record_window(SimTime global_min);
  /// The after_drain barrier completion: counts the window, checks
  /// termination, rebalances, opens the next window and checkpoints.
  void complete_window() noexcept;
  /// Processes rank `me`'s events below horizon_ (re-read after every
  /// event: a one-rank run's primary exit closes the window early).
  void rank_process_until(RankId me);
  void drain_mailbox(RankState& rank);
  /// Moves rank `me`'s staged outbound events into the destination
  /// mailboxes, one lock per non-empty destination buffer.  Called right
  /// before the after_send barrier, so every event is in its mailbox
  /// before any rank drains.
  void flush_outbox(RankId me);
  [[nodiscard]] bool primaries_done() const {
    const auto p = primary_count_.load(std::memory_order_acquire);
    return p > 0 && primary_ok_count_.load(std::memory_order_acquire) >= p;
  }
  void finish_components();

  /// Builds the per-rank diagnostic report (time, pending events, blocked
  /// primaries) attached to watchdog/deadlock SimulationErrors.
  [[nodiscard]] std::string diagnostic_report(const std::string& reason) const;

  // Checkpoint internals.
  /// Whether the simulated-time/wall-clock cadence is due at global next
  /// event time `t`; arms the first period mark lazily so a restarted run
  /// reproduces the uninterrupted run's checkpoint schedule exactly.
  [[nodiscard]] bool checkpoint_due(SimTime t, bool check_wall);
  /// Runs the installed writer, suspending the watchdog for the duration
  /// (the write's wall time is credited back to the budget).  noexcept:
  /// a failed write warns and the run continues.
  void take_checkpoint() noexcept;

  // Observability internals (src/obs).
  class ObsResolver;
  /// Creates the tracer/collector, registers engine sampling clocks and
  /// self-profiler statistics.  Part of initialize().
  void setup_observability();
  /// Maps each component to its registered statistics (done at run()
  /// start, after setup(), so late-registered statistics are included).
  void build_metrics_index();
  /// One metrics snapshot of every stat-bearing component on `rank`
  /// (called from that rank's sampling clock).
  void sample_metrics(RankId rank);
  /// Folds per-rank gauges into the engine.rankN statistics.
  void finalize_engine_stats(double wall_seconds);
  /// Writes trace/metrics files if configured.  `nothrow` swallows I/O
  /// errors (used on the watchdog/deadlock paths so the original error
  /// propagates).
  void flush_observability(bool nothrow);
  // Trace hooks (cheap no-ops when tracing is off).
  void trace_clock_dispatch(RankId rank, SimTime t, ComponentId comp,
                            Cycle cycle);
  void trace_marker(RankId rank, SimTime t, ComponentId comp,
                    std::uint64_t seq, const std::string& name,
                    const std::string& detail);

  SimConfig config_;
  State state_ = State::kBuilding;

  std::vector<std::unique_ptr<Component>> components_;
  std::map<std::string, ComponentId, std::less<>> component_names_;
  std::vector<std::unique_ptr<Link>> links_;
  // (component, port) -> link endpoint
  std::map<std::pair<ComponentId, std::string>, Link*> ports_;
  std::vector<Connection> connections_;
  std::map<std::string, RankId, std::less<>> pinned_ranks_;

  std::vector<RankState> ranks_;

  StatisticsRegistry stats_;

  std::atomic<std::uint32_t> primary_count_{0};
  std::atomic<std::uint32_t> primary_ok_count_{0};
  std::atomic<std::uint64_t> cross_rank_events_{0};
  // Set by the watchdog thread; the event loop polls it every 1024 events
  // so the check costs nothing measurable on the hot path.
  std::atomic<bool> watchdog_fired_{false};

  std::uint64_t cut_links_ = 0;
  // Per-rank minimum latency over cross-rank links whose *sending*
  // endpoint lives on that rank (kTimeNever when the rank has none).
  // next_time(r) + rank_min_out_[r] bounds rank r's earliest possible
  // future influence on any other rank (see next_horizon).
  std::vector<SimTime> rank_min_out_;
  RunStats run_stats_;
  // The open window: ranks process events below horizon_ and stop once
  // window_done_ is set.  Written only while the engine is single-threaded
  // (see complete_window; note_primary_ok writes horizon_ only when rank
  // 0's thread is the only one), read by the rank threads after the
  // barrier releases them.
  SimTime horizon_ = 0;
  bool window_done_ = false;

  // Observability state (null unless enabled in SimConfig).
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsCollector> metrics_;
  // Per-component statistics index for metrics sampling.
  std::vector<std::vector<const Statistic*>> metrics_stats_;
  // Self-profiler statistics, one set per rank (profile_engine only).
  struct EngineStats {
    Counter* events = nullptr;
    Counter* mailbox = nullptr;
    Counter* pool_allocs = nullptr;
    Counter* pool_recycles = nullptr;
    Counter* exchange_flushes = nullptr;
    Accumulator* vortex_depth = nullptr;
    Accumulator* barrier_wait = nullptr;
    Accumulator* barrier_release = nullptr;
    Accumulator* events_per_sec = nullptr;
  };
  std::vector<EngineStats> engine_stats_;

  // Clocks registered during construction, created once ranks are known.
  struct PendingClock {
    ComponentId comp;
    SimTime period;
    ClockHandler handler;
  };
  std::vector<PendingClock> pending_clocks_;

  // Checkpoint state (src/ckpt installs the writer; the engine owns the
  // cadence so every rank count cuts at the same events).
  std::function<void(Simulation&)> ckpt_writer_;
  SimTime ckpt_next_mark_ = kTimeNever;  // lazily armed from first event
  std::chrono::steady_clock::time_point ckpt_last_wall_{};
  // Watchdog suspension: wall time spent writing checkpoints is added
  // back to the watchdog budget, and an in-progress write defers expiry.
  std::atomic<std::uint64_t> ckpt_pause_ns_{0};
  std::atomic<bool> ckpt_writing_{false};
  std::uint64_t ckpt_taken_ = 0;
  double ckpt_write_seconds_ = 0.0;
  // Self-profiler statistics for the pause/resume window (profile_engine).
  Counter* ckpt_count_stat_ = nullptr;
  Accumulator* ckpt_write_stat_ = nullptr;

  // Online-rebalancing state.
  std::unique_ptr<RebalanceController> rebalance_ctl_;
  // True while a rebalancing parallel run is in flight: event delivery
  // and clock dispatch attribute per-component epoch counts.  Only
  // toggled while the engine is single-threaded.
  bool rebalance_accounting_ = false;
  // LinkId -> component whose handler the event drives (the receiving
  // endpoint's owner).  Built in wire_links; migration never changes it
  // (Link objects and their owners are immutable — only ranks move).
  std::vector<ComponentId> link_target_;
  // Per-component event counts over the current epoch group.  Each slot
  // is written only by the owning rank's thread during a window and read
  // at the barrier, so no synchronization is needed beyond the barrier
  // itself.  Checkpointed: a resumed run reproduces the migration
  // schedule.
  std::vector<std::uint64_t> comp_epoch_events_;
  // Per-rank events marks from the previous epoch (profile-only: feeds
  // the engine.sync imbalance_ratio stat and metrics JSONL).
  std::vector<std::uint64_t> rank_epoch_mark_;
  // A migration failure detected inside the (noexcept) barrier
  // completion parks here; run_windows rethrows it after the workers
  // join.  An inconsistent partition cannot continue.
  std::string rebalance_error_;
  std::uint64_t rebalance_epoch_ = 0;  // epochs since last check (ckpt'd)
  std::uint64_t rebalances_ = 0;       // passes that moved >= 1 component
  std::uint64_t comps_migrated_ = 0;   // total cross-rank moves
  // engine.rebalance statistics (profile_engine && rebalance && R > 1).
  Counter* rebalance_count_stat_ = nullptr;
  Counter* rebalance_moved_stat_ = nullptr;
  Accumulator* imb_before_stat_ = nullptr;
  Accumulator* imb_after_stat_ = nullptr;
  // engine.sync imbalance_ratio (profile_engine && R > 1).
  Accumulator* imbalance_stat_ = nullptr;

  // Construction bookkeeping.
  std::string pending_name_;
  bool constructing_ = false;
  bool init_phase_active_ = false;
  bool init_data_sent_ = false;
};

}  // namespace sst
