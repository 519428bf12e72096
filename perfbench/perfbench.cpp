// perfbench: the program that measures this repository's performance.
//
// One process, linked against the simulator libraries, runs one named
// workload for a fixed host-time budget and prints every metric by name
// with its unit.  Each repetition calls the public entry point of every
// layer in the order a user's run does -- sdl parse/validate/build, core
// initialize/run, obs stats write; or, for the sweep, the dse spec load,
// run_points and aggregate chain -- and checks the simulated statistics
// against digests recorded per input variant, so every timed repetition
// is known to have simulated exactly the same thing.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --work DIR --sstsim PATH --digests FILE [--git-rev REV]
//   perfbench --record FILE --work DIR --sstsim PATH
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1).  perfbench/README.md documents the workloads,
// the metrics and the layer -> end-to-end metric -> workload table.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "dse/aggregate.h"
#include "dse/ledger.h"
#include "dse/orchestrator.h"
#include "dse/point_gen.h"
#include "dse/sweep_spec.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "obs/json_util.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"
#include "vm/vm_lib.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

namespace {

// --seed selects one of kVariants input variants (seed mod kVariants); the
// variant is the model's RNG seed.  Every variant has a recorded digest,
// so every run, whatever its seed, is checked against a reference.
constexpr std::uint64_t kVariants = 8;
// Set-up-only passes after every repetition, for kSetupShare of its
// duration (at least kSetupPassesMin, at most kSetupPassesMax), so
// setup_s is a median over many samples spread across the whole run: host
// speed drifts within seconds, and passes bunched at one moment of the
// run would sample one moment of it.
constexpr unsigned kSetupPassesMin = 3;
constexpr unsigned kSetupPassesMax = 1000;
constexpr double kSetupShare = 0.05;
// Sweep concurrency: at most two children on a 4-vCPU host.
constexpr unsigned kSweepJobs = 2;
// The host is a shared VM.  While the hypervisor steals CPU time (other
// tenants' load), a 2-thread barrier-bound run slows 2-3x, because every
// sync window waits for both vCPUs.  A repetition during which more than
// this share of the host's CPU time was stolen is "stolen": it is checked
// and counted, but its timings stay out of the metrics.
constexpr double kMaxStealFrac = 0.02;
// While fewer untraced repetitions than this are clean, the run may
// stretch to kContendedBudget x --seconds to wait a contended period out.
constexpr std::size_t kMinCleanReps = 3;
constexpr double kContendedBudget = 1.5;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles by linear interpolation between closest ranks.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.75)};
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Full-precision JSON number: every digit as measured.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent around each public call, kept in
// memory and written once at the end as Chrome trace-event JSON.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 for a root
  int rep = 0;         // repetition the span belongs to
};

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_rep(int rep) { rep_ = rep; }

  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), rep_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_trace(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
       << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"perfbench\"}}";
    for (const Span& s : spans_) {
      const std::string parent =
          s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
      os << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
         << sst::obs::json_number(s.start * 1e6)
         << ",\"dur\":" << sst::obs::json_number((s.end - s.start) * 1e6)
         << ",\"name\":\"" << sst::obs::json_escape(s.name)
         << "\",\"args\":{\"rep\":" << s.rep << ",\"parent\":\""
         << sst::obs::json_escape(parent) << "\"}}";
    }
    os << "\n]}\n";
  }

 private:
  [[nodiscard]] double now() const {
    return seconds_between(epoch_, SteadyClock::now());
  }

  SteadyClock::time_point epoch_ = SteadyClock::now();
  bool enabled_ = false;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one layer call into `out` (always) and records it as a span
/// (when the recorder is enabled).
class Phase {
 public:
  Phase(SpanRecorder& spans, const char* name, double& out)
      : spans_(spans), out_(out), id_(spans.open(name)),
        start_(SteadyClock::now()) {}
  ~Phase() {
    out_ = seconds_between(start_, SteadyClock::now());
    spans_.close(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  SpanRecorder& spans_;
  double& out_;
  int id_;
  SteadyClock::time_point start_;
};

// ---------------------------------------------------------------------------
// Workloads and seeded input generation.

enum class Kind { kSimulation, kSweep };

struct Workload {
  const char* name;
  Kind kind;
  unsigned threads;   // simulation threads (ranks) in the timed process
  unsigned children;  // concurrent child processes
  const char* why;
};

constexpr Workload kWorkloads[] = {
    {"phold_r2", Kind::kSimulation, 2, 0,
     "barrier-bound uniform PHOLD on a 16x16 torus at 2 ranks: ~700 events "
     "per 200ns window, so sync windows and cross-rank exchange dominate"},
    {"hotspot_r2", Kind::kSimulation, 2, 0,
     "moving-hotspot PHOLD on a 32x32 torus at 2 ranks with rebalancing: "
     "dispatch- and imbalance-bound, the only ckpt migration and "
     "1024-component build"},
    {"node_vm", Kind::kSimulation, 1, 0,
     "serial clock-driven core + TLB/page walker + cache/DRAM node: no "
     "synchronization, so it isolates Clock/handler dispatch and the "
     "component models"},
    {"sweep_tlb", Kind::kSweep, 1, kSweepJobs,
     "16-point TLB-geometry sweep through the default fork/exec executor at "
     "2 jobs: the only dse workload, per-point dispatch vs simulation"},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// PHOLD-style torus of net.HotspotPhold nodes (port0/1 in x, port2/3 in
/// y, 200ns links), wired like examples/systems/moving_hotspot.json.
struct TorusModel {
  unsigned size;
  unsigned ranks;
  const char* end_time;
  unsigned service_hops;
  unsigned bias_pct;
  const char* drift_period;
  bool rebalance;
};

std::string torus_sdl(const TorusModel& m, std::uint64_t model_seed) {
  std::ostringstream os;
  os << "{\"config\": {\"seed\": " << model_seed << ", \"end_time\": \""
     << m.end_time << "\", \"num_ranks\": " << m.ranks
     << ", \"partition\": \"mincut\", \"sync_mode\": \"conservative\"";
  if (m.rebalance) {
    os << ", \"rebalance_mode\": \"on\", \"rebalance_threshold\": 1.5, "
          "\"rebalance_period\": 8, \"rebalance_max_moves\": 8";
  }
  os << "},\n\"components\": [\n";
  const unsigned n = m.size;
  for (unsigned y = 0; y < n; ++y) {
    for (unsigned x = 0; x < n; ++x) {
      os << (x + y == 0 ? "" : ",\n") << "{\"name\": \"h" << x << "_" << y
         << "\", \"type\": \"net.HotspotPhold\", \"params\": {\"x\": " << x
         << ", \"y\": " << y << ", \"size_x\": " << n << ", \"size_y\": " << n
         << ", \"service_hops\": " << m.service_hops
         << ", \"hot_span\": 1, \"bias_pct\": " << m.bias_pct
         << ", \"drift_period\": \"" << m.drift_period
         << "\", \"initial_tokens\": 4}}";
    }
  }
  os << "],\n\"links\": [\n";
  for (unsigned y = 0; y < n; ++y) {
    for (unsigned x = 0; x < n; ++x) {
      os << (x + y == 0 ? "" : ",\n") << "{\"from\": \"h" << x << "_" << y
         << "\", \"from_port\": \"port0\", \"to\": \"h" << (x + 1) % n << "_"
         << y << "\", \"to_port\": \"port1\", \"latency\": \"200ns\"},\n"
         << "{\"from\": \"h" << x << "_" << y
         << "\", \"from_port\": \"port2\", \"to\": \"h" << x << "_"
         << (y + 1) % n << "\", \"to_port\": \"port3\", \"latency\": "
         << "\"200ns\"}";
    }
  }
  os << "]}\n";
  return os.str();
}

/// The translation-bound node of examples/systems/node_vm.json (GUPS core
/// behind a two-level TLB whose walker shares the L1/DRAM path), with the
/// horizon and update count as parameters and the variant as every seed.
std::string node_vm_sdl(const char* end_time, unsigned updates,
                        std::uint64_t model_seed) {
  std::ostringstream os;
  os << "{\"config\": {\"seed\": " << model_seed << ", \"end_time\": \""
     << end_time << "\"},\n"
     << "\"vm\": {\"enable\": true,\n"
        " \"tlb\": {\"levels\": 2, \"l1_sets\": 16, \"l1_ways\": 4, "
        "\"l2_sets\": 128, \"l2_ways\": 8, \"page_sizes\": \"4KiB,2MiB\"},\n"
        " \"walker\": {\"walk_depth\": 4, \"walk_cache_entries\": 16, "
        "\"page_sizes\": \"4KiB,2MiB\", \"huge_pages\": \"promote\", "
        "\"promote_threshold\": 48, \"seed\": "
     << model_seed << "}},\n"
     << "\"components\": [\n"
        "{\"name\": \"cpu\", \"type\": \"proc.Core\", \"params\": {\"clock\": "
        "\"2GHz\", \"issue_width\": 4, \"max_loads\": 16, \"workload\": "
        "\"gups\", \"updates\": "
     << updates << ", \"table\": \"16MiB\", \"seed\": " << model_seed
     << "}},\n"
        "{\"name\": \"tlb\", \"type\": \"vm.Tlb\"},\n"
        "{\"name\": \"ptw\", \"type\": \"vm.PageTableWalker\"},\n"
        "{\"name\": \"bus\", \"type\": \"mem.Bus\", \"params\": "
        "{\"num_ports\": 2}},\n"
        "{\"name\": \"l1\", \"type\": \"mem.Cache\", \"params\": {\"size\": "
        "\"32KiB\", \"assoc\": 4, \"hit_latency\": \"1ns\", \"mshrs\": 16}},\n"
        "{\"name\": \"mc\", \"type\": \"mem.MemoryController\", \"params\": "
        "{\"backend\": \"dram\", \"preset\": \"DDR3\"}}],\n"
        "\"links\": [\n"
        "{\"from\": \"cpu\", \"from_port\": \"mem\", \"to\": \"tlb\", "
        "\"to_port\": \"cpu\", \"latency\": \"500ps\"},\n"
        "{\"from\": \"tlb\", \"from_port\": \"mem\", \"to\": \"bus\", "
        "\"to_port\": \"up0\", \"latency\": \"500ps\"},\n"
        "{\"from\": \"ptw\", \"from_port\": \"mem\", \"to\": \"bus\", "
        "\"to_port\": \"up1\", \"latency\": \"500ps\"},\n"
        "{\"from\": \"tlb\", \"from_port\": \"ptw\", \"to\": \"ptw\", "
        "\"to_port\": \"tlb0\", \"latency\": \"500ps\"},\n"
        "{\"from\": \"ptw\", \"from_port\": \"inval0\", \"to\": \"tlb\", "
        "\"to_port\": \"inval\", \"latency\": \"500ps\"},\n"
        "{\"from\": \"bus\", \"from_port\": \"down\", \"to\": \"l1\", "
        "\"to_port\": \"cpu\", \"latency\": \"1ns\"},\n"
        "{\"from\": \"l1\", \"from_port\": \"mem\", \"to\": \"mc\", "
        "\"to_port\": \"cpu\", \"latency\": \"2ns\"}]}\n";
  return os.str();
}

/// examples/sweeps/tlb_geometry.json widened to 16 points, over the
/// generated model.json next to it.
std::string tlb_sweep_spec() {
  return "{\"name\": \"tlb_geometry\", \"model\": \"model.json\",\n"
         "\"axes\": [\n"
         "{\"path\": \"/vm/tlb/l2_sets\", \"values\": "
         "[\"16\", \"64\", \"128\", \"256\"]},\n"
         "{\"path\": \"/vm/walker/huge_pages\", \"values\": "
         "[\"none\", \"promote\"]},\n"
         "{\"path\": \"/vm/walker/walk_cache_entries\", \"values\": "
         "[\"0\", \"16\"]}],\n"
         "\"objectives\": [\n"
         "{\"component\": \"cpu\", \"statistic\": \"instructions\", "
         "\"goal\": \"max\"},\n"
         "{\"component\": \"tlb\", \"statistic\": \"walks\", \"goal\": "
         "\"min\"},\n"
         "{\"component\": \"ptw\", \"statistic\": \"pte_reads\", \"goal\": "
         "\"min\"}],\n"
         "\"run\": {\"concurrency\": " +
         std::to_string(kSweepJobs) + ", \"timeout_seconds\": 60}}\n";
}

/// SDL text of a simulation workload.  `ranks` 0 keeps the workload's own
/// thread count (recording compares against a 1-rank run).
std::string simulation_model(const Workload& w, std::uint64_t variant,
                             unsigned ranks = 0) {
  const std::uint64_t model_seed = variant + 1;
  const unsigned r = ranks != 0 ? ranks : w.threads;
  const std::string_view name = w.name;
  if (name == "phold_r2") {
    return torus_sdl({16, r, "4ms", 0, 0, "200us", false}, model_seed);
  }
  if (name == "hotspot_r2") {
    return torus_sdl({32, r, "100us", 12, 85, "20us", true}, model_seed);
  }
  return node_vm_sdl("6ms", 4'000'000, model_seed);
}

/// Writes the sweep's spec (sweep.json) and base model into `dir`.
void write_sweep_inputs(const fs::path& dir, std::uint64_t variant) {
  fs::create_directories(dir);
  write_file(dir / "model.json", node_vm_sdl("50us", 200'000, variant + 1));
  write_file(dir / "sweep.json", tlb_sweep_spec());
}

// ---------------------------------------------------------------------------
// One repetition.

struct RepResult {
  double wall = 0.0;   // setup + simulate + write stats (whole sweep)
  double setup = 0.0;  // before the first simulated event
  double run = 0.0;    // Simulation::run, or run_points for the sweep
  std::uint64_t events = 0;
  std::uint64_t points = 0;
  double rss = 0.0;    // peak resident MiB during this repetition
  double steal_frac = 0.0;  // host CPU time stolen during it, share
  std::string digest;
  std::map<std::string, double> layer;  // traced repetitions only
};

std::size_t count_clean(const std::vector<RepResult>& reps) {
  return static_cast<std::size_t>(
      std::count_if(reps.begin(), reps.end(), [](const RepResult& r) {
        return r.steal_frac <= kMaxStealFrac;
      }));
}

/// The repetitions metrics are taken from: the clean ones, or all of them
/// when contention spoiled every one.
std::vector<const RepResult*> usable(const std::vector<RepResult>& reps) {
  const bool any_clean = count_clean(reps) > 0;
  std::vector<const RepResult*> out;
  for (const auto& r : reps) {
    if (!any_clean || r.steal_frac <= kMaxStealFrac) out.push_back(&r);
  }
  return out;
}

/// FNV-1a over every model statistic (engine.* self-profiling rows are
/// rank-count-dependent and excluded), values printed with full precision.
std::string stats_digest(const sst::StatisticsRegistry& reg) {
  std::string canon;
  for (const auto& s : reg.all()) {
    if (s->component().rfind("engine.", 0) == 0) continue;
    for (const auto& f : s->fields()) {
      canon += s->component() + "," + s->name() + "," + f.name + "," +
               num(f.value) + "\n";
    }
  }
  return hex64(fnv1a(canon));
}

double stat_value(const sst::StatisticsRegistry& reg, std::string_view comp,
                  std::string_view name, std::string_view field = "count") {
  const sst::Statistic* s = reg.find(comp, name);
  if (s == nullptr) return 0.0;
  for (const auto& f : s->fields()) {
    if (f.name == field) return f.value;
  }
  return 0.0;
}

/// Sum of one field of `name` over every component with the prefix.
double stat_sum(const sst::StatisticsRegistry& reg, std::string_view prefix,
                std::string_view name, std::string_view field = "count") {
  double total = 0.0;
  for (const auto& s : reg.all()) {
    if (s->component().rfind(prefix, 0) != 0 || s->name() != name) continue;
    for (const auto& f : s->fields()) {
      if (f.name == field) total += f.value;
    }
  }
  return total;
}

double ratio(double part, double base) { return base > 0 ? part / base : 0.0; }

/// Per-layer counts a traced repetition reads from RunStats and the
/// --profile-engine engine.* statistics after the run.
void read_engine_layers(const sst::Simulation& sim, const sst::RunStats& st,
                        double run_s, std::map<std::string, double>& L) {
  const auto& reg = sim.stats();
  const double events = static_cast<double>(st.events_processed);
  const double ranks = sim.config().num_ranks;
  L["core.events"] = events;
  L["core.ns_per_event"] = ratio(run_s * 1e9, events);
  L["core.sync_windows"] = static_cast<double>(st.sync_windows);
  L["core.events_per_window"] =
      ratio(events, static_cast<double>(st.sync_windows));
  const double wait =
      stat_sum(reg, "engine.rank", "barrier_wait_seconds", "sum");
  L["core.barrier_wait_s"] = wait;
  L["core.barrier_wait_frac"] = ratio(wait, ranks * run_s);
  L["core.cross_rank_frac"] =
      ratio(static_cast<double>(st.cross_rank_events), events);
  L["core.exchange_flushes"] = static_cast<double>(st.exchange_flushes);
  L["core.mailbox_received"] =
      stat_sum(reg, "engine.rank", "mailbox_received");
  double max_rank = 0.0;
  for (const auto& s : reg.all()) {
    if (s->component().rfind("engine.rank", 0) == 0 &&
        s->name() == "events_processed") {
      max_rank = std::max(max_rank, s->fields().front().value);
    }
  }
  L["core.rank_imbalance"] = ratio(max_rank, events / ranks);
  L["core.vortex_depth_mean"] =
      ratio(stat_sum(reg, "engine.rank", "vortex_depth", "sum"),
            stat_sum(reg, "engine.rank", "vortex_depth", "count"));
  L["core.clock_ticks"] = static_cast<double>(st.clock_ticks);
  L["core.tick_pool_recycle_frac"] =
      ratio(static_cast<double>(st.pool_recycles),
            static_cast<double>(st.pool_allocs + st.pool_recycles));
  L["ckpt.rebalances"] = static_cast<double>(st.rebalances);
  L["ckpt.components_migrated"] =
      static_cast<double>(st.components_migrated);
  L["ckpt.imbalance_after"] =
      stat_value(reg, "engine.rebalance", "imbalance_after", "mean");
  L["net.tokens_forwarded"] = stat_sum(reg, "h", "forwarded");
  const double instr = stat_value(reg, "cpu", "instructions");
  L["proc.instructions"] = instr;
  L["proc.host_ns_per_instr"] = ratio(run_s * 1e9, instr);
  L["vm.tlb_l1_hit_frac"] =
      ratio(stat_value(reg, "tlb", "l1_hits"),
            stat_value(reg, "tlb", "l1_hits") +
                stat_value(reg, "tlb", "l1_misses"));
  L["vm.walk_cache_hit_frac"] =
      ratio(stat_value(reg, "ptw", "walk_cache_hits"),
            stat_value(reg, "ptw", "walk_cache_hits") +
                stat_value(reg, "ptw", "pte_reads"));
  L["mem.l1_miss_frac"] =
      ratio(stat_value(reg, "l1", "misses"),
            stat_value(reg, "l1", "hits") + stat_value(reg, "l1", "misses"));
}

/// Parse -> validate -> build -> initialize -> run -> write stats, the
/// path `sstsim model.json --stats stats.json` takes.  With `setup_only`
/// it stops after initialize().
RepResult simulate(const std::string& sdl_text, bool traced, bool setup_only,
                   const fs::path& stats_path, SpanRecorder& spans) {
  RepResult r;
  auto& L = r.layer;
  const auto t0 = SteadyClock::now();
  const int root = spans.open(setup_only ? "setup" : "rep");
  sst::sdl::ConfigGraph graph;
  {
    Phase p(spans, "sdl.parse", L["sdl.parse_s"]);
    graph = sst::sdl::ConfigGraph::from_json_text(sdl_text);
  }
  graph.sim_config().profile_engine = traced;
  {
    Phase p(spans, "sdl.validate", L["sdl.validate_s"]);
    const auto problems = graph.validate(sst::Factory::instance());
    if (!problems.empty()) {
      throw std::runtime_error("invalid model: " + problems.front());
    }
  }
  std::unique_ptr<sst::Simulation> sim;
  {
    Phase p(spans, "sdl.build", L["sdl.build_s"]);
    sim = graph.build();
  }
  {
    Phase p(spans, "core.initialize", L["core.initialize_s"]);
    sim->initialize();
  }
  r.setup = seconds_between(t0, SteadyClock::now());
  if (setup_only) {
    spans.close(root);
    return r;
  }
  sst::RunStats st;
  {
    Phase p(spans, "core.run", r.run);
    st = sim->run();
  }
  {
    Phase p(spans, "obs.stats_write", L["obs.stats_write_s"]);
    std::ofstream out(stats_path);
    sim->stats().write_json(out);
    if (!out) throw std::runtime_error("cannot write " + stats_path.string());
  }
  r.wall = seconds_between(t0, SteadyClock::now());
  spans.close(root);

  r.events = st.events_processed;
  r.digest = stats_digest(sim->stats());
  L["core.run_s"] = r.run;
  if (traced) read_engine_layers(*sim, st, r.run, L);
  return r;
}

/// Events a child sstsim reported on its "done: t=... ps, N events" line.
std::uint64_t child_events(const fs::path& run_log) {
  const std::string log = read_file(run_log);
  const auto done = log.rfind("done: t=");
  const auto comma = log.find(" ps, ", done);
  if (done == std::string::npos || comma == std::string::npos) {
    throw std::runtime_error("no completion line in " + run_log.string());
  }
  return std::stoull(log.substr(comma + 5));
}

/// Spec load -> point expansion -> run_points (fork/exec children) ->
/// aggregate/Pareto, the path `sstdse run` takes.  With `setup_only` it
/// stops after the ledger is open.
RepResult sweep(const fs::path& spec_path, const fs::path& out_dir,
                const std::string& sstsim, bool setup_only,
                SpanRecorder& spans) {
  RepResult r;
  auto& L = r.layer;
  fs::remove_all(out_dir);
  const auto t0 = SteadyClock::now();
  const int root = spans.open(setup_only ? "setup" : "rep");
  sst::dse::SweepSpec spec;
  sst::sdl::JsonValue base_model;
  std::vector<sst::dse::Point> points;
  std::optional<sst::dse::Ledger> ledger;
  {
    Phase p(spans, "dse.spec_load", L["dse.spec_load_s"]);
    spec = sst::dse::SweepSpec::from_json_text(
        read_file(spec_path), spec_path.parent_path().string());
    base_model = sst::sdl::JsonValue::parse(read_file(spec.model_path));
    sst::dse::validate_axes(spec, base_model);
    points = sst::dse::generate_points(spec);
    fs::create_directories(out_dir);
    ledger.emplace((out_dir / "ledger.jsonl").string());
    ledger->load(spec.name, points.size());
  }
  r.setup = seconds_between(t0, SteadyClock::now());
  if (setup_only) {
    spans.close(root);
    return r;
  }
  sst::dse::OrchestratorSummary summary;
  {
    Phase p(spans, "dse.run_points", r.run);
    sst::dse::OrchestratorOptions orch;
    orch.sstsim_path = sstsim;
    orch.out_dir = out_dir.string();
    orch.verbose = false;
    summary = sst::dse::run_points(spec, points, base_model, *ledger, orch);
  }
  {
    Phase p(spans, "dse.aggregate", L["dse.aggregate_s"]);
    auto rows =
        sst::dse::collect_results(spec, points, *ledger, out_dir.string());
    sst::dse::compute_pareto(spec, rows);
    std::ofstream csv(out_dir / "results.csv");
    sst::dse::write_results_csv(spec, rows, csv);
    std::ofstream jsonl(out_dir / "results.jsonl");
    sst::dse::write_results_jsonl(spec, rows, jsonl);
    if (!csv || !jsonl) throw std::runtime_error("cannot write results");
  }
  r.wall = seconds_between(t0, SteadyClock::now());
  spans.close(root);

  if (summary.failed != 0) {
    throw std::runtime_error(std::to_string(summary.failed) +
                             " sweep point(s) failed");
  }
  r.points = points.size();
  for (const auto& pt : points) {
    r.events += child_events(fs::path(sst::dse::point_dir(
                                 out_dir.string(), pt.id)) /
                             "run.log");
  }
  r.digest = hex64(fnv1a(read_file(out_dir / "results.csv")));
  double attempts = 0.0;
  for (const auto& [id, rec] : ledger->records()) {
    (void)id;
    attempts += rec.attempts;
  }
  const double npoints = static_cast<double>(points.size());
  L["dse.run_points_s"] = r.run;
  L["dse.point_s"] = r.run * kSweepJobs / npoints;
  L["dse.points_per_s"] = ratio(npoints, r.run);
  L["dse.attempts"] = attempts;
  L["dse.retry_frac"] = ratio(attempts - npoints, attempts);
  return r;
}

// ---------------------------------------------------------------------------
// Recorded digests.

struct Reference {
  std::uint64_t events = 0;
  std::string digest;
};

std::optional<Reference> load_reference(const std::string& path,
                                        const std::string& workload,
                                        std::uint64_t variant) {
  if (path.empty() || !fs::exists(path)) return std::nullopt;
  const auto doc = sst::sdl::JsonValue::parse(read_file(path));
  if (!doc.has(workload)) return std::nullopt;
  const auto& per_variant = doc.at(workload);
  const std::string key = std::to_string(variant);
  if (!per_variant.has(key)) return std::nullopt;
  const auto& rec = per_variant.at(key);
  return Reference{static_cast<std::uint64_t>(rec.get_number("events", 0)),
                   rec.get_string("digest", "")};
}

// ---------------------------------------------------------------------------
// Host stamp.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double peak_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins this thread, and the simulation threads it starts, to `count`
/// CPUs of `cpus` starting at the `turn`-th one.  The vCPUs of this VM run
/// at speeds up to 30% apart that shift from minute to minute (other
/// tenants share their cores), and a process the scheduler leaves on one
/// vCPU times that vCPU; rotating the repetitions over every vCPU makes
/// each run's median sample all of them.
void pin_for_turn(const std::vector<int>& cpus, unsigned count,
                  std::uint64_t turn) {
  if (cpus.size() <= count) return;  // nothing to rotate over
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned j = 0; j < count; ++j) {
    CPU_SET(cpus[(turn + j) % cpus.size()], &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

/// CPU time the hypervisor has stolen from this VM so far, summed over
/// its CPUs, in seconds (the "steal" column of /proc/stat).
double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return in ? static_cast<double>(v[7]) /
                  static_cast<double>(::sysconf(_SC_CLK_TCK))
            : 0.0;
}

/// Resets this process's peak-RSS mark (VmHWM), so each repetition's peak
/// can be read on its own.  Returns false where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Peak RSS since the last reset_peak_rss(), in MiB (0 when unreadable).
double repetition_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Metric tables: name, unit, and the base a ratio is taken against.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* base;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "median host seconds of one whole run"},
    {"setup_s", "s", "median host seconds before the first simulated event"},
    {"events_per_s", "1/s", "simulated events / host seconds of run"},
    {"peak_rss_mb", "MB", "peak resident memory of the process"},
};

constexpr MetricDef kPerLayer[] = {
    {"sdl.parse_s", "s", "ConfigGraph::from_json_text"},
    {"sdl.validate_s", "s", "ConfigGraph::validate"},
    {"sdl.build_s", "s", "ConfigGraph::build"},
    {"core.initialize_s", "s", "Simulation::initialize"},
    {"core.run_s", "s", "Simulation::run"},
    {"core.events", "count", "RunStats.events_processed"},
    {"core.ns_per_event", "ns", "core.run_s / core.events"},
    {"core.sync_windows", "count", "RunStats.sync_windows"},
    {"core.events_per_window", "count", "core.events / core.sync_windows"},
    {"core.barrier_wait_s", "s", "sum of engine.rankN barrier_wait_seconds"},
    {"core.barrier_wait_frac", "ratio",
     "core.barrier_wait_s / (ranks x core.run_s)"},
    {"core.cross_rank_frac", "ratio",
     "RunStats.cross_rank_events / core.events"},
    {"core.exchange_flushes", "count", "RunStats.exchange_flushes"},
    {"core.mailbox_received", "count", "sum of engine.rankN mailbox_received"},
    {"core.rank_imbalance", "ratio",
     "max / mean of engine.rankN events_processed"},
    {"core.vortex_depth_mean", "count",
     "engine.rankN vortex_depth, per sync window"},
    {"core.clock_ticks", "count", "RunStats.clock_ticks"},
    {"core.tick_pool_recycle_frac", "ratio",
     "tick recycles / (allocs + recycles)"},
    {"ckpt.rebalances", "count", "RunStats.rebalances"},
    {"ckpt.components_migrated", "count", "RunStats.components_migrated"},
    {"ckpt.imbalance_after", "ratio",
     "mean engine.rebalance imbalance_after"},
    {"net.tokens_forwarded", "count", "sum of HotspotPhold forwarded"},
    {"proc.instructions", "count", "cpu instructions"},
    {"proc.host_ns_per_instr", "ns", "core.run_s / proc.instructions"},
    {"vm.tlb_l1_hit_frac", "ratio", "tlb l1_hits / (l1_hits + l1_misses)"},
    {"vm.walk_cache_hit_frac", "ratio",
     "ptw walk_cache_hits / (walk_cache_hits + pte_reads)"},
    {"mem.l1_miss_frac", "ratio", "l1 misses / (hits + misses)"},
    {"obs.stats_write_s", "s", "StatisticsRegistry::write_json to a file"},
    {"dse.spec_load_s", "s", "spec load + point expansion + ledger open"},
    {"dse.run_points_s", "s", "run_points, all points"},
    {"dse.point_s", "s", "dse.run_points_s x jobs / points"},
    {"dse.dispatch_s_per_point", "s",
     "dse.point_s - in-process setup + run of point 0"},
    {"dse.points_per_s", "1/s", "points / dse.run_points_s"},
    {"dse.attempts", "count", "sum of ledger attempts"},
    {"dse.retry_frac", "ratio", "(dse.attempts - points) / dse.attempts"},
    {"dse.aggregate_s", "s", "collect_results + compute_pareto + tables"},
    {"dse.child_peak_rss_mb", "MB", "largest child's peak resident memory"},
    {"trace.overhead_s", "s", "traced wall_s - untraced wall_s"},
    {"trace.span_coverage", "ratio",
     "top-level spans / rep span, per traced repetition"},
};

// Layer splits perfbench cannot see from outside the public calls.
constexpr const char* kUnmeasured[] = {
    "core dispatch split (TimeVortex ops, Link::send, handler): needs "
    "in-engine phase timers (ROADMAP item 1)",
    "core outbox flush vs mailbox drain time: only their counts are "
    "exported (core.exchange_flushes, core.mailbox_received)",
    "ckpt rebalance/migrate host time: runs inside the barrier-completion "
    "section, invisible to Simulation::run's caller",
    "dse per-point split (fork/exec, child re-parse, ledger fsync): "
    "dse.dispatch_s_per_point is their sum",
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path work = ".bench_work";
  std::string sstsim;
  std::string digests;
  std::string git_rev = "unknown";
  std::string record;  // non-empty: record digests into this file
};

int usage() {
  std::cerr << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR --sstsim PATH --digests FILE "
               "[--git-rev REV]\n"
               "       perfbench --record FILE --work DIR --sstsim PATH\n";
  return 2;
}

/// Generates a workload's inputs for one variant under the work dir;
/// returns the SDL text of a simulation workload ("" for the sweep).
std::string prepare_inputs(const Workload& w, std::uint64_t variant,
                           const Options& opt) {
  if (w.kind == Kind::kSweep) {
    write_sweep_inputs(opt.work / "inputs", variant);
    return "";
  }
  std::string sdl_text = simulation_model(w, variant);
  write_file(opt.work / "model.json", sdl_text);
  return sdl_text;
}

/// One repetition of a workload.
RepResult run_once(const Workload& w, bool traced, bool setup_only,
                   const Options& opt, SpanRecorder& spans,
                   const std::string& sdl_text) {
  if (w.kind == Kind::kSweep) {
    return sweep(opt.work / "inputs" / "sweep.json", opt.work / "sweep_out",
                 opt.sstsim, setup_only, spans);
  }
  return simulate(sdl_text, traced, setup_only, opt.work / "stats.json",
                  spans);
}

/// Records events + digest for every workload and variant; checks the
/// torus workloads' digests against their 1-rank runs (the rank-count
/// byte-identity contract).
int record(const Options& opt) {
  SpanRecorder spans;
  std::ostringstream os;
  os << "{\n";
  bool first_w = true;
  for (const Workload& w : kWorkloads) {
    os << (first_w ? "" : ",\n") << "  \"" << w.name << "\": {";
    first_w = false;
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      const RepResult r =
          run_once(w, false, false, opt, spans, prepare_inputs(w, v, opt));
      if (w.threads > 1) {
        const RepResult serial =
            run_once(w, false, false, opt, spans, simulation_model(w, v, 1));
        if (serial.digest != r.digest || serial.events != r.events) {
          std::cerr << w.name << " variant " << v << ": " << w.threads
                    << "-rank digest " << r.digest << " (" << r.events
                    << " events) != 1-rank " << serial.digest << " ("
                    << serial.events << " events)\n";
          return 1;
        }
      }
      std::cerr << w.name << " variant " << v << ": " << r.events
                << " events, digest " << r.digest << ", wall " << r.wall
                << " s\n";
      os << (v == 0 ? "\n" : ",\n") << "    \"" << v << "\": {\"events\": "
         << r.events << ", \"digest\": \"" << r.digest << "\"}";
    }
    os << "\n  }";
  }
  os << "\n}\n";
  write_file(opt.record, os.str());
  return 0;
}

void print_report_line(const char* name, double value, const char* unit,
                       const std::string& note) {
  std::printf("  %-28s %16.6g %-6s %s\n", name, value, unit, note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();

  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = val == "1";
      } else if (arg == "--work") {
        opt.work = val;
      } else if (arg == "--sstsim") {
        opt.sstsim = val;
      } else if (arg == "--digests") {
        opt.digests = val;
      } else if (arg == "--git-rev") {
        opt.git_rev = val;
      } else if (arg == "--record") {
        opt.record = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  fs::create_directories(opt.work);
  if (!opt.record.empty()) {
    try {
      return record(opt);
    } catch (const std::exception& e) {
      std::cerr << "record failed: " << e.what() << "\n";
      return 1;
    }
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return usage();
  }

  const std::uint64_t variant = opt.seed % kVariants;
  const std::string sdl_text = prepare_inputs(*w, variant, opt);
  const auto ref = load_reference(opt.digests, w->name, variant);

  // Repetitions until the budget is spent; a repetition is not started
  // when it would end past the budget.  A traced run alternates untraced
  // and traced repetitions so the tracing overhead is measured against
  // the same conditions.  Stolen repetitions (see kMaxStealFrac) are kept
  // out of the metrics, and the budget stretches to kContendedBudget x
  // --seconds while fewer than kMinCleanReps untraced ones are clean.
  SpanRecorder spans;
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<double> setups;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, unsigned> problems;  // message -> repetitions
  const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  // The sweep's children inherit the affinity, so only workloads without
  // children rotate (a traced run keeps each untraced/traced pair on one
  // set of CPUs).
  const std::vector<int> rotation =
      w->children == 0 ? allowed_cpus() : std::vector<int>{};
  const auto start = SteadyClock::now();
  for (;;) {
    const bool tracing = opt.trace && attempted % 2 == 1;
    spans.set_enabled(tracing);
    spans.set_rep(static_cast<int>(attempted));
    pin_for_turn(rotation, w->threads, attempted / (opt.trace ? 2 : 1));
    ++attempted;
    const auto rep_start = SteadyClock::now();
    const double steal_start = host_steal_seconds();
    try {
      const bool own_peak = reset_peak_rss();
      RepResult r = run_once(*w, tracing, false, opt, spans, sdl_text);
      r.rss = own_peak ? repetition_peak_rss_mb() : peak_rss_mb(RUSAGE_SELF);
      r.steal_frac =
          ratio(host_steal_seconds() - steal_start,
                cpus * seconds_between(rep_start, SteadyClock::now()));
      std::string bad;
      if (!ref) {
        bad = "no recorded digest for variant " + std::to_string(variant);
      } else if (r.events != ref->events) {
        bad = "event count " + std::to_string(r.events) + " != recorded " +
              std::to_string(ref->events);
      } else if (r.digest != ref->digest) {
        bad = "statistics digest " + r.digest + " != recorded " + ref->digest;
      }
      if (!bad.empty()) {
        ++failed;
        ++problems[bad];
      } else {
        if (!tracing) setups.push_back(r.setup);
        (tracing ? traced : plain).push_back(std::move(r));
      }
      spans.set_enabled(false);
      const auto passes_start = SteadyClock::now();
      const double passes_s =
          kSetupShare * seconds_between(rep_start, passes_start);
      for (unsigned i = 0;
           i < kSetupPassesMax &&
           (i < kSetupPassesMin ||
            seconds_between(passes_start, SteadyClock::now()) < passes_s);
           ++i) {
        setups.push_back(
            run_once(*w, false, true, opt, spans, sdl_text).setup);
      }
    } catch (const std::exception& e) {
      ++failed;
      ++problems[e.what()];
      break;  // a model that throws throws every time
    }
    if (opt.trace && attempted < 2) continue;  // at least one traced rep
    const auto now = SteadyClock::now();
    const double budget =
        opt.seconds *
        (count_clean(plain) < kMinCleanReps ? kContendedBudget : 1.0);
    if (seconds_between(start, now) + seconds_between(rep_start, now) >
        budget) {
      break;
    }
  }
  spans.set_enabled(false);

  // End-to-end metrics (untraced repetitions only).
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> rss_samples;
  std::vector<double> points_rates;
  for (const RepResult* r : usable(plain)) {
    walls.push_back(r->wall);
    rates.push_back(ratio(static_cast<double>(r->events), r->run));
    rss_samples.push_back(r->rss);
    points_rates.push_back(ratio(static_cast<double>(r->points), r->run));
  }
  // Per-repetition peaks: the process-lifetime peak also carries whatever
  // malloc arenas earlier repetitions' threads happened to touch.
  const double rss = median(rss_samples);
  std::map<std::string, double> e2e = {
      {"wall_s", median(walls)},
      {"setup_s", median(setups)},
      {"events_per_s", median(rates)},
      {"peak_rss_mb", rss},
  };

  // Per-layer metrics (traced repetitions only).
  std::map<std::string, double> layer;
  for (const MetricDef& m : kPerLayer) layer[m.name] = 0.0;
  std::vector<std::pair<std::string, std::string>> span_table;
  if (opt.trace && !traced.empty()) {
    std::map<std::string, std::vector<double>> samples;
    for (const RepResult* r : usable(traced)) {
      for (const auto& [k, v] : r->layer) samples[k].push_back(v);
    }
    for (auto& [k, v] : samples) {
      if (layer.contains(k)) layer[k] = median(v);
    }
    if (w->kind == Kind::kSweep) {
      // One representative point in-process, traced: the sdl/core/model
      // layers a child runs, and the base dispatch is measured against.
      const auto spec = sst::dse::SweepSpec::from_json_text(
          read_file(opt.work / "inputs" / "sweep.json"),
          (opt.work / "inputs").string());
      auto graph = sst::sdl::ConfigGraph::from_json(
          sst::sdl::JsonValue::parse(read_file(spec.model_path)));
      sst::dse::apply_point(spec, sst::dse::generate_points(spec).front(),
                            graph);
      spans.set_enabled(true);
      spans.set_rep(static_cast<int>(attempted));
      const RepResult point = simulate(graph.to_json().dump(), true, false,
                                       opt.work / "stats.json", spans);
      spans.set_enabled(false);
      for (const auto& [k, v] : point.layer) {
        if (layer.contains(k) && !k.starts_with("dse.")) layer[k] = v;
      }
      layer["dse.dispatch_s_per_point"] =
          layer["dse.point_s"] - (point.setup + point.run);
      layer["dse.child_peak_rss_mb"] = peak_rss_mb(RUSAGE_CHILDREN);
    }
    std::vector<double> twalls;
    for (const RepResult* r : usable(traced)) twalls.push_back(r->wall);
    layer["trace.overhead_s"] = median(twalls) - median(walls);
    // Coverage of each traced "rep" span by its direct children.
    const auto& all = spans.spans();
    std::vector<double> child(all.size(), 0.0);
    for (const Span& s : all) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::vector<double> coverage;
    std::map<std::string, std::pair<double, double>> self;  // total, self
    for (std::size_t i = 0; i < all.size(); ++i) {
      const double dur = all[i].end - all[i].start;
      if (all[i].name == "rep") coverage.push_back(ratio(child[i], dur));
      self[all[i].name].first += dur;
      self[all[i].name].second += dur - child[i];
    }
    layer["trace.span_coverage"] = median(coverage);
    for (const auto& [name, ts] : self) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "total %.6f s, self %.6f s", ts.first,
                    ts.second);
      span_table.emplace_back(name, buf);
    }
    const fs::path trace_path = opt.work / "trace.json";
    std::ofstream out(trace_path);
    spans.write_chrome_trace(out);
    span_table.emplace_back("(chrome trace)", trace_path.string());
  }

  // Human-readable report.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("perfbench %s  seed=%llu (input variant %llu of %llu)  "
              "trace=%d\n",
              w->name, static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(variant),
              static_cast<unsigned long long>(kVariants), opt.trace ? 1 : 0);
  std::printf("  why: %s\n", w->why);
  std::printf("  host: nproc=%ld cpu=\"%s\" build=%s git=%s threads=%u "
              "children=%u\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
              build_type.c_str(), opt.git_rev.c_str(), w->threads,
              w->children);
  if (build_type != "Release") {
    std::printf("  WARNING: non-Release build (%s); timings are not "
                "comparable\n",
                build_type.c_str());
  }
  const auto [wq1, wq3] = quartiles(walls);
  print_report_line("wall_s", e2e["wall_s"], "s",
                    "median of " + std::to_string(walls.size()) +
                        " untraced reps, q1 " + num(wq1) + " q3 " + num(wq3));
  std::printf("  host CPU steal: %zu of %zu untraced reps over %.0f%% "
              "stolen%s\n",
              plain.size() - count_clean(plain), plain.size(),
              100.0 * kMaxStealFrac,
              count_clean(plain) == 0 && !plain.empty()
                  ? " (all stolen: metrics use them anyway)"
                  : " (kept out of the metrics)");
  print_report_line("setup_s", e2e["setup_s"], "s",
                    "median of " + std::to_string(setups.size()) +
                        " set-ups");
  print_report_line("events_per_s", e2e["events_per_s"], "1/s",
                    w->kind == Kind::kSweep
                        ? "child events / run_points seconds"
                        : "events / Simulation::run seconds");
  if (w->kind == Kind::kSweep && !plain.empty()) {
    print_report_line("points_per_s", median(points_rates), "1/s",
                      std::to_string(plain.front().points) +
                          " points / run_points seconds");
  }
  print_report_line("peak_rss_mb", rss, "MB",
                    "median per-rep peak of this process; lifetime peak " +
                        num(peak_rss_mb(RUSAGE_SELF)));
  if (w->kind == Kind::kSweep) {
    print_report_line("child_peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN),
                      "MB", "largest sstsim child");
  }
  print_report_line("failed_frac", ratio(static_cast<double>(failed),
                                         static_cast<double>(attempted)),
                    "ratio",
                    std::to_string(failed) + " of " +
                        std::to_string(attempted) + " reps failed");
  if (ref) {
    std::printf("  reference: %llu events, digest %s\n",
                static_cast<unsigned long long>(ref->events),
                ref->digest.c_str());
  }
  for (const auto& [what, reps] : problems) {
    std::printf("  FAILED (%u reps): %s\n", reps, what.c_str());
  }
  if (opt.trace) {
    std::printf("  per-layer (median of %zu traced reps):\n", traced.size());
    for (const MetricDef& m : kPerLayer) {
      print_report_line(m.name, layer[m.name], m.unit, m.base);
    }
    std::printf("  spans (summed over traced reps):\n");
    for (const auto& [name, text] : span_table) {
      std::printf("    %-26s %s\n", name.c_str(), text.c_str());
    }
    if (layer["trace.span_coverage"] < 0.97) {
      std::printf("  WARNING: top-level spans cover only %.1f%% of rep "
                  "wall time\n",
                  100.0 * layer["trace.span_coverage"]);
    }
    std::printf("  not measured from outside:\n");
    for (const char* u : kUnmeasured) std::printf("    - %s\n", u);
  }

  // Result line.
  const bool correct = failed == 0 && !plain.empty();
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, double value, const char* unit) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << num(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m.name, layer[m.name], m.unit);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m.name, e2e[m.name], m.unit);
  }
  os << "}}";
  std::cout << std::flush;
  std::printf("%s\n", os.str().c_str());
  return correct ? 0 : 1;
}
