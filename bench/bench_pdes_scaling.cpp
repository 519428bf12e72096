// E5 + E9 — parallel discrete-event engine scaling and partitioner
// quality.
//
// Reproduces the SC'06 poster's headline claim: the framework itself is a
// scalable parallel simulator.  The cluster substitution (DESIGN.md) maps
// MPI ranks to in-process threads; on this single-core host the study
// reports the algorithmic scaling metrics — events per wall-clock second,
// synchronization rounds, events per sync window, and cross-partition
// traffic — rather than wall-clock speedup.
//
// Expected shape: event totals identical across rank counts (determinism);
// cross-rank event fraction grows with rank count but is far lower for
// the min-cut partitioner than round-robin; events-per-window (the
// available parallelism per sync) stays high for good partitions.
//
// Usage: bench_pdes_scaling [--end-us N] [--repeat N] [--json PATH]
//   --end-us N    simulated end time in microseconds (default 2000)
//   --repeat N    measure each configuration N times and report the
//                 fastest run (default 3; results are deterministic, so
//                 repeats differ only in wall time / scheduler noise)
//   --json PATH   also write the E5/E9 rows as machine-readable JSON
//                 (consumed by bench/run_benchmarks.sh -> BENCH_pdes.json)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/sst.h"
#include "net/hotspot.h"
#include "../tests/test_components.h"

namespace {

using namespace sst;

RunStats run_phold_once(unsigned ranks, PartitionStrategy part, unsigned x,
                        unsigned y, SimTime end) {
  Simulation sim(SimConfig{.num_ranks = ranks,
                           .end_time = end,
                           .seed = 11,
                           .partition = part});
  Params p;
  p.set("fanout", "4");
  p.set("initial_events", "4");
  p.set("min_delay", "20ns");
  auto name = [](unsigned i, unsigned j) {
    return "n" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (unsigned j = 0; j < y; ++j) {
    for (unsigned i = 0; i < x; ++i) {
      sim.add_component<sst::testing::PholdNode>(name(i, j), p);
    }
  }
  // 2-D torus of PHOLD nodes: port0/1 in x, port2/3 in y.
  for (unsigned j = 0; j < y; ++j) {
    for (unsigned i = 0; i < x; ++i) {
      sim.connect(name(i, j), "port0", name((i + 1) % x, j), "port1",
                  200 * kNanosecond);
      sim.connect(name(i, j), "port2", name(i, (j + 1) % y), "port3",
                  200 * kNanosecond);
    }
  }
  return sim.run();
}

/// Best-of-N measurement: every repeat produces identical simulation
/// results (same events, windows, cross-rank counts — that is the
/// determinism contract), so the minimum wall time is the run least
/// perturbed by the host scheduler.
RunStats run_phold(unsigned ranks, PartitionStrategy part, unsigned x,
                   unsigned y, SimTime end, unsigned repeat) {
  RunStats best = run_phold_once(ranks, part, x, y, end);
  for (unsigned i = 1; i < repeat; ++i) {
    const RunStats s = run_phold_once(ranks, part, x, y, end);
    if (s.wall_seconds < best.wall_seconds) best = s;
  }
  return best;
}

const char* part_name(PartitionStrategy p) {
  switch (p) {
    case PartitionStrategy::kLinear: return "linear";
    case PartitionStrategy::kRoundRobin: return "roundrobin";
    case PartitionStrategy::kMinCut: return "mincut";
  }
  return "?";
}

/// E19 — the moving-hotspot PHOLD variant (see src/net/hotspot.h): event
/// load concentrates on a small neighborhood that drifts across the
/// torus, so any static partition is wrong most of the time.  The
/// rebalanced run migrates the hot components apart at sync barriers;
/// the static run keeps the (initially optimal) min-cut partition.
RunStats run_hotspot_once(unsigned ranks, bool rebalance, unsigned x,
                          unsigned y, SimTime end) {
  SimConfig cfg{.num_ranks = ranks,
                .end_time = end,
                .seed = 11,
                .partition = PartitionStrategy::kMinCut};
  cfg.rebalance = rebalance;
  Simulation sim(cfg);
  Params base;
  base.set("size_x", std::to_string(x));
  base.set("size_y", std::to_string(y));
  base.set("min_delay", "20ns");
  base.set("self_delay", "5ns");
  base.set("service_hops", "12");
  base.set("hot_span", "1");
  base.set("bias_pct", "85");
  base.set("drift_period", "150us");
  base.set("initial_tokens", "8");
  auto name = [](unsigned i, unsigned j) {
    return "h" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (unsigned j = 0; j < y; ++j) {
    for (unsigned i = 0; i < x; ++i) {
      Params p = base;
      p.set("x", std::to_string(i));
      p.set("y", std::to_string(j));
      sim.add_component<sst::net::HotspotNode>(name(i, j), p);
    }
  }
  for (unsigned j = 0; j < y; ++j) {
    for (unsigned i = 0; i < x; ++i) {
      sim.connect(name(i, j), "port0", name((i + 1) % x, j), "port1",
                  200 * kNanosecond);
      sim.connect(name(i, j), "port2", name(i, (j + 1) % y), "port3",
                  200 * kNanosecond);
    }
  }
  return sim.run();
}

RunStats run_hotspot(unsigned ranks, bool rebalance, unsigned x, unsigned y,
                     SimTime end, unsigned repeat) {
  RunStats best = run_hotspot_once(ranks, rebalance, x, y, end);
  for (unsigned i = 1; i < repeat; ++i) {
    const RunStats s = run_hotspot_once(ranks, rebalance, x, y, end);
    if (s.wall_seconds < best.wall_seconds) best = s;
  }
  return best;
}

/// One measured configuration, kept for the optional JSON dump.
struct BenchRow {
  unsigned ranks;
  const char* partitioner;
  RunStats stats;
  const char* scenario = "phold";
  bool rebalance = false;
};

double cross_fraction(const RunStats& s) {
  return s.events_processed
             ? static_cast<double>(s.cross_rank_events) /
                   static_cast<double>(s.events_processed)
             : 0.0;
}

void write_json(const std::string& path, const std::vector<BenchRow>& rows,
                SimTime end) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_pdes_scaling: cannot write '%s'\n",
                 path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"phold_torus_16x16\",\n");
  std::fprintf(f, "  \"end_us\": %llu,\n",
               static_cast<unsigned long long>(end / kMicrosecond));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    const RunStats& s = r.stats;
    std::fprintf(
        f,
        "    {\"ranks\": %u, \"partitioner\": \"%s\", "
        "\"scenario\": \"%s\", \"rebalance\": %s, "
        "\"events\": %llu, "
        "\"sync_windows\": %llu, \"cross_rank_events\": %llu, "
        "\"cross_rank_fraction\": %.4f, \"cut_links\": %llu, "
        "\"rebalances\": %llu, \"components_moved\": %llu, "
        "\"wall_seconds\": %.4f, \"events_per_sec\": %.0f}%s\n",
        r.ranks, r.partitioner, r.scenario,
        r.rebalance ? "true" : "false",
        static_cast<unsigned long long>(s.events_processed),
        static_cast<unsigned long long>(s.sync_windows),
        static_cast<unsigned long long>(s.cross_rank_events),
        cross_fraction(s), static_cast<unsigned long long>(s.cut_links),
        static_cast<unsigned long long>(s.rebalances),
        static_cast<unsigned long long>(s.components_migrated),
        s.wall_seconds, s.events_per_second(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  SimTime end = 2 * kMillisecond;
  unsigned repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--end-us" && i + 1 < argc) {
      end = static_cast<SimTime>(std::strtoull(argv[++i], nullptr, 10)) *
            kMicrosecond;
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (repeat == 0) repeat = 1;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_pdes_scaling [--end-us N] [--repeat N] "
                   "[--json PATH]\n");
      return 1;
    }
  }
  std::vector<BenchRow> rows;

  std::printf("--------------------------------------------------------------------------\n");
  std::printf("E5 PDES engine scaling (PHOLD on a 16x16 torus, 1024 initial events)\n");
  std::printf("  reproduces: SC'06 poster scalability claim (threads stand in for MPI\n");
  std::printf("  ranks; single-core host => algorithmic metrics, see DESIGN.md)\n");
  std::printf("--------------------------------------------------------------------------\n\n");

  std::printf("%-6s %12s %10s %12s %12s %10s\n", "ranks", "events",
              "windows", "evts/window", "cross-rank", "Mevt/s");
  for (unsigned ranks : {1u, 2u, 4u, 8u}) {
    const RunStats s = run_phold(ranks, PartitionStrategy::kMinCut, 16, 16,
                                 end, repeat);
    rows.push_back({ranks, "mincut", s});
    const double per_window =
        s.sync_windows ? static_cast<double>(s.events_processed) /
                             static_cast<double>(s.sync_windows)
                       : static_cast<double>(s.events_processed);
    std::printf("%-6u %12llu %10llu %12.1f %11.1f%% %10.2f\n", ranks,
                static_cast<unsigned long long>(s.events_processed),
                static_cast<unsigned long long>(s.sync_windows), per_window,
                100.0 * cross_fraction(s), s.events_per_second() / 1e6);
  }

  std::printf("\nE9 partitioner quality (4 ranks, same torus)\n");
  std::printf("%-12s %10s %14s %12s %12s\n", "partitioner", "cut links",
              "cross-rank", "windows", "events");
  for (PartitionStrategy part :
       {PartitionStrategy::kLinear, PartitionStrategy::kRoundRobin}) {
    const RunStats s = run_phold(4, part, 16, 16, end, repeat);
    rows.push_back({4, part_name(part), s});
    std::printf("%-12s %10llu %13.1f%% %12llu %12llu\n", part_name(part),
                static_cast<unsigned long long>(s.cut_links),
                100.0 * cross_fraction(s),
                static_cast<unsigned long long>(s.sync_windows),
                static_cast<unsigned long long>(s.events_processed));
  }
  {
    // The min-cut row reuses the E5 4-rank measurement above.
    const BenchRow* mc = nullptr;
    for (const BenchRow& r : rows) {
      if (r.ranks == 4 && std::string(r.partitioner) == "mincut") mc = &r;
    }
    const RunStats& s = mc->stats;
    std::printf("%-12s %10llu %13.1f%% %12llu %12llu\n", "mincut",
                static_cast<unsigned long long>(s.cut_links),
                100.0 * cross_fraction(s),
                static_cast<unsigned long long>(s.sync_windows),
                static_cast<unsigned long long>(s.events_processed));
  }

  // E19 — online repartitioning on a moving hotspot (16x16 torus).  The
  // static rows keep the initial min-cut partition; the rebalanced rows
  // migrate components at sync barriers when the per-epoch event-rate
  // imbalance exceeds the threshold.  Event totals are identical (the
  // determinism contract); the win is wall time.
  std::printf("\nE19 online repartitioning (moving hotspot, 16x16 torus)\n");
  std::printf("%-6s %-10s %12s %10s %10s %10s %10s\n", "ranks", "mode",
              "events", "windows", "migrations", "moved", "Mevt/s");
  for (unsigned ranks : {1u, 4u, 8u}) {
    for (bool rebal : {false, true}) {
      if (ranks == 1 && rebal) continue;  // no ranks to balance across
      const RunStats s = run_hotspot(ranks, rebal, 16, 16, end, repeat);
      rows.push_back({ranks, "mincut", s, "hotspot", rebal});
      std::printf("%-6u %-10s %12llu %10llu %10llu %10llu %10.2f\n", ranks,
                  rebal ? "rebalanced" : "static",
                  static_cast<unsigned long long>(s.events_processed),
                  static_cast<unsigned long long>(s.sync_windows),
                  static_cast<unsigned long long>(s.rebalances),
                  static_cast<unsigned long long>(s.components_migrated),
                  s.events_per_second() / 1e6);
    }
  }

  std::printf("\nLookahead sweep (2 ranks, mincut): larger link latency => "
              "fewer syncs\n");
  std::printf("%-12s %12s %12s\n", "latency", "windows", "evts/window");
  // Lookahead equals the cross-rank link latency; rebuild with scaled
  // latencies by reusing min_delay as proxy: rerun with different end
  // times is unnecessary — vary via the torus link latency directly.
  for (SimTime lat : {50 * kNanosecond, 200 * kNanosecond, kMicrosecond}) {
    Simulation sim(SimConfig{.num_ranks = 2,
                             .end_time = end,
                             .seed = 11,
                             .partition = PartitionStrategy::kMinCut});
    Params p;
    p.set("fanout", "2");
    p.set("initial_events", "4");
    p.set("min_delay", "20ns");
    for (unsigned i = 0; i < 64; ++i) {
      sim.add_component<sst::testing::PholdNode>("n" + std::to_string(i), p);
    }
    for (unsigned i = 0; i < 64; ++i) {
      sim.connect("n" + std::to_string(i), "port0",
                  "n" + std::to_string((i + 1) % 64), "port1", lat);
    }
    const RunStats s = sim.run();
    std::printf("%9lluns %12llu %12.1f\n",
                static_cast<unsigned long long>(lat / kNanosecond),
                static_cast<unsigned long long>(s.sync_windows),
                s.sync_windows ? static_cast<double>(s.events_processed) /
                                     static_cast<double>(s.sync_windows)
                               : 0.0);
  }

  if (!json_path.empty()) write_json(json_path, rows, end);
  return 0;
}
