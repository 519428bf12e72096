// sstdse — design-space exploration driver: run a parameter sweep,
// resume an interrupted one, and report the results.
//
//   sstdse run <sweep.json> [--out DIR] [--jobs N] [--daemon SOCKET] [-q]
//   sstdse resume <sweep-dir> [--jobs N] [--daemon SOCKET] [-q]
//   sstdse report <sweep-dir>
//   sstdse points <sweep.json>      list the generated points and exit
//
// `run` creates (or resumes) the sweep directory; every point executes
// on a crash-isolated worker process forked by this driver (or on a
// running sstsimd's with --daemon) with its own directory, watchdog
// timeout, and bounded retries, and completions are recorded in a
// crash-consistent ledger — SIGKILL the driver at any moment and
// `resume` continues without re-running finished points.
//
// Exit codes (aligned with sstsim):
//   0  success (every point completed)
//   2  usage or configuration error
//   6  sweep finished with permanently failed points
//   7  daemon error (--daemon socket unreachable or protocol failure)
#include <cstdint>
#include <iostream>

#include "core/params.h"
#include "dse/driver.h"
#include "dse/point_gen.h"
#include "dse/sweep_spec.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "vm/vm_lib.h"

namespace {

void print_options(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " run <sweep.json> [--out DIR] [--jobs N] [--daemon SOCKET] [-q]\n"
     << "       " << argv0
     << " resume <sweep-dir> [--jobs N] [--daemon SOCKET] [-q]\n"
     << "       " << argv0 << " report <sweep-dir>\n"
     << "       " << argv0 << " points <sweep.json>\n";
}

int usage(const char* argv0) {
  print_options(std::cerr, argv0);
  return sst::dse::kSweepExitConfig;
}

int help(const char* argv0) {
  print_options(std::cout, argv0);
  std::cout <<
      "\nSubcommands:\n"
      "  run      execute the sweep (resumes when DIR already has a "
      "ledger)\n"
      "  resume   continue an interrupted sweep from its ledger\n"
      "  report   re-aggregate and print the Pareto report, run nothing\n"
      "  points   print the expanded point list and exit\n"
      "\nOptions:\n"
      "  --out DIR      sweep output directory (default <spec>.sweep)\n"
      "  --jobs N       override the spec's run.concurrency (the number\n"
      "                 of worker processes this driver forks)\n"
      "  --daemon SOCKET  run the points on the sstsimd daemon on this\n"
      "                 unix socket instead of on forked workers;\n"
      "                 resuming after a daemon restart replays\n"
      "                 completed requests from its ledger\n"
      "  -q, --quiet    suppress per-point progress lines\n"
      "\nExit codes:\n"
      "  0  success (every point completed)\n"
      "  2  usage or configuration error\n"
      "  6  sweep finished with permanently failed points\n"
      "  7  daemon error (--daemon socket unreachable or protocol "
      "failure)\n";
  return 0;
}

int list_points(const std::string& spec_path) {
  try {
    const sst::dse::SweepSpec spec = sst::dse::load_spec(spec_path);
    const auto points = sst::dse::generate_points(spec);
    std::cout << "sweep '" << spec.name << "': " << points.size()
              << " points (cross product " << spec.cross_size() << ")\n";
    for (const auto& p : points) {
      std::cout << "  point " << p.id;
      for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        std::cout << "  " << spec.axes[a].name << "=" << p.values[a];
      }
      std::cout << "\n";
    }
    return 0;
  } catch (const sst::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return sst::dse::kSweepExitConfig;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Points run on workers forked from this process.
  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();

  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") return help(argv[0]);

  std::string target;
  std::string out_dir;
  std::string daemon_socket;
  unsigned jobs = 0;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--out") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        out_dir = v;
      } else if (arg == "--jobs") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        jobs =
            static_cast<unsigned>(sst::parse_count(arg, v, 1, UINT32_MAX));
      } else if (arg == "--sstsim") {
        std::cerr << "--sstsim was removed: sweep points run on worker "
                     "processes forked by sstdse, not on an sstsim binary\n";
        return sst::dse::kSweepExitConfig;
      } else if (arg == "--daemon") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        daemon_socket = v;
      } else if (arg == "-q" || arg == "--quiet") {
        quiet = true;
      } else if (arg.rfind("-", 0) == 0) {
        std::cerr << "unknown option " << arg << "\n";
        return usage(argv[0]);
      } else if (target.empty()) {
        target = arg;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad value: " << e.what() << "\n";
      return usage(argv[0]);
    }
  }
  if (target.empty()) {
    std::cerr << cmd << " requires an argument\n";
    return usage(argv[0]);
  }

  if (cmd == "run") {
    sst::dse::DriverOptions opts;
    opts.spec_path = target;
    opts.out_dir = out_dir;
    opts.jobs = jobs;
    opts.quiet = quiet;
    opts.daemon_socket = daemon_socket;
    return sst::dse::run_sweep(opts, std::cout, std::cerr);
  }
  if (cmd == "resume") {
    return sst::dse::resume_sweep(target, jobs, quiet, std::cout, std::cerr,
                                  daemon_socket);
  }
  if (cmd == "report") {
    return sst::dse::report_sweep(target, std::cout, std::cerr);
  }
  if (cmd == "points") {
    return list_points(target);
  }
  std::cerr << "unknown subcommand '" << cmd << "'\n";
  return usage(argv[0]);
}
