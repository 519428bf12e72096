// sstsim — run a JSON-described system from the command line.
//
//   sstsim <system.json> [options]
//
// Options:
//   --stats <file>       write statistics here ("-" = stdout; default:
//                        console table on stdout)
//   --stats-format <f>   console | csv | json (default: by file extension)
//   --trace <file.json>  write a Chrome trace-event JSON of the run
//   --trace-engine       include rank-dependent sync-window spans
//   --metrics <file>     write periodic JSONL metrics snapshots
//   --metrics-period <t> snapshot period, e.g. "1ms" (default 1ms)
//   --profile-engine     engine self-profiling stats + metrics lines
//   --validate           validate the description and exit
//   --ranks <n>          override the parallel rank count
//   --end <time>         override the end time, e.g. "2ms"
//   --seed <n>           override the global seed
//   --fault-seed <n>     override the fault-injection seed
//   --override <p>=<v>   apply a ConfigGraph override (the same paths a
//                        sweep axis uses, e.g. /vm/enable=false or
//                        /components/l1/params/size=64KiB); repeatable;
//                        setting flags apply after these
//   --watchdog <secs>    abort with diagnostics after this much wall clock
//   --checkpoint-period <t>  write a snapshot every <t> of simulated time
//   --checkpoint-wall <secs> write a snapshot every <secs> of wall clock
//   --checkpoint-dir <dir>   snapshot directory (default "ckpt")
//   --checkpoint-keep <n>    rotating retention (default 3)
//   --restart <path>     resume from a checkpoint file or directory
//                        (replaces <system.json>; outputs byte-identical
//                        to the uninterrupted run at any --ranks)
//   --sweep <spec.json>  run a design-space sweep (shorthand for sstdse
//                        run; points run on forked worker processes)
//   --sweep-out <dir>    sweep output directory (default <spec>.sweep)
//   --jobs <n>           sweep worker concurrency override
//   --daemon <socket>    submit the model to the sstsimd daemon on this
//                        unix socket instead of simulating in-process;
//                        exits with the run's contract code
//   --daemon-out <dir>   request output directory for --daemon
//                        (request.json + stats.json; default ".")
//   --daemon-id <id>     explicit request id for --daemon (resubmitting
//                        a finished id replays the recorded result)
//   --list-components    print registered component types with their
//                        declared parameters and exit
//   --help               print options and the exit-code contract
//   --version            print the version and exit
//
// Exit codes:
//   0  success
//   1  runtime simulation failure
//   2  usage or configuration error
//   3  watchdog abort (wall-clock budget exceeded)
//   4  deadlock detected (queues drained, primaries unsatisfied)
//   5  restart failed (checkpoint unreadable, corrupt, version-mismatched,
//      or inconsistent with the rebuilt model)
//   6  sweep failed (one or more points failed permanently)
//   7  daemon error (sstsimd unreachable, rejected the request, or a
//      protocol failure; reserved for daemon-side faults)
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/params.h"
#include "ckpt/checkpoint.h"
#include "daemon/client.h"
#include "dse/driver.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "vm/vm_lib.h"
#include "sdl/config_graph.h"
#include "sdl/settings.h"

#ifndef SSTSIM_VERSION
#define SSTSIM_VERSION "dev"
#endif

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitConfig = 2;
constexpr int kExitWatchdog = 3;
constexpr int kExitDeadlock = 4;
constexpr int kExitRestartFailed = 5;
constexpr int kExitDaemon = 7;

void print_options(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " <system.json> [--stats out] [--stats-format console|csv|json]"
        " [--trace out.json] [--trace-engine]"
        " [--metrics out.jsonl] [--metrics-period TIME]"
        " [--profile-engine] [--validate]"
        " [--ranks N] [--end TIME] [--seed N] [--fault-seed N]"
        " [--override /path=value]..."
        " [--rebalance] [--rebalance-threshold X]"
        " [--rebalance-period N] [--rebalance-max-moves N]"
        " [--watchdog SECS]"
        " [--checkpoint-period TIME] [--checkpoint-wall SECS]"
        " [--checkpoint-dir DIR] [--checkpoint-keep N]"
        " [--list-components] [--help] [--version]\n"
     << "       " << argv0
     << " --restart <checkpoint-file-or-dir> [output/override options]\n"
     << "       " << argv0
     << " --sweep <sweep.json> [--sweep-out DIR] [--jobs N]\n"
     << "       " << argv0
     << " <system.json> --daemon SOCKET [--daemon-out DIR]"
        " [--daemon-id ID]\n";
}

int usage(const char* argv0) {
  print_options(std::cerr, argv0);
  return kExitConfig;
}

int help(const char* argv0) {
  print_options(std::cout, argv0);
  std::cout <<
      "\nRun settings (README.md \"Run settings\"):\n"
      "  A setting flag is the override of its path (--ranks N is\n"
      "  --override /config/num_ranks=N), applied after the --override\n"
      "  entries.\n"
      "\nCheckpointing:\n"
      "  --checkpoint-period TIME   snapshot every TIME of simulated time\n"
      "                             (each snapshot holds the events before\n"
      "                             its mark, at any rank count)\n"
      "  --checkpoint-wall SECS     snapshot every SECS of wall clock\n"
      "  --checkpoint-dir DIR       snapshot directory (default \"ckpt\")\n"
      "  --checkpoint-keep N        keep only the newest N snapshots "
      "(default 3)\n"
      "  --restart PATH             resume from a checkpoint file or from\n"
      "                             the newest intact snapshot in a\n"
      "                             directory; a corrupt file falls back to\n"
      "                             the newest intact sibling.  Any --ranks\n"
      "                             resumes it; with --profile-engine or\n"
      "                             --trace-engine, only the rank count\n"
      "                             that wrote it\n"
      "\nParallel runs (--ranks N > 1; see DESIGN.md):\n"
      "  Ranks synchronize at the exact causal horizon: a window ends\n"
      "  where the earliest cross-rank event of the next window could\n"
      "  land (a rank's next event time plus its minimum outgoing\n"
      "  cross-rank link latency), at most 10us past the earliest\n"
      "  pending event.  Results are byte-identical to the one-rank run.\n"
      "\nOnline repartitioning (parallel runs; see DESIGN.md):\n"
      "  --rebalance                migrate components between ranks at\n"
      "                             sync barriers when the per-epoch event\n"
      "                             imbalance exceeds the threshold; model\n"
      "                             results stay byte-identical\n"
      "  --rebalance-threshold X    max/mean event-rate ratio that\n"
      "                             triggers a pass (default 1.5)\n"
      "  --rebalance-period N       check every N sync windows "
      "(default 8)\n"
      "  --rebalance-max-moves N    component moves per pass (default 8)\n"
      "\nDesign-space sweeps:\n"
      "  --sweep SPEC               run the sweep described by SPEC on a\n"
      "                             pool of forked worker processes, with\n"
      "                             a crash-consistent ledger and a Pareto\n"
      "                             report (equivalent to: sstdse run SPEC)\n"
      "  --sweep-out DIR            sweep output directory\n"
      "                             (default <spec stem>.sweep)\n"
      "  --jobs N                   sweep worker concurrency override\n"
      "\nDaemon submission (see sstsimd --help):\n"
      "  --daemon SOCKET            submit the model to the sstsimd\n"
      "                             daemon on this unix socket; the run\n"
      "                             executes in a daemon worker process\n"
      "                             and this command exits with the\n"
      "                             run's contract code below\n"
      "  --daemon-out DIR           request output directory (receives\n"
      "                             request.json + stats.json;\n"
      "                             default \".\")\n"
      "  --daemon-id ID             explicit request id; resubmitting a\n"
      "                             finished id replays the recorded\n"
      "                             result without re-running\n"
      "\nExit codes:\n"
      "  0  success\n"
      "  1  runtime simulation failure\n"
      "  2  usage or configuration error\n"
      "  3  watchdog abort (wall-clock budget exceeded)\n"
      "  4  deadlock detected (queues drained, primaries unsatisfied)\n"
      "  5  restart failed (checkpoint unreadable, corrupt,\n"
      "     version-mismatched, or inconsistent with the rebuilt model)\n"
      "  6  sweep failed (one or more points failed permanently)\n"
      "  7  daemon error (sstsimd unreachable, rejected the request, or\n"
      "     a protocol failure; reserved for daemon-side faults)\n";
  return 0;
}

/// Prints the factory registry: every component type with its declared
/// parameters, the only keys a model may set for it.
void list_components(std::ostream& os) {
  const sst::Factory& factory = sst::Factory::instance();
  for (const auto& type : factory.registered_types()) {
    os << type << "\n";
    for (const auto& doc : factory.param_docs(type)) {
      os << "  " << doc.name;
      if (doc.default_value.empty()) {
        os << " (required)";
      } else {
        os << " (default " << doc.default_value << ")";
      }
      if (!doc.description.empty()) os << "  " << doc.description;
      os << "\n";
    }
  }
}

/// Resolves the stats output format: explicit flag/config wins, then the
/// output file extension, then console (no file) / csv (file).
std::string resolve_stats_format(const std::string& requested,
                                 const std::string& path) {
  if (!requested.empty()) return requested;
  if (path.size() > 4 && path.rfind(".csv") == path.size() - 4) return "csv";
  if (path.size() > 5 && path.rfind(".json") == path.size() - 5) {
    return "json";
  }
  if (path.empty() || path == "-") return "console";
  return "csv";
}

void write_stats(const sst::StatisticsRegistry& stats, std::ostream& os,
                 const std::string& format) {
  if (format == "csv") {
    stats.write_csv(os);
  } else if (format == "json") {
    stats.write_json(os);
  } else {
    stats.write_console(os);
  }
}

/// Submits the model to sstsimd and waits for the outcome; returns the
/// run's contract code.
int run_on_daemon(const std::string& socket,
                  const sst::daemon::RunRequest& req) {
  try {
    sst::daemon::DaemonClient client(socket);
    client.send(req);
    for (;;) {
      const sst::daemon::DaemonReply reply =
          sst::daemon::parse_daemon_reply(client.next_reply());
      if (reply.type == "accepted") continue;  // wait for the outcome
      if (reply.type == "rejected") {
        std::cerr << "daemon rejected the request: " << reply.reason << "\n";
        return kExitDaemon;
      }
      if (reply.type == "done") {
        if (reply.status == "ok") {
          std::cerr << "daemon run ok (" << reply.attempts
                    << " attempt(s)); statistics written to " << reply.stats
                    << "\n";
          return 0;
        }
        std::cerr << "daemon run " << reply.status << ": " << reply.error
                  << "\n";
        return reply.exit_code != 0 ? reply.exit_code : kExitRuntime;
      }
      std::cerr << "daemon error: " << reply.error << "\n";
      return kExitDaemon;
    }
  } catch (const sst::daemon::DaemonError& e) {
    std::cerr << e.what() << "\n";
    return kExitDaemon;
  }
}

}  // namespace

int main(int argc, char** argv) {
  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();

  std::string input;
  bool validate_only = false;
  std::string restart_path;
  std::string sweep_path;
  std::string sweep_out;
  unsigned sweep_jobs = 0;
  std::string daemon_socket;
  std::string daemon_out;
  std::string daemon_id;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<std::pair<const sst::sdl::SettingFlag*, std::string>>
      flag_settings;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Null when the option is missing its value; callers fall through to
    // usage() instead of dying mid-parse.
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list-components") {
      list_components(std::cout);
      return 0;
    }
    if (arg == "--version") {
      std::cout << "sstsim " << SSTSIM_VERSION << "\n";
      return 0;
    }
    if (arg == "--help") {
      return help(argv[0]);
    }
    try {
      const auto* f = std::ranges::find(sst::sdl::kSettingFlags, arg,
                                        &sst::sdl::SettingFlag::flag);
      if (f != std::ranges::end(sst::sdl::kSettingFlags)) {
        const char* v = f->fixed != nullptr ? f->fixed : next();
        if (v == nullptr) return usage(argv[0]);
        // Checked here, so a bad value fails naming the flag.
        sst::sdl::check_setting(f->path, v, arg);
        flag_settings.emplace_back(f, v);
      } else if (arg == "--validate") {
        validate_only = true;
      } else if (arg == "--override") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        const std::string kv = v;
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          std::cerr << "--override expects /path=value, got '" << kv
                    << "'\n";
          return usage(argv[0]);
        }
        overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      } else if (arg == "--sync-mode" || arg == "--lax-skew" ||
                 arg == "--sync-window-max") {
        std::cerr << arg
                  << " was removed with the lax and adaptive "
                     "synchronization modes; parallel runs always "
                     "synchronize at the exact causal horizon\n";
        return kExitConfig;
      } else if (arg == "--restart") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        restart_path = v;
      } else if (arg == "--sweep") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        sweep_path = v;
      } else if (arg == "--sweep-out") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        sweep_out = v;
      } else if (arg == "--jobs") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        sweep_jobs =
            static_cast<unsigned>(sst::parse_count(arg, v, 1, UINT32_MAX));
      } else if (arg == "--daemon") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        daemon_socket = v;
      } else if (arg == "--daemon-out") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        daemon_out = v;
      } else if (arg == "--daemon-id") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        daemon_id = v;
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "unknown option " << arg << "\n";
        return usage(argv[0]);
      } else if (input.empty()) {
        input = arg;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad value: " << e.what() << "\n";
      return usage(argv[0]);
    }
  }
  const bool daemon = !daemon_socket.empty();
  // The setting flags apply after the --override entries, so an explicit
  // flag wins over an --override of the same path.
  for (const auto& [f, value] : flag_settings) {
    if (daemon && (f->flag == "--stats" || f->flag == "--stats-format")) {
      std::cerr << f->flag << " does not apply with --daemon: the daemon "
                   "writes the statistics to <daemon-out>/stats.json\n";
      return kExitConfig;
    }
    overrides.emplace_back(f->path, value);
  }
  if (daemon) {
    if (input.empty() || !restart_path.empty() || !sweep_path.empty() ||
        validate_only) {
      std::cerr << "--daemon submits <system.json> to a running sstsimd; "
                   "it cannot be combined with --restart/--sweep/"
                   "--validate\n";
      return kExitConfig;
    }
  } else if (!daemon_out.empty() || !daemon_id.empty()) {
    std::cerr << "--daemon-out/--daemon-id only apply together with "
                 "--daemon\n";
    return kExitConfig;
  }
  if (!sweep_path.empty()) {
    if (!input.empty() || !restart_path.empty()) {
      std::cerr << "--sweep runs a batch of simulations; drop the "
                   "<system.json> / --restart arguments\n";
      return kExitConfig;
    }
    sst::dse::DriverOptions opts;
    opts.spec_path = sweep_path;
    opts.out_dir = sweep_out;
    opts.jobs = sweep_jobs;
    return sst::dse::run_sweep(opts, std::cout, std::cerr);
  }
  if (!sweep_out.empty() || sweep_jobs > 0) {
    std::cerr << "--sweep-out/--jobs only apply together with --sweep\n";
    return kExitConfig;
  }
  const bool restarting = !restart_path.empty();
  if (restarting && !input.empty()) {
    std::cerr << "--restart rebuilds the model from the system description "
                 "embedded in the checkpoint; drop the <system.json> "
                 "argument\n";
    return kExitConfig;
  }
  if (!restarting && input.empty()) return usage(argv[0]);

  sst::sdl::ConfigGraph graph;
  sst::ckpt::CheckpointData ckpt_data;
  std::string ckpt_loaded_path;
  std::string model_text;
  if (restarting) {
    try {
      ckpt_data = sst::ckpt::load_checkpoint(restart_path, &ckpt_loaded_path);
    } catch (const sst::ckpt::CheckpointError& e) {
      std::cerr << "restart failed: " << e.what() << "\n";
      return kExitRestartFailed;
    }
    try {
      graph = sst::sdl::ConfigGraph::from_json_text(ckpt_data.graph_json);
    } catch (const sst::ConfigError& e) {
      std::cerr << "restart failed: " << ckpt_loaded_path
                << ": embedded system description is invalid: " << e.what()
                << "\n";
      return kExitRestartFailed;
    }
    input = ckpt_loaded_path;
  } else {
    std::ifstream in(input);
    if (!in) {
      std::cerr << "cannot open " << input << "\n";
      return kExitConfig;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    model_text = buf.str();
    try {
      graph = sst::sdl::ConfigGraph::from_json_text(model_text);
    } catch (const sst::ConfigError& e) {
      std::cerr << input << ": " << e.what() << "\n";
      return kExitConfig;
    }
  }
  // Overrides and setting flags also override the settings embedded in a
  // checkpoint on restart.
  try {
    for (const auto& [path, value] : overrides) {
      graph.apply_override(path, value);
    }
  } catch (const sst::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return kExitConfig;
  }
  const sst::SimConfig& sc = graph.sim_config();
  if (daemon) {
    // The worker applies the same overrides to the same bytes.  A watchdog
    // the model or the command line sets, 0 (off) included, is also the
    // request's deadline; without one the daemon's default applies.
    sst::daemon::RunRequest req;
    req.id = daemon_id;
    req.model_json = model_text;
    req.out_dir = daemon_out.empty() ? "." : daemon_out;
    bool watchdog_set = sc.watchdog_seconds > 0;
    for (const auto& [path, value] : overrides) {
      req.set_override(path, value);
      watchdog_set |= path == "/config/watchdog_seconds";
    }
    if (watchdog_set) req.timeout_seconds = sc.watchdog_seconds;
    // Harness hook (see daemon/protocol.h): lets the CLI contract tests
    // make a worker die by signal deterministically.
    if (const char* ts = std::getenv("SSTSIM_DAEMON_TEST_SIGNAL")) {
      req.test_signal = std::atoi(ts);
    }
    return run_on_daemon(daemon_socket, req);
  }

  const auto problems = graph.validate(sst::Factory::instance());
  if (!problems.empty()) {
    std::cerr << input << ": invalid system description:\n";
    for (const auto& p : problems) std::cerr << "  - " << p << "\n";
    return kExitConfig;
  }
  if (validate_only) {
    std::cout << input << ": OK (" << graph.components().size()
              << " components, " << graph.links().size() << " links"
              << (graph.network().present ? ", 1 network" : "")
              << (graph.faults().empty()
                      ? ""
                      : ", " +
                            std::to_string(graph.faults().links.size() +
                                           graph.faults().ports.size()) +
                            " fault rules")
              << ")\n";
    return 0;
  }

  try {
    auto sim = graph.build();
    if (restarting) {
      sim->initialize();
      sst::ckpt::CheckpointEngine::restore(*sim, std::move(ckpt_data.state));
      std::cerr << "[sst] restored from " << ckpt_loaded_path
                << " (snapshot " << ckpt_data.seq << ", t="
                << ckpt_data.sim_time << " ps)\n";
    }
    sst::ckpt::install_writer(
        *sim, [&graph] { return graph.to_json().dump(); },
        restarting ? ckpt_data.seq : 0);
    const sst::RunStats stats = sim->run();
    sst::print_done_line(std::cerr, stats);
    if (!sc.trace_path.empty()) {
      std::cerr << "trace written to " << sc.trace_path << "\n";
    }
    if (!sc.metrics_path.empty()) {
      std::cerr << "metrics written to " << sc.metrics_path << "\n";
    }
    const std::string format =
        resolve_stats_format(sc.stats_format, sc.stats_path);
    if (sc.stats_path.empty() || sc.stats_path == "-") {
      write_stats(sim->stats(), std::cout, format);
    } else {
      std::ofstream out(sc.stats_path);
      if (!out) {
        std::cerr << "cannot write " << sc.stats_path << "\n";
        return kExitRuntime;
      }
      write_stats(sim->stats(), out, format);
      std::cerr << "statistics written to " << sc.stats_path << " ("
                << format << ")\n";
    }
  } catch (const sst::ckpt::CheckpointError& e) {
    std::cerr << "restart failed: " << e.what() << "\n";
    return kExitRestartFailed;
  } catch (const sst::WatchdogError& e) {
    std::cerr << "simulation aborted: " << e.what() << "\n";
    return kExitWatchdog;
  } catch (const sst::DeadlockError& e) {
    std::cerr << "simulation deadlocked: " << e.what() << "\n";
    return kExitDeadlock;
  } catch (const sst::ConfigError& e) {
    std::cerr << "configuration error: " << e.what() << "\n";
    return kExitConfig;
  } catch (const std::exception& e) {
    std::cerr << "simulation failed: " << e.what() << "\n";
    return kExitRuntime;
  }
  return 0;
}
