// sstsimd — the simulation-as-a-service daemon: a persistent server
// accepting run requests over a Unix-domain socket so repeated
// simulations (DSE sweeps, CI batteries, interactive exploration) pay a
// socket round trip per run instead of a fork/exec + SDL re-parse.
//
//   sstsimd --socket PATH [options]       serve (foreground)
//   sstsimd --socket PATH --status        print a health snapshot, exit
//   sstsimd --socket PATH --drain         ask the daemon to finish its
//                                         accepted work and exit
//
// Options:
//   --socket PATH    unix-domain socket to serve on (required)
//   --state DIR      request ledger + metrics directory
//                    (default <socket>.state)
//   --workers N      pre-forked worker processes (default 4)
//   --queue N        admission queue bound; beyond it requests are shed
//                    with an explicit `rejected: overloaded` (default 64)
//   --cache N        resident parsed ConfigGraphs (default 64)
//   --verbose        per-request lifecycle notes on stderr
//   --help, --version
//
// Hardened lifecycle (see DESIGN.md "Daemon request lifecycle"): every
// request runs in a pre-forked worker process, so crashing / hanging /
// OOMing simulations cannot take the daemon down; dead workers are
// reaped, diagnosed via the sstsim exit-code contract, and respawned.
// Accepted requests are recorded in a crash-consistent ledger before
// they are acknowledged — kill -9 the daemon at any moment, restart it,
// and it completes every accepted-but-unfinished request exactly once.
//
// Exit codes:
//   0  clean drain (SIGTERM/SIGINT/--drain)
//   2  usage error
//   7  daemon error (socket in use or unreachable, unusable state dir)
#include <cstdint>
#include <iostream>
#include <string>

#include "core/params.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "vm/vm_lib.h"

#ifndef SSTSIM_VERSION
#define SSTSIM_VERSION "dev"
#endif

namespace {

constexpr int kExitConfig = 2;
constexpr int kExitDaemon = 7;

void print_options(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " --socket PATH [--state DIR] [--workers N] [--queue N]"
        " [--cache N] [--verbose]\n"
     << "       " << argv0 << " --socket PATH --status\n"
     << "       " << argv0 << " --socket PATH --drain\n";
}

int usage(const char* argv0) {
  print_options(std::cerr, argv0);
  return kExitConfig;
}

int help(const char* argv0) {
  print_options(std::cout, argv0);
  std::cout <<
      "\nServe mode (foreground):\n"
      "  --socket PATH   unix-domain socket to serve on\n"
      "  --state DIR     request ledger + metrics directory\n"
      "                  (default <socket>.state)\n"
      "  --workers N     pre-forked worker processes (default 4)\n"
      "  --queue N       admission queue bound; requests beyond it are\n"
      "                  shed with `rejected: overloaded` (default 64)\n"
      "  --cache N       resident parsed ConfigGraphs (default 64)\n"
      "  --verbose       per-request lifecycle notes on stderr\n"
      "\nClient mode:\n"
      "  --status        print the daemon's health snapshot and exit\n"
      "  --drain         finish accepted work, refuse new, exit\n"
      "\nClients: sstsim <model> --daemon PATH runs one model through\n"
      "the daemon; sstdse run/resume --daemon PATH submits a sweep.\n"
      "\nExit codes:\n"
      "  0  clean drain\n"
      "  2  usage error\n"
      "  7  daemon error (socket in use or unreachable, unusable state\n"
      "     dir, protocol failure)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sst::mem::register_library();
  sst::proc::register_library();
  sst::vm::register_library();
  sst::net::register_library();

  sst::daemon::DaemonOptions options;
  bool status = false;
  bool drain = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help") return help(argv[0]);
    if (arg == "--version") {
      std::cout << "sstsimd " << SSTSIM_VERSION << "\n";
      return 0;
    }
    try {
      if (arg == "--socket") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.socket_path = v;
      } else if (arg == "--state") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.state_dir = v;
      } else if (arg == "--workers") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.workers =
            static_cast<unsigned>(sst::parse_count(arg, v, 1, UINT32_MAX));
      } else if (arg == "--queue") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.queue_capacity = sst::parse_count(arg, v, 1, SIZE_MAX);
      } else if (arg == "--cache") {
        const char* v = next();
        if (v == nullptr) return usage(argv[0]);
        options.cache_capacity = sst::parse_count(arg, v, 1, SIZE_MAX);
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--status") {
        status = true;
      } else if (arg == "--drain") {
        drain = true;
      } else {
        std::cerr << "unknown option " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << "bad value: " << e.what() << "\n";
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << "--socket is required\n";
    return usage(argv[0]);
  }

  if (status || drain) {
    try {
      sst::daemon::DaemonClient client(options.socket_path);
      const sst::sdl::JsonValue reply =
          status ? client.status() : client.drain();
      std::cout << reply.dump(2) << "\n";
      return 0;
    } catch (const sst::daemon::DaemonError& e) {
      std::cerr << e.what() << "\n";
      return kExitDaemon;
    }
  }

  try {
    sst::daemon::Daemon daemon(std::move(options));
    return daemon.run();
  } catch (const sst::daemon::DaemonError& e) {
    std::cerr << "sstsimd: " << e.what() << "\n";
    return kExitDaemon;
  } catch (const std::exception& e) {
    std::cerr << "sstsimd: " << e.what() << "\n";
    return kExitDaemon;
  }
}
