// ConfigGraph: a declarative description of a simulated system — the
// components, their parameters, and the links between them — decoupled
// from the C++ types that implement the models.  This is SST's SDL layer:
// systems can be written as JSON documents, validated, and instantiated
// through the Factory.
//
// JSON schema:
// {
//   "config": { "end_time": "1ms", "num_ranks": 2, "seed": 7,
//               "partition": "mincut" },
//   "components": [
//     { "name": "cpu0", "type": "proc.Core",
//       "params": { "clock": "2GHz", "issue_width": "4" },
//       "rank": 0 },
//     ...
//   ],
//   "links": [
//     { "from": "cpu0", "from_port": "mem", "to": "l1", "to_port": "cpu",
//       "latency": "1ns" },
//     ...
//   ],
//   // optional: wire listed endpoint components into a router fabric
//   "network": {
//     "topology": "torus2d",          // mesh2d|torus2d|torus3d|fattree|
//                                     // dragonfly
//     "x": 2, "y": 2,                 // (or leaves/spines/down, groups/...)
//     "routing": "minimal",           // or "valiant"
//     "link_bandwidth": "10GB/s", "link_latency": "20ns",
//     "endpoints": ["rank0", "rank1", "rank2", "rank3"]
//   },
//   // optional: virtual-memory defaults for vm.Tlb / vm.PageTableWalker
//   // components; component params win over these defaults.  enable=false
//   // turns every vm.Tlb into a pass-through (physical addressing) without
//   // touching the topology.
//   "vm": {
//     "enable": true,
//     "tlb": { "levels": 2, "l1_sets": 16, "l1_ways": 4 },
//     "walker": { "walk_depth": 4, "huge_pages": "promote" }
//   },
//   // optional: deterministic fault injection (see src/fault)
//   "faults": {
//     "seed": 99,                     // alias of config.fault_seed
//     "links": [
//       { "component": "rank0", "port": "net",
//         "drop": 0.01, "duplicate": 0.001, "delay": 0.05,
//         "delay_min": "10ns", "delay_max": "200ns",
//         "both": true }              // also fault the peer endpoint
//     ],
//     "ports": [
//       { "router": "rtr0", "port": 1,
//         "fail_at": "10us", "heal_at": "60us" }   // heal_at optional
//     ]
//   },
//   // optional: tracing / self-profiling / stats output (see src/obs)
//   "observability": {
//     "trace": "run.trace.json",      // path, or true for in-memory only
//     "trace_engine": false,          // add rank-dependent sync-window spans
//     "metrics": "run.metrics.jsonl", // path, or true for in-memory only
//     "metrics_period": "1ms",
//     "profile_engine": false,        // engine.rankN statistics + lines
//     "stats": "stats.csv",           // stats dump path ("-" = stdout)
//     "stats_format": "csv"           // console | csv | json
//   },
//   // optional: snapshots for --restart (see src/ckpt)
//   "checkpointing": { "period": "1ms", "wall_seconds": 300,
//                      "dir": "ckpt", "keep": 3 }
// }
//
// A component's "params", and the "vm" section's "tlb" and "walker"
// defaults, may use only the keys that vm.Tlb, vm.PageTableWalker or the
// component's type declares in its Factory registration (sstsim
// --list-components prints them); validate() rejects any other key, so a
// misspelled one fails alike from the document, an override, a daemon
// request or a sweep axis.
//
// Every scalar member of "config", "observability", "checkpointing" and
// "network" is a run setting (settings.h): a string, number or bool read
// as the text its row parses, so "seed": 7 and "seed": "7" are the same.
// Any other key of those sections is an error listing the section's keys.
// "sync_mode" is accepted only as "conservative", and the removed
// lax/adaptive keys "lax_skew" and "sync_window_max" are rejected with a
// message naming the removal (DESIGN.md "Synchronization").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/params.h"
#include "core/simulation.h"
#include "net/topology.h"
#include "sdl/json.h"

namespace sst::sdl {

struct ConfigComponent {
  std::string name;
  std::string type;
  Params params;
  std::optional<RankId> rank;
};

struct ConfigLink {
  std::string from, from_port;
  std::string to, to_port;
  std::string latency = "1ns";          // UnitAlgebra time
  std::optional<std::string> latency_back;  // reverse direction override
};

/// Declarative router-fabric description (optional).
struct ConfigNetwork {
  bool present = false;
  net::TopologySpec spec;
  std::vector<std::string> endpoints;  // component names, node order
};

/// Probabilistic fault model on one link endpoint (the sending side of
/// component.port); `both` also faults the peer endpoint with its own
/// independent stream.
struct ConfigLinkFault {
  std::string component;
  std::string port;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  std::string delay_min = "0ps";
  std::string delay_max = "0ps";
  bool both = false;
};

/// Timed router port failure (optionally healing later).
struct ConfigPortFault {
  std::string router;
  std::uint32_t port = 0;
  std::string fail_at;
  std::optional<std::string> heal_at;
};

struct ConfigFaults {
  std::vector<ConfigLinkFault> links;
  std::vector<ConfigPortFault> ports;
  [[nodiscard]] bool empty() const { return links.empty() && ports.empty(); }
};

/// Virtual-memory section (optional): defaults merged under every vm.Tlb /
/// vm.PageTableWalker component's params (component params win), plus an
/// enable switch that degrades every vm.Tlb to a pass-through and stops
/// proc.Core components from emitting virtual addresses.
struct ConfigVm {
  bool present = false;
  bool enable = true;
  Params tlb_defaults;
  Params walker_defaults;
};

class ConfigGraph {
 public:
  ConfigGraph() = default;

  ConfigComponent& add_component(std::string name, std::string type,
                                 Params params = {});
  ConfigLink& add_link(std::string from, std::string from_port,
                       std::string to, std::string to_port,
                       std::string latency = "1ns");

  [[nodiscard]] const std::vector<ConfigComponent>& components() const {
    return components_;
  }
  [[nodiscard]] const std::vector<ConfigLink>& links() const {
    return links_;
  }
  [[nodiscard]] SimConfig& sim_config() { return sim_config_; }
  [[nodiscard]] const SimConfig& sim_config() const { return sim_config_; }
  [[nodiscard]] ConfigNetwork& network() { return network_; }
  [[nodiscard]] const ConfigNetwork& network() const { return network_; }
  [[nodiscard]] ConfigFaults& faults() { return faults_; }
  [[nodiscard]] const ConfigFaults& faults() const { return faults_; }
  [[nodiscard]] ConfigVm& vm() { return vm_; }
  [[nodiscard]] const ConfigVm& vm() const { return vm_; }

  /// Structural validation: unique names, known types (against the given
  /// factory), only the params each type declares (component params and
  /// the vm tlb/walker defaults), link endpoints exist, no port used
  /// twice, parsable latencies.  Returns the list of problems (empty =
  /// valid).
  [[nodiscard]] std::vector<std::string> validate(
      const Factory& factory) const;

  /// Throws ConfigError listing validate()'s problems, if any.
  void check(const Factory& factory = Factory::instance()) const;

  /// Instantiates the graph into a fresh Simulation.  Throws ConfigError
  /// when validation fails.
  [[nodiscard]] std::unique_ptr<Simulation> build(
      const Factory& factory = Factory::instance()) const;

  /// JSON round trip.  to_json writes each run setting that differs
  /// from its default as its row's text in a JSON string, so emit ->
  /// re-parse -> emit is byte-identical and u64 seeds survive.
  [[nodiscard]] static ConfigGraph from_json(const JsonValue& doc);
  [[nodiscard]] static ConfigGraph from_json_text(std::string_view text);
  [[nodiscard]] JsonValue to_json() const;

  /// Applies a single JSON-pointer-style override to the graph:
  ///
  ///   /config/<key>                     engine settings (seed, end_time,
  ///                                     num_ranks, partition, ...)
  ///   /observability/<key>              trace, metrics and stats output
  ///   /checkpointing/<key>              snapshot period, dir, keep, ...
  ///   /network/<key>                    fabric settings (topology, x, y,
  ///                                     link_latency, routing, ...)
  ///   /components/<name>/params/<key>   a component parameter
  ///   /components/<name>/rank           pin the component to a rank
  ///   /links/<index>/latency[_back]     link latency overrides
  ///   /vm/enable                        virtual addressing on/off
  ///   /vm/tlb/<key>                     vm.Tlb default parameter
  ///   /vm/walker/<key>                  vm.PageTableWalker default parameter
  ///
  /// The first four roots are the run settings, parsed by the same row as
  /// the SDL member and the sstsim flag; a bad value fails naming the
  /// path.  This is the substrate of DSE sweep axes, sstsim's overrides
  /// and daemon requests.  Unknown paths throw ConfigError naming the
  /// valid alternatives at the failing segment so sweep authors can
  /// self-correct.
  void apply_override(std::string_view path, const std::string& value);

 private:
  /// Peer endpoint of (component, port) among the explicit links; throws
  /// ConfigError when the port is not on any explicit link.
  [[nodiscard]] std::pair<std::string, std::string> link_peer(
      const std::string& component, const std::string& port) const;

  std::vector<ConfigComponent> components_;
  std::vector<ConfigLink> links_;
  ConfigNetwork network_;
  ConfigFaults faults_;
  ConfigVm vm_;
  SimConfig sim_config_;
};

}  // namespace sst::sdl
