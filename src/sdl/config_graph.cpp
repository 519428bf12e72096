#include "sdl/config_graph.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <string_view>
#include <utility>

#include "ckpt/migrate.h"
#include "core/unit_algebra.h"
#include "fault/fault_model.h"
#include "net/router.h"

namespace sst::sdl {

namespace {

net::TopologySpec::Kind topology_kind(const std::string& name) {
  using Kind = net::TopologySpec::Kind;
  if (name == "mesh2d") return Kind::kMesh2D;
  if (name == "torus2d") return Kind::kTorus2D;
  if (name == "torus3d") return Kind::kTorus3D;
  if (name == "fattree") return Kind::kFatTree;
  if (name == "dragonfly") return Kind::kDragonfly;
  throw ConfigError("unknown network topology '" + name +
                    "' (known: mesh2d, torus2d, torus3d, fattree, "
                    "dragonfly)");
}

const char* topology_name(net::TopologySpec::Kind kind) {
  using Kind = net::TopologySpec::Kind;
  switch (kind) {
    case Kind::kMesh2D: return "mesh2d";
    case Kind::kTorus2D: return "torus2d";
    case Kind::kTorus3D: return "torus3d";
    case Kind::kFatTree: return "fattree";
    case Kind::kDragonfly: return "dragonfly";
  }
  return "?";
}

PartitionStrategy partition_from_string(const std::string& name) {
  if (name == "linear") return PartitionStrategy::kLinear;
  if (name == "roundrobin") return PartitionStrategy::kRoundRobin;
  if (name == "mincut") return PartitionStrategy::kMinCut;
  throw ConfigError("unknown partition strategy '" + name +
                    "' (known: linear, roundrobin, mincut)");
}

// The keys the "config" section accepts: from_json reads exactly these
// and apply_override sets exactly these.  Error messages list them in
// this order.
constexpr std::string_view kConfigKeys[] = {
    "end_time", "num_ranks", "seed", "fault_seed", "partition", "sync_mode",
    "rebalance_mode", "rebalance_threshold", "rebalance_period",
    "rebalance_max_moves", "watchdog_seconds", "detect_deadlock", "verbose"};

/// Why a "config" key outside kConfigKeys is rejected.
std::string config_key_error(const std::string& key) {
  if (key == "lax_skew" || key == "sync_window_max") {
    return "config key '" + key +
           "' was removed with the lax and adaptive synchronization "
           "modes; parallel runs always synchronize at the exact causal "
           "horizon";
  }
  std::string known;
  for (const std::string_view k : kConfigKeys) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  return "unknown config key '" + key + "' (known: " + known + ")";
}

/// "conservative" is the only synchronization mode left; it is still
/// accepted so existing descriptions keep working.
void check_sync_mode(const std::string& name) {
  if (name == "conservative") return;
  throw ConfigError("sync_mode '" + name +
                    "' is not supported: the lax and adaptive modes were "
                    "removed and parallel runs always synchronize at the "
                    "exact causal horizon (only \"conservative\" is "
                    "accepted)");
}

bool rebalance_mode_from_string(const std::string& name) {
  if (name == "on") return true;
  if (name == "off") return false;
  throw ConfigError("unknown rebalance mode '" + name +
                    "' (known: on, off)");
}

const char* partition_name(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kLinear: return "linear";
    case PartitionStrategy::kRoundRobin: return "roundrobin";
    case PartitionStrategy::kMinCut: return "mincut";
  }
  return "?";
}

/// A JSON number as the text an override would carry: plain decimal,
/// shortest round-trip digits.
std::string number_text(double d) {
  char buf[400];  // fits every finite double in fixed notation
  return {buf, std::to_chars(buf, buf + sizeof buf, d,
                             std::chars_format::fixed).ptr};
}

/// Reads a JSON object of scalar values into `out` as stringified params;
/// `ctx` prefixes error messages ("component 'cpu0'", "vm tlb", ...).
void read_scalar_params(const JsonValue& jp, const std::string& ctx,
                        Params& out) {
  for (const auto& [k, v] : jp.as_object()) {
    if (v.is_string()) {
      out.set(k, v.as_string());
    } else if (v.is_number()) {
      // Normalize integral numbers to integer strings.
      const double d = v.as_number();
      if (d == static_cast<double>(static_cast<long long>(d))) {
        out.set(k, std::to_string(static_cast<long long>(d)));
      } else {
        out.set(k, std::to_string(d));
      }
    } else if (v.is_bool()) {
      out.set(k, v.as_bool() ? "true" : "false");
    } else {
      throw ConfigError(ctx + " param '" + k + "' must be a scalar");
    }
  }
}

/// Fault probabilities + parsed delay bounds for one ConfigLinkFault.
/// Throws ConfigError on bad times or probabilities.
fault::LinkFaultConfig link_fault_config(const ConfigLinkFault& f) {
  fault::LinkFaultConfig cfg;
  cfg.drop_prob = f.drop;
  cfg.dup_prob = f.duplicate;
  cfg.delay_prob = f.delay;
  cfg.delay_min = UnitAlgebra(f.delay_min).to_simtime();
  cfg.delay_max = UnitAlgebra(f.delay_max).to_simtime();
  cfg.validate();
  return cfg;
}

}  // namespace

ConfigComponent& ConfigGraph::add_component(std::string name,
                                            std::string type, Params params) {
  components_.push_back(
      {std::move(name), std::move(type), std::move(params), std::nullopt});
  return components_.back();
}

ConfigLink& ConfigGraph::add_link(std::string from, std::string from_port,
                                  std::string to, std::string to_port,
                                  std::string latency) {
  links_.push_back({std::move(from), std::move(from_port), std::move(to),
                    std::move(to_port), std::move(latency), std::nullopt});
  return links_.back();
}

std::vector<std::string> ConfigGraph::validate(const Factory& factory) const {
  std::vector<std::string> problems;
  std::set<std::string> names;
  for (const auto& c : components_) {
    if (c.name.empty()) problems.push_back("component with empty name");
    if (!names.insert(c.name).second) {
      problems.push_back("duplicate component name '" + c.name + "'");
    }
    if (!factory.known(c.type)) {
      problems.push_back("component '" + c.name + "' has unknown type '" +
                         c.type + "'");
    }
    if (c.rank && *c.rank >= sim_config_.num_ranks) {
      problems.push_back("component '" + c.name + "' pinned to rank " +
                         std::to_string(*c.rank) + " but num_ranks is " +
                         std::to_string(sim_config_.num_ranks));
    }
  }
  if (network_.present) {
    if (network_.endpoints.size() != network_.spec.expected_nodes()) {
      problems.push_back(
          "network topology expects " +
          std::to_string(network_.spec.expected_nodes()) +
          " endpoints, got " + std::to_string(network_.endpoints.size()));
    }
    std::set<std::string> seen;
    for (const auto& e : network_.endpoints) {
      if (!names.contains(e)) {
        problems.push_back("network endpoint references unknown component '" +
                           e + "'");
      }
      if (!seen.insert(e).second) {
        problems.push_back("network endpoint listed twice: '" + e + "'");
      }
    }
  }
  if (vm_.present && vm_.enable) {
    const bool any_tlb = std::any_of(
        components_.begin(), components_.end(),
        [](const ConfigComponent& c) { return c.type == "vm.Tlb"; });
    if (!any_tlb) {
      problems.push_back(
          "\"vm\" section is enabled but the model has no vm.Tlb component");
    }
  }
  if (!sim_config_.stats_format.empty() &&
      sim_config_.stats_format != "console" &&
      sim_config_.stats_format != "csv" &&
      sim_config_.stats_format != "json") {
    problems.push_back("unknown stats_format '" + sim_config_.stats_format +
                       "' (known: console, csv, json)");
  }
  if (sim_config_.metrics_period == 0) {
    problems.push_back("metrics_period must be >= 1ps");
  }
  std::set<std::pair<std::string, std::string>> used_ports;
  for (const auto& l : links_) {
    if (!names.contains(l.from)) {
      problems.push_back("link references unknown component '" + l.from +
                         "'");
    }
    if (!names.contains(l.to)) {
      problems.push_back("link references unknown component '" + l.to + "'");
    }
    if (!used_ports.insert({l.from, l.from_port}).second) {
      problems.push_back("port used twice: " + l.from + "." + l.from_port);
    }
    if (!used_ports.insert({l.to, l.to_port}).second) {
      problems.push_back("port used twice: " + l.to + "." + l.to_port);
    }
    for (const std::string* lat :
         {&l.latency, l.latency_back ? &*l.latency_back : nullptr}) {
      if (lat == nullptr) continue;
      try {
        if (UnitAlgebra(*lat).to_simtime() == 0) {
          problems.push_back("zero latency on link " + l.from + "." +
                             l.from_port + " <-> " + l.to + "." + l.to_port);
        }
      } catch (const ConfigError& e) {
        problems.push_back("bad latency '" + *lat + "': " + e.what());
      }
    }
  }
  for (const auto& f : faults_.links) {
    if (!names.contains(f.component)) {
      problems.push_back("link fault references unknown component '" +
                         f.component + "'");
    }
    try {
      (void)link_fault_config(f);
    } catch (const ConfigError& e) {
      problems.push_back("link fault on " + f.component + "." + f.port +
                         ": " + e.what());
    }
    if (f.both) {
      try {
        (void)link_peer(f.component, f.port);
      } catch (const ConfigError& e) {
        problems.emplace_back(e.what());
      }
    }
  }
  for (const auto& f : faults_.ports) {
    // Network-built routers (e.g. "rtr3") are created at build time, so
    // names can only be checked statically when no network is declared.
    if (!network_.present && !names.contains(f.router)) {
      problems.push_back("port fault references unknown router '" + f.router +
                         "'");
    }
    try {
      const SimTime fail_at = UnitAlgebra(f.fail_at).to_simtime();
      if (fail_at < 1) {
        problems.push_back("port fault on '" + f.router +
                           "': fail_at must be >= 1ps");
      }
      if (f.heal_at && UnitAlgebra(*f.heal_at).to_simtime() <= fail_at) {
        problems.push_back("port fault on '" + f.router +
                           "': heal_at must be after fail_at");
      }
    } catch (const ConfigError& e) {
      problems.push_back("port fault on '" + f.router + "': " + e.what());
    }
  }
  return problems;
}

std::pair<std::string, std::string> ConfigGraph::link_peer(
    const std::string& component, const std::string& port) const {
  for (const auto& l : links_) {
    if (l.from == component && l.from_port == port) return {l.to, l.to_port};
    if (l.to == component && l.to_port == port) return {l.from, l.from_port};
  }
  throw ConfigError("fault on " + component + "." + port +
                    ": 'both' requires an explicit \"links\" entry naming "
                    "this port (fault each network-built endpoint "
                    "separately)");
}

std::unique_ptr<Simulation> ConfigGraph::build(const Factory& factory) const {
  const auto problems = validate(factory);
  if (!problems.empty()) {
    std::string msg = "invalid ConfigGraph:";
    for (const auto& p : problems) msg += "\n  - " + p;
    throw ConfigError(msg);
  }
  auto sim = std::make_unique<Simulation>(sim_config_);
  std::uint32_t core_order = 0;
  for (const auto& c : components_) {
    Params params = c.params;  // components may mutate their param view
    if (vm_.present) {
      // Section defaults sit under the component's own params (which win);
      // enable=false degrades TLBs to pass-throughs and keeps cores on
      // physical addresses so the same topology benches vm_on vs vm_off.
      if (c.type == "vm.Tlb") {
        Params merged = vm_.tlb_defaults;
        merged.merge(params);
        params = std::move(merged);
        if (!vm_.enable) params.set("enabled", "false");
      } else if (c.type == "vm.PageTableWalker") {
        Params merged = vm_.walker_defaults;
        merged.merge(params);
        params = std::move(merged);
      } else if (c.type == "proc.Core") {
        if (vm_.enable && !params.contains("virt")) {
          params.set("virt", "true");
        }
        if (vm_.enable && !params.contains("asid")) {
          params.set("asid", std::to_string(core_order));
        }
        ++core_order;
      }
    }
    factory.create(*sim, c.type, c.name, params);
    if (c.rank) sim->set_component_rank(c.name, *c.rank);
  }
  for (const auto& l : links_) {
    const SimTime lat_ab = UnitAlgebra(l.latency).to_simtime();
    const SimTime lat_ba =
        l.latency_back ? UnitAlgebra(*l.latency_back).to_simtime() : lat_ab;
    sim->connect(l.from, l.from_port, l.to, l.to_port, lat_ab, lat_ba);
  }
  if (network_.present) {
    std::vector<net::NetEndpoint*> endpoints;
    endpoints.reserve(network_.endpoints.size());
    for (const auto& name : network_.endpoints) {
      auto* ep = dynamic_cast<net::NetEndpoint*>(sim->find_component(name));
      if (ep == nullptr) {
        throw ConfigError("network endpoint '" + name +
                          "' is not a net endpoint component");
      }
      endpoints.push_back(ep);
    }
    net::build_topology(*sim, network_.spec, endpoints);
  }
  for (const auto& f : faults_.links) {
    const fault::LinkFaultConfig cfg = link_fault_config(f);
    fault::install_link_fault(*sim, f.component, f.port, cfg);
    if (f.both) {
      const auto [peer, peer_port] = link_peer(f.component, f.port);
      fault::install_link_fault(*sim, peer, peer_port, cfg);
    }
  }
  for (const auto& f : faults_.ports) {
    auto* rtr = dynamic_cast<net::Router*>(sim->find_component(f.router));
    if (rtr == nullptr) {
      throw ConfigError("port fault target '" + f.router +
                        "' is not a net router");
    }
    rtr->schedule_port_fail(f.port, UnitAlgebra(f.fail_at).to_simtime());
    if (f.heal_at) {
      rtr->schedule_port_heal(f.port, UnitAlgebra(*f.heal_at).to_simtime());
    }
  }
  // Online rebalancing needs a migration mechanism; every SDL-built run
  // (sstsim, daemon, DSE, restart) gets the checkpoint-based one.
  if (sim_config_.rebalance) ckpt::install_migrator(*sim);
  return sim;
}

ConfigGraph ConfigGraph::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

ConfigGraph ConfigGraph::from_json(const JsonValue& doc) {
  ConfigGraph graph;
  if (doc.has("config")) {
    const JsonValue& cfg = doc.at("config");
    for (const auto& entry : cfg.as_object()) {
      if (std::ranges::find(kConfigKeys, entry.first) ==
          std::ranges::end(kConfigKeys)) {
        throw ConfigError(config_key_error(entry.first));
      }
    }
    SimConfig& sc = graph.sim_config();
    if (cfg.has("end_time")) {
      sc.end_time = UnitAlgebra(cfg.at("end_time").as_string()).to_simtime();
    }
    // Numbers take the checked conversion an override of the same key
    // takes, so "num_ranks": -1 fails as --override /config/num_ranks=-1.
    for (const std::string_view key :
         {"num_ranks", "seed", "fault_seed", "watchdog_seconds",
          "rebalance_threshold", "rebalance_period", "rebalance_max_moves"}) {
      if (cfg.has(key)) {
        graph.apply_override("/config/" + std::string(key),
                             number_text(cfg.at(key).as_number()));
      }
    }
    sc.detect_deadlock = cfg.get_bool("detect_deadlock", sc.detect_deadlock);
    sc.verbose = cfg.get_bool("verbose", false);
    sc.partition = partition_from_string(cfg.get_string("partition", "linear"));
    check_sync_mode(cfg.get_string("sync_mode", "conservative"));
    if (cfg.has("rebalance_mode")) {
      sc.rebalance =
          rebalance_mode_from_string(cfg.at("rebalance_mode").as_string());
    }
  }
  if (doc.has("components")) {
    for (const auto& jc : doc.at("components").as_array()) {
      ConfigComponent cc;
      cc.name = jc.at("name").as_string();
      cc.type = jc.at("type").as_string();
      if (jc.has("params")) {
        read_scalar_params(jc.at("params"), "component '" + cc.name + "'",
                           cc.params);
      }
      if (jc.has("rank")) {
        cc.rank = static_cast<RankId>(
            parse_count("component '" + cc.name + "' rank",
                        jc.at("rank").dump(), 0, UINT32_MAX));
      }
      graph.components_.push_back(std::move(cc));
    }
  }
  if (doc.has("network")) {
    const JsonValue& jn = doc.at("network");
    ConfigNetwork& n = graph.network_;
    n.present = true;
    n.spec.kind = topology_kind(jn.at("topology").as_string());
    // Router counts size the fabric: checked as their overrides are.
    for (const std::string_view key :
         {"x", "y", "z", "concentration", "leaves", "spines", "down",
          "groups", "group_routers", "group_conc", "global_per_router",
          "seed"}) {
      if (jn.has(key)) {
        graph.apply_override("/network/" + std::string(key),
                             number_text(jn.at(key).as_number()));
      }
    }
    n.spec.link_bandwidth =
        jn.get_string("link_bandwidth", n.spec.link_bandwidth);
    n.spec.link_latency = jn.get_string("link_latency", n.spec.link_latency);
    n.spec.hop_latency = jn.get_string("hop_latency", n.spec.hop_latency);
    const std::string routing = jn.get_string("routing", "minimal");
    if (routing == "minimal") {
      n.spec.routing = net::TopologySpec::Routing::kMinimal;
    } else if (routing == "valiant") {
      n.spec.routing = net::TopologySpec::Routing::kValiant;
    } else {
      throw ConfigError("unknown routing '" + routing +
                        "' (known: minimal, valiant)");
    }
    for (const auto& e : jn.at("endpoints").as_array()) {
      n.endpoints.push_back(e.as_string());
    }
  }
  if (doc.has("links")) {
    for (const auto& jl : doc.at("links").as_array()) {
      ConfigLink cl;
      cl.from = jl.at("from").as_string();
      cl.from_port = jl.at("from_port").as_string();
      cl.to = jl.at("to").as_string();
      cl.to_port = jl.at("to_port").as_string();
      cl.latency = jl.get_string("latency", "1ns");
      if (jl.has("latency_back")) {
        cl.latency_back = jl.at("latency_back").as_string();
      }
      graph.links_.push_back(std::move(cl));
    }
  }
  if (doc.has("vm")) {
    const JsonValue& jv = doc.at("vm");
    ConfigVm& vm = graph.vm_;
    vm.present = true;
    vm.enable = jv.get_bool("enable", true);
    if (jv.has("tlb")) {
      read_scalar_params(jv.at("tlb"), "vm tlb", vm.tlb_defaults);
    }
    if (jv.has("walker")) {
      read_scalar_params(jv.at("walker"), "vm walker", vm.walker_defaults);
    }
  }
  if (doc.has("faults")) {
    const JsonValue& jf = doc.at("faults");
    if (jf.has("seed")) {
      graph.apply_override("/config/fault_seed",
                           number_text(jf.at("seed").as_number()));
    }
    if (jf.has("links")) {
      for (const auto& jl : jf.at("links").as_array()) {
        ConfigLinkFault lf;
        lf.component = jl.at("component").as_string();
        lf.port = jl.at("port").as_string();
        lf.drop = jl.get_number("drop", 0.0);
        lf.duplicate = jl.get_number("duplicate", 0.0);
        lf.delay = jl.get_number("delay", 0.0);
        lf.delay_min = jl.get_string("delay_min", "0ps");
        lf.delay_max = jl.get_string("delay_max", lf.delay_min);
        lf.both = jl.get_bool("both", false);
        graph.faults_.links.push_back(std::move(lf));
      }
    }
    if (jf.has("ports")) {
      for (const auto& jp : jf.at("ports").as_array()) {
        ConfigPortFault pf;
        pf.router = jp.at("router").as_string();
        pf.port = static_cast<std::uint32_t>(
            parse_count("port fault on '" + pf.router + "': port",
                        jp.at("port").dump(), 0, UINT32_MAX));
        pf.fail_at = jp.at("fail_at").as_string();
        if (jp.has("heal_at")) pf.heal_at = jp.at("heal_at").as_string();
        graph.faults_.ports.push_back(std::move(pf));
      }
    }
  }
  if (doc.has("observability")) {
    const JsonValue& jo = doc.at("observability");
    SimConfig& sc = graph.sim_config_;
    if (jo.has("trace")) {
      const JsonValue& t = jo.at("trace");
      if (t.is_string()) {
        sc.trace_path = t.as_string();
      } else {
        sc.trace = t.as_bool();
      }
    }
    sc.trace_engine = jo.get_bool("trace_engine", sc.trace_engine);
    if (jo.has("metrics")) {
      const JsonValue& m = jo.at("metrics");
      if (m.is_string()) {
        sc.metrics_path = m.as_string();
      } else {
        sc.metrics = m.as_bool();
      }
    }
    if (jo.has("metrics_period")) {
      sc.metrics_period =
          UnitAlgebra(jo.at("metrics_period").as_string()).to_simtime();
    }
    sc.profile_engine = jo.get_bool("profile_engine", sc.profile_engine);
    sc.stats_path = jo.get_string("stats", sc.stats_path);
    sc.stats_format = jo.get_string("stats_format", sc.stats_format);
  }
  if (doc.has("checkpointing")) {
    const JsonValue& jk = doc.at("checkpointing");
    SimConfig& sc = graph.sim_config_;
    if (jk.has("period")) {
      sc.checkpoint_period =
          UnitAlgebra(jk.at("period").as_string()).to_simtime();
    }
    // Checked as --checkpoint-wall and --checkpoint-keep are.
    if (jk.has("wall_seconds")) {
      sc.checkpoint_wall = parse_seconds("checkpointing.wall_seconds",
                                         jk.at("wall_seconds").dump());
    }
    sc.checkpoint_dir = jk.get_string("dir", sc.checkpoint_dir);
    if (jk.has("keep")) {
      sc.checkpoint_keep = static_cast<unsigned>(parse_count(
          "checkpointing.keep", jk.at("keep").dump(), 0, UINT32_MAX));
    }
  }
  return graph;
}

void ConfigGraph::apply_override(std::string_view path,
                                 const std::string& value) {
  const std::string p(path);
  auto fail = [&p](const std::string& msg) -> void {
    throw ConfigError("override '" + p + "': " + msg);
  };
  if (p.empty() || p[0] != '/') {
    fail("path must start with '/' "
         "(e.g. /components/<name>/params/<key>)");
  }
  std::vector<std::string> seg;
  for (std::size_t start = 1; start <= p.size();) {
    const std::size_t slash = std::min(p.find('/', start), p.size());
    seg.push_back(p.substr(start, slash - start));
    start = slash + 1;
  }
  if (seg.empty() || seg.front().empty()) fail("empty path segment");
  // `p` feeds parse errors ("bad value for <path>"-style messages).
  auto as_u32 = [&](const std::string& v) {
    return detail::parse_param<std::uint32_t>(v, p);
  };
  auto as_u64 = [&](const std::string& v) {
    return detail::parse_param<std::uint64_t>(v, p);
  };

  if (seg[0] == "config") {
    if (seg.size() != 2) fail("expected /config/<key>");
    const std::string& key = seg[1];
    if (key == "end_time") {
      sim_config_.end_time = UnitAlgebra(value).to_simtime();
    } else if (key == "num_ranks") {
      sim_config_.num_ranks = as_u32(value);
    } else if (key == "seed") {
      sim_config_.seed = as_u64(value);
    } else if (key == "fault_seed") {
      sim_config_.fault_seed = as_u64(value);
    } else if (key == "partition") {
      sim_config_.partition = partition_from_string(value);
    } else if (key == "sync_mode") {
      check_sync_mode(value);
    } else if (key == "rebalance_mode") {
      sim_config_.rebalance = rebalance_mode_from_string(value);
    } else if (key == "rebalance_threshold") {
      sim_config_.rebalance_threshold = detail::parse_param<double>(value, p);
    } else if (key == "rebalance_period") {
      sim_config_.rebalance_period = as_u64(value);
    } else if (key == "rebalance_max_moves") {
      sim_config_.rebalance_max_moves = as_u32(value);
    } else if (key == "watchdog_seconds") {
      sim_config_.watchdog_seconds = detail::parse_param<double>(value, p);
    } else if (key == "detect_deadlock") {
      sim_config_.detect_deadlock = detail::parse_param<bool>(value, p);
    } else if (key == "verbose") {
      sim_config_.verbose = detail::parse_param<bool>(value, p);
    } else {
      fail(config_key_error(key));
    }
    return;
  }

  if (seg[0] == "components") {
    if (seg.size() != 3 && seg.size() != 4) {
      fail("expected /components/<name>/rank or "
           "/components/<name>/params/<key>");
    }
    ConfigComponent* comp = nullptr;
    for (auto& c : components_) {
      if (c.name == seg[1]) comp = &c;
    }
    if (comp == nullptr) {
      std::string names;
      for (const auto& c : components_) {
        names += names.empty() ? "" : ", ";
        names += c.name;
      }
      fail("unknown component '" + seg[1] + "' (components: " + names + ")");
    }
    if (seg.size() == 3 && seg[2] == "rank") {
      comp->rank = static_cast<RankId>(as_u32(value));
    } else if (seg.size() == 4 && seg[2] == "params") {
      comp->params.set(seg[3], value);
    } else {
      fail("expected /components/" + seg[1] + "/rank or /components/" +
           seg[1] + "/params/<key>");
    }
    return;
  }

  if (seg[0] == "links") {
    if (seg.size() != 3) fail("expected /links/<index>/latency[_back]");
    std::size_t idx = 0;
    try {
      idx = static_cast<std::size_t>(as_u32(seg[1]));
    } catch (const ConfigError&) {
      fail("link index '" + seg[1] + "' is not a number");
    }
    if (idx >= links_.size()) {
      fail("link index " + seg[1] + " out of range (model has " +
           std::to_string(links_.size()) + " links)");
    }
    if (seg[2] == "latency") {
      links_[idx].latency = value;
    } else if (seg[2] == "latency_back") {
      links_[idx].latency_back = value;
    } else {
      fail("unknown link field '" + seg[2] +
           "' (known: latency, latency_back)");
    }
    return;
  }

  if (seg[0] == "network") {
    if (seg.size() != 2) fail("expected /network/<key>");
    if (!network_.present) fail("model declares no \"network\" section");
    const std::string& key = seg[1];
    net::TopologySpec& spec = network_.spec;
    if (key == "topology") {
      spec.kind = topology_kind(value);
    } else if (key == "x") {
      spec.x = as_u32(value);
    } else if (key == "y") {
      spec.y = as_u32(value);
    } else if (key == "z") {
      spec.z = as_u32(value);
    } else if (key == "concentration") {
      spec.concentration = as_u32(value);
    } else if (key == "leaves") {
      spec.leaves = as_u32(value);
    } else if (key == "spines") {
      spec.spines = as_u32(value);
    } else if (key == "down") {
      spec.down = as_u32(value);
    } else if (key == "groups") {
      spec.groups = as_u32(value);
    } else if (key == "group_routers") {
      spec.group_routers = as_u32(value);
    } else if (key == "group_conc") {
      spec.group_conc = as_u32(value);
    } else if (key == "global_per_router") {
      spec.global_per_router = as_u32(value);
    } else if (key == "link_bandwidth") {
      spec.link_bandwidth = value;
    } else if (key == "link_latency") {
      spec.link_latency = value;
    } else if (key == "hop_latency") {
      spec.hop_latency = value;
    } else if (key == "seed") {
      spec.seed = as_u64(value);
    } else if (key == "routing") {
      if (value == "minimal") {
        spec.routing = net::TopologySpec::Routing::kMinimal;
      } else if (value == "valiant") {
        spec.routing = net::TopologySpec::Routing::kValiant;
      } else {
        fail("unknown routing '" + value + "' (known: minimal, valiant)");
      }
    } else {
      fail("unknown network key '" + key +
           "' (known: topology, x, y, z, concentration, leaves, spines, "
           "down, groups, group_routers, group_conc, global_per_router, "
           "link_bandwidth, link_latency, hop_latency, seed, routing)");
    }
    return;
  }

  if (seg[0] == "vm") {
    if (!vm_.present) fail("model declares no \"vm\" section");
    if (seg.size() == 2 && seg[1] == "enable") {
      vm_.enable = detail::parse_param<bool>(value, p);
      return;
    }
    if (seg.size() == 3 && seg[1] == "tlb") {
      vm_.tlb_defaults.set(seg[2], value);
      return;
    }
    if (seg.size() == 3 && seg[1] == "walker") {
      vm_.walker_defaults.set(seg[2], value);
      return;
    }
    fail("expected /vm/enable, /vm/tlb/<key>, or /vm/walker/<key>");
  }

  fail("unknown root '" + seg[0] +
       "' (known: /config, /components, /links, /network, /vm)");
}

JsonValue ConfigGraph::to_json() const {
  JsonObject doc;
  JsonObject cfg;
  if (sim_config_.end_time != kTimeNever) {
    cfg["end_time"] =
        JsonValue(std::to_string(sim_config_.end_time) + "ps");
  }
  cfg["num_ranks"] = JsonValue(static_cast<double>(sim_config_.num_ranks));
  cfg["seed"] = JsonValue(static_cast<double>(sim_config_.seed));
  if (sim_config_.fault_seed != 0) {
    cfg["fault_seed"] = JsonValue(static_cast<double>(sim_config_.fault_seed));
  }
  if (sim_config_.watchdog_seconds > 0) {
    cfg["watchdog_seconds"] = JsonValue(sim_config_.watchdog_seconds);
  }
  if (!sim_config_.detect_deadlock) cfg["detect_deadlock"] = JsonValue(false);
  cfg["partition"] = partition_name(sim_config_.partition);
  if (sim_config_.rebalance) {
    cfg["rebalance_mode"] = JsonValue(std::string("on"));
    cfg["rebalance_threshold"] = JsonValue(sim_config_.rebalance_threshold);
    cfg["rebalance_period"] =
        JsonValue(static_cast<double>(sim_config_.rebalance_period));
    cfg["rebalance_max_moves"] =
        JsonValue(static_cast<double>(sim_config_.rebalance_max_moves));
  }
  doc["config"] = JsonValue(std::move(cfg));

  JsonArray comps;
  for (const auto& c : components_) {
    JsonObject jc;
    jc["name"] = c.name;
    jc["type"] = c.type;
    JsonObject params;
    for (const auto& k : c.params.keys()) {
      params[k] = JsonValue(*c.params.raw(k));
    }
    jc["params"] = JsonValue(std::move(params));
    if (c.rank) jc["rank"] = JsonValue(static_cast<double>(*c.rank));
    comps.push_back(JsonValue(std::move(jc)));
  }
  doc["components"] = JsonValue(std::move(comps));

  JsonArray links;
  for (const auto& l : links_) {
    JsonObject jl;
    jl["from"] = l.from;
    jl["from_port"] = l.from_port;
    jl["to"] = l.to;
    jl["to_port"] = l.to_port;
    jl["latency"] = l.latency;
    if (l.latency_back) jl["latency_back"] = *l.latency_back;
    links.push_back(JsonValue(std::move(jl)));
  }
  doc["links"] = JsonValue(std::move(links));

  if (network_.present) {
    JsonObject jn;
    jn["topology"] = topology_name(network_.spec.kind);
    jn["x"] = JsonValue(static_cast<double>(network_.spec.x));
    jn["y"] = JsonValue(static_cast<double>(network_.spec.y));
    jn["z"] = JsonValue(static_cast<double>(network_.spec.z));
    jn["concentration"] =
        JsonValue(static_cast<double>(network_.spec.concentration));
    jn["leaves"] = JsonValue(static_cast<double>(network_.spec.leaves));
    jn["spines"] = JsonValue(static_cast<double>(network_.spec.spines));
    jn["down"] = JsonValue(static_cast<double>(network_.spec.down));
    jn["groups"] = JsonValue(static_cast<double>(network_.spec.groups));
    jn["group_routers"] =
        JsonValue(static_cast<double>(network_.spec.group_routers));
    jn["group_conc"] =
        JsonValue(static_cast<double>(network_.spec.group_conc));
    jn["global_per_router"] =
        JsonValue(static_cast<double>(network_.spec.global_per_router));
    jn["link_bandwidth"] = network_.spec.link_bandwidth;
    jn["link_latency"] = network_.spec.link_latency;
    jn["hop_latency"] = network_.spec.hop_latency;
    jn["seed"] = JsonValue(static_cast<double>(network_.spec.seed));
    jn["routing"] =
        network_.spec.routing == net::TopologySpec::Routing::kValiant
            ? "valiant"
            : "minimal";
    JsonArray eps;
    for (const auto& e : network_.endpoints) eps.push_back(JsonValue(e));
    jn["endpoints"] = JsonValue(std::move(eps));
    doc["network"] = JsonValue(std::move(jn));
  }

  if (vm_.present) {
    JsonObject jv;
    jv["enable"] = JsonValue(vm_.enable);
    if (!vm_.tlb_defaults.keys().empty()) {
      JsonObject jt;
      for (const auto& k : vm_.tlb_defaults.keys()) {
        jt[k] = JsonValue(*vm_.tlb_defaults.raw(k));
      }
      jv["tlb"] = JsonValue(std::move(jt));
    }
    if (!vm_.walker_defaults.keys().empty()) {
      JsonObject jw;
      for (const auto& k : vm_.walker_defaults.keys()) {
        jw[k] = JsonValue(*vm_.walker_defaults.raw(k));
      }
      jv["walker"] = JsonValue(std::move(jw));
    }
    doc["vm"] = JsonValue(std::move(jv));
  }

  if (!faults_.empty()) {
    JsonObject jf;
    JsonArray lfs;
    for (const auto& f : faults_.links) {
      JsonObject jl;
      jl["component"] = f.component;
      jl["port"] = f.port;
      jl["drop"] = JsonValue(f.drop);
      jl["duplicate"] = JsonValue(f.duplicate);
      jl["delay"] = JsonValue(f.delay);
      jl["delay_min"] = f.delay_min;
      jl["delay_max"] = f.delay_max;
      if (f.both) jl["both"] = JsonValue(true);
      lfs.push_back(JsonValue(std::move(jl)));
    }
    if (!lfs.empty()) jf["links"] = JsonValue(std::move(lfs));
    JsonArray pfs;
    for (const auto& f : faults_.ports) {
      JsonObject jp;
      jp["router"] = f.router;
      jp["port"] = JsonValue(static_cast<double>(f.port));
      jp["fail_at"] = f.fail_at;
      if (f.heal_at) jp["heal_at"] = *f.heal_at;
      pfs.push_back(JsonValue(std::move(jp)));
    }
    if (!pfs.empty()) jf["ports"] = JsonValue(std::move(pfs));
    doc["faults"] = JsonValue(std::move(jf));
  }

  if (sim_config_.trace || !sim_config_.trace_path.empty() ||
      sim_config_.metrics || !sim_config_.metrics_path.empty() ||
      sim_config_.profile_engine || !sim_config_.stats_path.empty() ||
      !sim_config_.stats_format.empty()) {
    JsonObject jo;
    if (!sim_config_.trace_path.empty()) {
      jo["trace"] = sim_config_.trace_path;
    } else if (sim_config_.trace) {
      jo["trace"] = JsonValue(true);
    }
    if (sim_config_.trace_engine) jo["trace_engine"] = JsonValue(true);
    if (!sim_config_.metrics_path.empty()) {
      jo["metrics"] = sim_config_.metrics_path;
    } else if (sim_config_.metrics) {
      jo["metrics"] = JsonValue(true);
    }
    if (sim_config_.metrics || !sim_config_.metrics_path.empty()) {
      jo["metrics_period"] =
          JsonValue(std::to_string(sim_config_.metrics_period) + "ps");
    }
    if (sim_config_.profile_engine) jo["profile_engine"] = JsonValue(true);
    if (!sim_config_.stats_path.empty()) jo["stats"] = sim_config_.stats_path;
    if (!sim_config_.stats_format.empty()) {
      jo["stats_format"] = sim_config_.stats_format;
    }
    doc["observability"] = JsonValue(std::move(jo));
  }

  if (sim_config_.checkpoint_period > 0 || sim_config_.checkpoint_wall > 0) {
    JsonObject jk;
    if (sim_config_.checkpoint_period > 0) {
      jk["period"] =
          JsonValue(std::to_string(sim_config_.checkpoint_period) + "ps");
    }
    if (sim_config_.checkpoint_wall > 0) {
      jk["wall_seconds"] = JsonValue(sim_config_.checkpoint_wall);
    }
    jk["dir"] = sim_config_.checkpoint_dir;
    jk["keep"] = JsonValue(static_cast<double>(sim_config_.checkpoint_keep));
    doc["checkpointing"] = JsonValue(std::move(jk));
  }
  return JsonValue(std::move(doc));
}

}  // namespace sst::sdl
