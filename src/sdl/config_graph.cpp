#include "sdl/config_graph.h"

#include <algorithm>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "core/unit_algebra.h"
#include "fault/fault_model.h"
#include "net/router.h"
#include "sdl/settings.h"

namespace sst::sdl {

namespace {

/// Reads a JSON object of scalar values into `out` as setting_text does;
/// `ctx` prefixes error messages ("component 'cpu0'", "vm tlb", ...).
void read_scalar_params(const JsonValue& jp, const std::string& ctx,
                        Params& out) {
  std::string what;  // reused: models have thousands of params
  for (const auto& [k, v] : jp.as_object()) {
    what.assign(ctx).append(" param '").append(k).append("'");
    out.set(k, setting_text(v, what));
  }
}

// The members each JSON object of a description may have.  The settings
// sections check their own keys (read_settings); component params and
// the vm tlb/walker defaults are checked by validate(), against the
// parameter list their type registers with the Factory.
constexpr std::string_view kDocumentKeys[] = {
    "config", "observability", "checkpointing", "network",
    "components", "links", "vm", "faults"};
constexpr std::string_view kComponentKeys[] = {"name", "type", "params",
                                               "rank"};
constexpr std::string_view kLinkKeys[] = {"from", "from_port", "to",
                                          "to_port", "latency",
                                          "latency_back"};
constexpr std::string_view kVmKeys[] = {"enable", "tlb", "walker"};
constexpr std::string_view kFaultsKeys[] = {"seed", "links", "ports"};
constexpr std::string_view kLinkFaultKeys[] = {
    "component", "port", "drop", "duplicate", "delay", "delay_min",
    "delay_max", "both"};
constexpr std::string_view kPortFaultKeys[] = {"router", "port", "fail_at",
                                               "heal_at"};

/// Rejects a member of `obj` that `known` does not list, naming it and
/// the known ones: "unknown <what> key '<key>' (known: ...)".
void check_members(const JsonValue& obj, std::string_view what,
                   std::span<const std::string_view> known) {
  for (const auto& [key, value] : obj.as_object()) {
    if (std::ranges::find(known, key) != known.end()) continue;
    std::string list;
    for (const std::string_view k : known) {
      list.append(list.empty() ? "" : ", ").append(k);
    }
    throw ConfigError("unknown " + std::string(what) + " key '" + key +
                      "' (known: " + list + ")");
  }
}

/// "(<type>): unknown param '<key>' (known: ...)" for each key of
/// `params` that the registered `type` does not declare; the caller puts
/// the owner ("component 'l1'", "vm.tlb") in front.  An unregistered type
/// is reported as such where it is used.
std::vector<std::string> unknown_params(const Factory& factory,
                                        const std::string& type,
                                        const Params& params) {
  std::vector<std::string> found;
  if (!factory.known(type)) return found;
  const std::vector<ParamDoc>& docs = factory.param_docs(type);
  for (const auto& [key, value] : params) {
    if (std::ranges::find(docs, key, &ParamDoc::name) != docs.end()) continue;
    std::string list;
    for (const ParamDoc& d : docs) {
      list.append(list.empty() ? "" : ", ").append(d.name);
    }
    found.push_back("(" + type + "): unknown param '" + key +
                    "' (known: " + list + ")");
  }
  return found;
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
    for (const auto& u : unknown_params(factory, c.type, c.params)) {
      problems.push_back("component '" + c.name + "' " + u);
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
  if (vm_.present) {
    for (const auto& u : unknown_params(factory, "vm.Tlb", vm_.tlb_defaults)) {
      problems.push_back("vm.tlb " + u);
    }
    for (const auto& u : unknown_params(factory, "vm.PageTableWalker",
                                        vm_.walker_defaults)) {
      problems.push_back("vm.walker " + u);
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

void ConfigGraph::check(const Factory& factory) const {
  const auto problems = validate(factory);
  if (problems.empty()) return;
  std::string msg = "invalid system description:";
  for (const auto& p : problems) msg += "\n  - " + p;
  throw ConfigError(msg);
}

std::unique_ptr<Simulation> ConfigGraph::build(const Factory& factory) const {
  check(factory);
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
  return sim;
}

ConfigGraph ConfigGraph::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

ConfigGraph ConfigGraph::from_json(const JsonValue& doc) {
  ConfigGraph graph;
  check_members(doc, "top-level", kDocumentKeys);
  for (const std::string_view section : kSettingSections) {
    if (doc.has(section)) read_settings(graph, section, doc.at(section));
  }
  if (doc.has("components")) {
    for (const auto& jc : doc.at("components").as_array()) {
      check_members(jc, "component", kComponentKeys);
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
    graph.network_.present = true;
    for (const auto& e : doc.at("network").at("endpoints").as_array()) {
      graph.network_.endpoints.push_back(e.as_string());
    }
  }
  if (doc.has("links")) {
    for (const auto& jl : doc.at("links").as_array()) {
      check_members(jl, "link", kLinkKeys);
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
    check_members(jv, "vm", kVmKeys);
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
    check_members(jf, "faults", kFaultsKeys);
    if (jf.has("seed")) {
      // An alias of config.fault_seed, read after (so winning over) it.
      const std::string what = "faults.seed (config.fault_seed)";
      find_setting("config", "fault_seed")
          ->parse(graph, setting_text(jf.at("seed"), what), what);
    }
    if (jf.has("links")) {
      for (const auto& jl : jf.at("links").as_array()) {
        check_members(jl, "link fault", kLinkFaultKeys);
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
        check_members(jp, "port fault", kPortFaultKeys);
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

  if (std::ranges::count(kSettingSections, seg[0]) > 0) {
    if (seg.size() != 2) fail("expected /" + seg[0] + "/<key>");
    if (seg[0] == "network" && !network_.present) {
      fail("model declares no \"network\" section");
    }
    const Setting* row = find_setting(seg[0], seg[1]);
    if (row == nullptr) fail(unknown_setting(seg[0], seg[1]));
    row->parse(*this, value, p);
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
       "' (known: /config, /observability, /checkpointing, /network, "
       "/components, /links, /vm)");
}

JsonValue ConfigGraph::to_json() const {
  JsonObject doc;
  for (const std::string_view section : kSettingSections) {
    JsonObject members = write_settings(*this, section);
    if (!members.empty()) doc.emplace(section, JsonValue(std::move(members)));
  }

  JsonArray comps;
  for (const auto& c : components_) {
    JsonObject jc;
    jc["name"] = c.name;
    jc["type"] = c.type;
    JsonObject params;
    for (const auto& [k, v] : c.params) params[k] = JsonValue(v);
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
    JsonValue& jn = doc.try_emplace("network", JsonObject{}).first->second;
    jn.as_object()["endpoints"] =
        JsonArray(network_.endpoints.begin(), network_.endpoints.end());
  }

  if (vm_.present) {
    JsonObject jv;
    jv["enable"] = JsonValue(vm_.enable);
    if (!vm_.tlb_defaults.empty()) {
      JsonObject jt;
      for (const auto& [k, v] : vm_.tlb_defaults) jt[k] = JsonValue(v);
      jv["tlb"] = JsonValue(std::move(jt));
    }
    if (!vm_.walker_defaults.empty()) {
      JsonObject jw;
      for (const auto& [k, v] : vm_.walker_defaults) jw[k] = JsonValue(v);
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

  return JsonValue(std::move(doc));
}

}  // namespace sst::sdl
