// ConfigGraph: validation, JSON round trip, factory-driven build.
#include <gtest/gtest.h>

#include <map>

#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"
#include "sdl/settings.h"
#include "vm/vm_lib.h"

namespace sst::sdl {
namespace {

ConfigGraph small_system() {
  mem::register_library();
  proc::register_library();
  ConfigGraph g;
  g.add_component("cpu0", "proc.Core",
                  Params{{"clock", "1GHz"},
                         {"issue_width", "2"},
                         {"workload", "stream"},
                         {"elements", "2048"},
                         {"iterations", "1"}});
  g.add_component("mc0", "mem.MemoryController",
                  Params{{"backend", "simple"}, {"latency", "50ns"}});
  g.add_link("cpu0", "mem", "mc0", "cpu", "2ns");
  return g;
}

TEST(ConfigGraph, ValidGraphBuildsAndRuns) {
  const ConfigGraph g = small_system();
  EXPECT_TRUE(g.validate(Factory::instance()).empty());
  auto sim = g.build();
  const RunStats stats = sim->run();
  EXPECT_GT(stats.events_processed, 0u);
  auto* core = dynamic_cast<proc::Core*>(sim->find_component("cpu0"));
  ASSERT_NE(core, nullptr);
  EXPECT_TRUE(core->done());
}

TEST(ConfigGraph, DetectsUnknownType) {
  ConfigGraph g = small_system();
  g.add_component("x", "bogus.Type");
  const auto problems = g.validate(Factory::instance());
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("bogus.Type"), std::string::npos);
  EXPECT_THROW((void)g.build(), ConfigError);
}

TEST(ConfigGraph, DetectsDuplicateNamesAndPorts) {
  mem::register_library();
  ConfigGraph g;
  g.add_component("a", "mem.MemoryController", Params{{"backend", "simple"}});
  g.add_component("a", "mem.MemoryController", Params{{"backend", "simple"}});
  g.add_link("a", "cpu", "a", "cpu", "1ns");
  const auto problems = g.validate(Factory::instance());
  bool dup_name = false, dup_port = false;
  for (const auto& p : problems) {
    if (p.find("duplicate component name") != std::string::npos)
      dup_name = true;
    if (p.find("port used twice") != std::string::npos) dup_port = true;
  }
  EXPECT_TRUE(dup_name);
  EXPECT_TRUE(dup_port);
}

TEST(ConfigGraph, DetectsBadLinkEndpointsAndLatency) {
  mem::register_library();
  ConfigGraph g;
  g.add_component("a", "mem.MemoryController", Params{{"backend", "simple"}});
  g.add_link("a", "cpu", "ghost", "port", "banana");
  const auto problems = g.validate(Factory::instance());
  bool unknown = false, bad_lat = false;
  for (const auto& p : problems) {
    if (p.find("unknown component 'ghost'") != std::string::npos)
      unknown = true;
    if (p.find("bad latency") != std::string::npos) bad_lat = true;
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(bad_lat);
}

TEST(ConfigGraph, JsonRoundTrip) {
  const ConfigGraph g = small_system();
  const JsonValue doc = g.to_json();
  const ConfigGraph g2 = ConfigGraph::from_json(doc);
  ASSERT_EQ(g2.components().size(), 2u);
  EXPECT_EQ(g2.components()[0].name, "cpu0");
  EXPECT_EQ(g2.components()[0].type, "proc.Core");
  EXPECT_EQ(*g2.components()[0].params.raw("clock"), "1GHz");
  ASSERT_EQ(g2.links().size(), 1u);
  EXPECT_EQ(g2.links()[0].latency, "2ns");
  // And the round-tripped graph still runs.
  auto sim = g2.build();
  sim->run();
  EXPECT_TRUE(
      dynamic_cast<proc::Core*>(sim->find_component("cpu0"))->done());
}

TEST(ConfigGraph, FromJsonTextFullDocument) {
  mem::register_library();
  proc::register_library();
  const char* doc = R"({
    "config": {"end_time": "1ms", "num_ranks": 1, "seed": 5,
               "partition": "roundrobin"},
    "components": [
      {"name": "cpu0", "type": "proc.Core",
       "params": {"workload": "stream", "elements": 1024,
                  "iterations": 1, "clock": "1GHz"}},
      {"name": "mc0", "type": "mem.MemoryController",
       "params": {"backend": "simple"}}
    ],
    "links": [
      {"from": "cpu0", "from_port": "mem", "to": "mc0", "to_port": "cpu",
       "latency": "1ns"}
    ]
  })";
  const ConfigGraph g = ConfigGraph::from_json_text(doc);
  EXPECT_EQ(g.sim_config().end_time, kMillisecond);
  EXPECT_EQ(g.sim_config().seed, 5u);
  EXPECT_EQ(g.sim_config().partition, PartitionStrategy::kRoundRobin);
  auto sim = g.build();
  sim->run();
  EXPECT_TRUE(
      dynamic_cast<proc::Core*>(sim->find_component("cpu0"))->done());
}

TEST(ConfigGraph, NumberParamsKeepTheirDigits) {
  // Component params take the run settings' number text: every digit of
  // a fraction (1e-9 used to read as "0.000000"), and no out-of-range
  // cast for a huge value.
  const ConfigGraph g = ConfigGraph::from_json_text(R"({
    "components": [{"name": "a", "type": "mem.MemoryController",
                    "params": {"ber": 1e-9, "big": 1e30, "size": 2048,
                               "half": 0.5, "on": true}}]
  })");
  const Params& p = g.components()[0].params;
  EXPECT_EQ(*p.raw("ber"), "0.000000001");
  EXPECT_EQ(*p.raw("big"), "1000000000000000019884624838656");
  EXPECT_EQ(*p.raw("size"), "2048");
  EXPECT_EQ(*p.raw("half"), "0.5");
  EXPECT_EQ(*p.raw("on"), "true");
}

TEST(ConfigGraph, RankPinningThroughJson) {
  mem::register_library();
  const char* doc = R"({
    "config": {"num_ranks": 2},
    "components": [
      {"name": "a", "type": "mem.MemoryController",
       "params": {"backend": "simple"}, "rank": 1}
    ],
    "links": []
  })";
  const ConfigGraph g = ConfigGraph::from_json_text(doc);
  ASSERT_TRUE(g.components()[0].rank.has_value());
  EXPECT_EQ(*g.components()[0].rank, 1u);
  // Rank out of range is caught by validation.
  ConfigGraph bad = g;
  bad.sim_config().num_ranks = 1;
  EXPECT_FALSE(bad.validate(Factory::instance()).empty());
}

TEST(ConfigGraph, UnknownPartitionStrategyThrows) {
  EXPECT_THROW(ConfigGraph::from_json_text(
                   R"({"config": {"partition": "magic"}})"),
               ConfigError);
}

TEST(ConfigGraph, UnknownPartitionStrategyListsKnownOnes) {
  try {
    (void)ConfigGraph::from_json_text(
        R"({"config": {"partition": "magic"}})");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("linear"), std::string::npos) << msg;
    EXPECT_NE(msg.find("roundrobin"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mincut"), std::string::npos) << msg;
  }
}

TEST(ConfigGraph, PartitionAndRankSurviveEmitReparseByteIdentical) {
  mem::register_library();
  const char* doc = R"({
    "config": {"num_ranks": 2, "partition": "mincut"},
    "components": [
      {"name": "a", "type": "mem.MemoryController",
       "params": {"backend": "simple"}, "rank": 1},
      {"name": "b", "type": "mem.MemoryController",
       "params": {"backend": "simple"}}
    ],
    "links": []
  })";
  const ConfigGraph g = ConfigGraph::from_json_text(doc);
  EXPECT_EQ(g.sim_config().partition, PartitionStrategy::kMinCut);
  const std::string emitted = g.to_json().dump(2);
  const ConfigGraph g2 = ConfigGraph::from_json_text(emitted);
  EXPECT_EQ(g2.sim_config().partition, PartitionStrategy::kMinCut);
  ASSERT_TRUE(g2.components()[0].rank.has_value());
  EXPECT_EQ(*g2.components()[0].rank, 1u);
  EXPECT_FALSE(g2.components()[1].rank.has_value());
  // Emit -> re-parse -> emit is byte-identical.
  EXPECT_EQ(g2.to_json().dump(2), emitted);
}

TEST(ConfigGraph, ApplyOverrideRewritesConfigParamsAndLinks) {
  ConfigGraph g = small_system();
  g.apply_override("/config/seed", "99");
  g.apply_override("/config/partition", "roundrobin");
  g.apply_override("/components/cpu0/params/elements", "4096");
  g.apply_override("/components/cpu0/rank", "0");
  g.apply_override("/links/0/latency", "7ns");
  EXPECT_EQ(g.sim_config().seed, 99u);
  EXPECT_EQ(g.sim_config().partition, PartitionStrategy::kRoundRobin);
  EXPECT_EQ(*g.components()[0].params.raw("elements"), "4096");
  ASSERT_TRUE(g.components()[0].rank.has_value());
  EXPECT_EQ(*g.components()[0].rank, 0u);
  EXPECT_EQ(g.links()[0].latency, "7ns");
  // The overridden graph still validates and runs.
  EXPECT_TRUE(g.validate(Factory::instance()).empty());
}

TEST(ConfigGraph, ApplyOverrideErrorsNameTheAlternatives) {
  ConfigGraph g = small_system();
  try {
    g.apply_override("/components/ghost/params/x", "1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    // Unknown component: the message lists the components that exist.
    EXPECT_NE(msg.find("cpu0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mc0"), std::string::npos) << msg;
  }
  try {
    g.apply_override("/config/bogus_key", "1");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  }
  EXPECT_THROW(g.apply_override("/links/5/latency", "1ns"), ConfigError);
  EXPECT_THROW(g.apply_override("no-leading-slash", "1"), ConfigError);
  // No network section in this model.
  EXPECT_THROW(g.apply_override("/network/link_latency", "1ns"),
               ConfigError);
}

/// The ConfigError message `fn` throws ("" if it does not throw).
template <typename Fn>
std::string config_error(Fn&& fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigGraph, UnknownConfigKeyRejectedWithKnownKeys) {
  // A typo in the config section used to be ignored silently.
  const std::string parsed = config_error([] {
    (void)ConfigGraph::from_json_text(
        R"({"config": {"end_tme": "1ns", "seed": 3}})");
  });
  ConfigGraph g = small_system();
  const std::string overridden =
      config_error([&] { g.apply_override("/config/end_tme", "1ns"); });
  const auto known = [](const std::string& msg) {
    const std::size_t at = msg.find("(known: ");
    return at == std::string::npos ? std::string() : msg.substr(at);
  };
  EXPECT_NE(parsed.find("'end_tme'"), std::string::npos) << parsed;
  EXPECT_NE(known(parsed).find("end_time"), std::string::npos) << parsed;
  // Both entry points list the same keys.
  EXPECT_EQ(known(parsed), known(overridden)) << overridden;
}

TEST(ConfigGraph, RemovedSyncInputsNameTheRemoval) {
  for (const char* doc :
       {R"({"config": {"lax_skew": "2us"}})",
        R"({"config": {"sync_window_max": "10us"}})",
        R"({"config": {"sync_mode": "lax"}})",
        R"({"config": {"sync_mode": "adaptive"}})"}) {
    const std::string msg =
        config_error([doc] { (void)ConfigGraph::from_json_text(doc); });
    EXPECT_NE(msg.find("removed"), std::string::npos) << doc << ": " << msg;
  }
  ConfigGraph g = small_system();
  for (const char* key : {"/config/lax_skew", "/config/sync_window_max"}) {
    const std::string msg =
        config_error([&] { g.apply_override(key, "1us"); });
    EXPECT_NE(msg.find("removed"), std::string::npos) << key << ": " << msg;
  }
  EXPECT_NE(config_error([&] { g.apply_override("/config/sync_mode", "lax"); })
                .find("removed"),
            std::string::npos);
  // The one remaining mode is still accepted, so older descriptions run.
  EXPECT_NO_THROW((void)ConfigGraph::from_json_text(
      R"({"config": {"sync_mode": "conservative"}})"));
  EXPECT_NO_THROW(g.apply_override("/config/sync_mode", "conservative"));
}

/// An extreme non-default value for each run setting, keyed by override
/// path.  sync_mode accepts only its default and has none.
const std::map<std::string, std::string>& extreme_values() {
  static const std::map<std::string, std::string> values = {
      {"/config/end_time", "4503599627370496ps"},
      {"/config/num_ranks", "4294967295"},
      {"/config/seed", "18446744073709551615"},
      {"/config/fault_seed", "18446744073709551615"},
      {"/config/partition", "mincut"},
      {"/config/rebalance_mode", "on"},
      {"/config/rebalance_threshold", "1.0000000000000002"},
      {"/config/rebalance_period", "18446744073709551615"},
      {"/config/rebalance_max_moves", "4294967295"},
      {"/config/watchdog_seconds", "1.7976931348623157e308"},
      {"/config/verbose", "true"},
      {"/observability/trace", "out dir/t\"race\".json"},
      {"/observability/trace_engine", "true"},
      {"/observability/metrics", "true"},
      {"/observability/metrics_period", "1ps"},
      {"/observability/profile_engine", "true"},
      {"/observability/stats", "-"},
      {"/observability/stats_format", "json"},
      {"/checkpointing/period", "1ps"},
      {"/checkpointing/wall_seconds", "5e-324"},
      {"/checkpointing/dir", "ckpt dir"},
      {"/checkpointing/keep", "4294967295"},
      {"/network/topology", "dragonfly"},
      {"/network/x", "4294967295"},
      {"/network/y", "4294967295"},
      {"/network/z", "4294967295"},
      {"/network/concentration", "4294967295"},
      {"/network/leaves", "4294967295"},
      {"/network/spines", "4294967295"},
      {"/network/down", "4294967295"},
      {"/network/groups", "4294967295"},
      {"/network/group_routers", "4294967295"},
      {"/network/group_conc", "4294967295"},
      {"/network/global_per_router", "4294967295"},
      {"/network/link_bandwidth", "1TB/s"},
      {"/network/link_latency", "1ps"},
      {"/network/hop_latency", "1ps"},
      {"/network/seed", "18446744073709551615"},
      {"/network/routing", "valiant"},
  };
  return values;
}

std::string path_of(const Setting& row) {
  return "/" + std::string(row.section) + "/" + std::string(row.key);
}

/// A model with an (empty) network, so every section's settings apply.
JsonValue base_doc() {
  return JsonValue::parse(R"({"config": {}, "observability": {},
                              "checkpointing": {},
                              "network": {"endpoints": []}})");
}

TEST(ConfigGraph, EverySettingSurvivesEmitReparse) {
  const ConfigGraph defaults = ConfigGraph::from_json(base_doc());
  ConfigGraph g = defaults;
  std::size_t set = 0;
  for (const Setting& row : settings()) {
    if (row.print == nullptr || row.key == "sync_mode") continue;
    const auto it = extreme_values().find(path_of(row));
    ASSERT_NE(it, extreme_values().end()) << "no value for " << path_of(row);
    g.apply_override(it->first, it->second);
    EXPECT_NE(row.print(g), row.print(defaults)) << it->first;
    ++set;
  }
  EXPECT_EQ(set, extreme_values().size());
  const std::string emitted = g.to_json().dump(2);
  const ConfigGraph g2 = ConfigGraph::from_json_text(emitted);
  for (const Setting& row : settings()) {
    if (row.print == nullptr) continue;
    EXPECT_EQ(row.print(g2), row.print(g)) << path_of(row);
  }
  EXPECT_EQ(g2.sim_config().seed, UINT64_MAX);
  EXPECT_EQ(g2.network().spec.seed, UINT64_MAX);
  EXPECT_EQ(g2.to_json().dump(2), emitted);
}

TEST(ConfigGraph, SdlOverrideAndFlagSetTheSameField) {
  const ConfigGraph defaults = ConfigGraph::from_json(base_doc());
  const std::string base = defaults.to_json().dump();
  for (const auto& [path, value] : extreme_values()) {
    const std::size_t slash = path.find('/', 1);
    const std::string section = path.substr(1, slash - 1);
    const std::string key = path.substr(slash + 1);
    const Setting* row = find_setting(section, key);
    ASSERT_NE(row, nullptr) << path;
    JsonValue doc = base_doc();
    doc.as_object()[section].as_object()[key] = JsonValue(value);
    const ConfigGraph from_sdl = ConfigGraph::from_json(doc);
    ConfigGraph overridden = defaults;
    overridden.apply_override(path, value);
    EXPECT_EQ(from_sdl.to_json().dump(), overridden.to_json().dump())
        << path;
    EXPECT_NE(from_sdl.to_json().dump(), base) << path;
    EXPECT_EQ(row->print(from_sdl), row->print(overridden)) << path;
  }
  // Each setting flag is the override of a row, and a switch's fixed
  // value is that row's extreme value above.
  for (const SettingFlag& f : kSettingFlags) {
    const auto it = extreme_values().find(std::string(f.path));
    ASSERT_NE(it, extreme_values().end()) << f.flag;
    const std::string value = f.fixed != nullptr ? f.fixed : it->second;
    EXPECT_EQ(value, it->second) << f.flag;
    EXPECT_NO_THROW(check_setting(f.path, value, f.flag)) << f.flag;
  }
  EXPECT_EQ(std::size(kSettingFlags), 20u);
  // A bad value fails naming the setting as each entry point spells it.
  JsonValue doc = base_doc();
  doc.as_object()["checkpointing"] =
      JsonValue::parse(R"({"keep": -1})");
  EXPECT_NE(config_error([&] { (void)ConfigGraph::from_json(doc); })
                .find("checkpointing.keep"),
            std::string::npos);
  ConfigGraph g = defaults;
  EXPECT_NE(config_error([&] { g.apply_override("/checkpointing/keep", "-1"); })
                .find("/checkpointing/keep"),
            std::string::npos);
  EXPECT_NE(config_error([] {
              check_setting("/checkpointing/keep", "-1", "--checkpoint-keep");
            }).find("--checkpoint-keep"),
            std::string::npos);
}

TEST(ConfigGraph, UnknownSettingKeyListsTheSectionsKeys) {
  for (const std::string_view section : kSettingSections) {
    JsonValue doc = base_doc();
    doc.as_object()[std::string(section)].as_object()["bogus_key"] =
        JsonValue("1");
    const std::string parsed =
        config_error([&] { (void)ConfigGraph::from_json(doc); });
    ConfigGraph g = ConfigGraph::from_json(base_doc());
    const std::string overridden = config_error([&] {
      g.apply_override("/" + std::string(section) + "/bogus_key", "1");
    });
    const std::string head =
        "unknown " + std::string(section) + " key 'bogus_key' (known: ";
    const std::size_t at = parsed.find(head);
    ASSERT_NE(at, std::string::npos) << parsed;
    const std::string known = parsed.substr(at + head.size());
    for (const Setting& row : settings()) {
      if (row.section != section || row.print == nullptr) continue;
      EXPECT_NE(known.find(std::string(row.key)), std::string::npos)
          << section << ": " << parsed;
    }
    EXPECT_NE(overridden.find(head + known), std::string::npos)
        << overridden;
  }
}

// Every component param, vm.tlb and vm.walker key is checked against the
// type's registered list, whichever way it entered the graph.

/// validate()'s one problem, or "" when there are none or several.
std::string only_problem(const ConfigGraph& g) {
  const auto problems = g.validate(Factory::instance());
  return problems.size() == 1 ? problems[0] : "";
}

constexpr const char* kCacheKeys =
    "(known: size, line_size, assoc, hit_latency, mshrs, prefetch, "
    "prefetch_degree)";

TEST(ConfigGraph, UndeclaredComponentParamRejected) {
  mem::register_library();
  const ConfigGraph g = ConfigGraph::from_json_text(R"({
    "components": [{"name": "l1", "type": "mem.Cache",
                    "params": {"size": "32KiB", "sizee": "64KiB"}}]})");
  EXPECT_EQ(only_problem(g),
            std::string("component 'l1' (mem.Cache): unknown param 'sizee' ") +
                kCacheKeys);
  EXPECT_THROW((void)g.build(), ConfigError);
}

TEST(ConfigGraph, UndeclaredOverrideParamRejected) {
  mem::register_library();
  ConfigGraph g;
  g.add_component("l1", "mem.Cache", Params{{"size", "32KiB"}});
  ASSERT_TRUE(g.validate(Factory::instance()).empty());
  g.apply_override("/components/l1/params/sizee", "64KiB");
  EXPECT_EQ(only_problem(g),
            std::string("component 'l1' (mem.Cache): unknown param 'sizee' ") +
                kCacheKeys);
}

constexpr const char* kVmModel = R"({
  "vm": {"tlb": {"l1_sets": 8}, "walker": {"walk_depth": 3}},
  "components": [
    {"name": "tlb0", "type": "vm.Tlb"},
    {"name": "ptw", "type": "vm.PageTableWalker"}
  ]
})";

TEST(ConfigGraph, UndeclaredVmTlbOverrideRejected) {
  vm::register_library();
  ConfigGraph g = ConfigGraph::from_json_text(kVmModel);
  ASSERT_TRUE(g.validate(Factory::instance()).empty());
  g.apply_override("/vm/tlb/l1_setz", "64");
  const std::string msg = only_problem(g);
  EXPECT_EQ(msg.rfind("vm.tlb (vm.Tlb): unknown param 'l1_setz' (known: "
                      "levels, l1_sets, ",
                      0),
            0u)
      << msg;
  // The levels beyond 2 are declared keys of their own.
  EXPECT_NE(msg.find("l4_latency"), std::string::npos) << msg;
}

TEST(ConfigGraph, UndeclaredVmWalkerKeyRejected) {
  vm::register_library();
  JsonValue doc = JsonValue::parse(kVmModel);
  doc.as_object()["vm"].as_object()["walker"].as_object()["walk_dept"] =
      JsonValue("5");
  const ConfigGraph g = ConfigGraph::from_json(doc);
  const std::string msg = only_problem(g);
  EXPECT_EQ(msg.rfind("vm.walker (vm.PageTableWalker): unknown param "
                      "'walk_dept' (known: num_tlbs, walk_depth, ",
                      0),
            0u)
      << msg;
  EXPECT_THROW((void)g.build(), ConfigError);
}

TEST(ConfigGraph, EveryDeclaredKeyIsAccepted) {
  mem::register_library();
  proc::register_library();
  net::register_library();
  vm::register_library();
  ConfigGraph g;
  Params tlb_defaults;
  Params walker_defaults;
  for (const auto& type : Factory::instance().registered_types()) {
    Params p;
    for (const auto& d : Factory::instance().param_docs(type)) {
      p.set(d.name, d.default_value);
      if (type == "vm.Tlb") tlb_defaults.set(d.name, d.default_value);
      if (type == "vm.PageTableWalker") {
        walker_defaults.set(d.name, d.default_value);
      }
    }
    g.add_component("c" + std::to_string(g.components().size()), type, p);
  }
  g.vm().present = true;
  g.vm().tlb_defaults = tlb_defaults;
  g.vm().walker_defaults = walker_defaults;
  for (const auto& problem : g.validate(Factory::instance())) {
    EXPECT_EQ(problem.find("unknown param"), std::string::npos) << problem;
  }
}

}  // namespace
}  // namespace sst::sdl
