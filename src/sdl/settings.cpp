#include "sdl/settings.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <utility>

#include "core/params.h"
#include "core/unit_algebra.h"
#include "sdl/config_graph.h"

namespace sst::sdl {

namespace {

/// Member M of the graph's SimConfig or of its network's TopologySpec.
template <auto M, typename G>
auto& field(G& g) {
  if constexpr (requires { g.sim_config().*M; }) {
    return g.sim_config().*M;
  } else {
    return g.network().spec.*M;
  }
}

/// Shortest text strtod reads back as `d`.
std::string shortest(double d) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, d).ptr};
}

/// `d` in plain decimal with shortest round-trip digits.
std::string number_text(double d) {
  char buf[400];  // fits every finite double in fixed notation
  return {buf, std::to_chars(buf, buf + sizeof buf, d,
                             std::chars_format::fixed).ptr};
}

// ---- codecs: how a row parses and prints its field ---------------------

/// A whole number in [Lo, the field type's max].
template <std::uint64_t Lo = 0>
struct Count {
  template <typename T>
  static void parse(T& f, const std::string& text, std::string_view what) {
    f = static_cast<T>(
        parse_count(what, text, Lo, std::numeric_limits<T>::max()));
  }
  static std::string print(std::uint64_t f) { return std::to_string(f); }
};

/// A wall-clock budget: finite seconds >= 0.
struct Seconds {
  static void parse(double& f, const std::string& text,
                    std::string_view what) {
    f = parse_seconds(what, text);
  }
  static std::string print(double f) { return shortest(f); }
};

/// A simulated time ("10us"), printed in picoseconds.
struct Time {
  static void parse(SimTime& f, const std::string& text,
                    std::string_view what) {
    try {
      f = UnitAlgebra(text).to_simtime();
    } catch (const ConfigError& e) {
      throw ConfigError(std::string(what) + ": " + e.what());
    }
  }
  static std::string print(SimTime f) { return std::to_string(f) + "ps"; }
};

struct Bool {
  static void parse(bool& f, const std::string& text, std::string_view what) {
    f = detail::parse_param<bool>(text, what);
  }
  static std::string print(bool f) { return f ? "true" : "false"; }
};

struct Real {
  static void parse(double& f, const std::string& text,
                    std::string_view what) {
    f = detail::parse_param<double>(text, what);
  }
  static std::string print(double f) { return shortest(f); }
};

/// Free text: a path, or a bandwidth or latency the network builder parses.
struct Text {
  static void parse(std::string& f, const std::string& text,
                    std::string_view) {
    f = text;
  }
  static std::string print(const std::string& f) { return f; }
};

/// One of a list of names.
template <typename T, std::size_t N>
struct Names {
  std::string_view noun;  // "unknown <noun> 'x' (known: ...)"
  std::pair<std::string_view, T> names[N];
};

template <const auto& kNames>
struct Named {
  template <typename F>
  static void parse(F& f, const std::string& text, std::string_view what) {
    std::string known;
    for (const auto& [name, value] : kNames.names) {
      if (name == text) {
        f = value;
        return;
      }
      known += (known.empty() ? "" : ", ") + std::string(name);
    }
    throw ConfigError(std::string(what) + ": unknown " +
                      std::string(kNames.noun) + " '" + text +
                      "' (known: " + known + ")");
  }
  template <typename F>
  static std::string print(const F& f) {
    for (const auto& [name, value] : kNames.names) {
      if (value == f) return std::string(name);
    }
    return {};  // stats_format's "": the tool's default
  }
};

/// The row of field M, read and written by Codec.
template <auto M, typename Codec>
constexpr Setting row(std::string_view section, std::string_view key) {
  return {section, key,
          [](ConfigGraph& g, const std::string& text, std::string_view what) {
            Codec::parse(field<M>(g), text, what);
          },
          [](const ConfigGraph& g) { return Codec::print(field<M>(g)); }};
}

/// trace / metrics: "true" or "false" switches the in-memory recorder;
/// any other text is the file it writes, which implies it.
template <auto On, auto Path>
constexpr Setting output_row(std::string_view key) {
  return {"observability", key,
          [](ConfigGraph& g, const std::string& text, std::string_view) {
            if (text == "true" || text == "false") {
              field<On>(g) = text == "true";
              field<Path>(g).clear();
            } else {
              field<Path>(g) = text;
            }
          },
          [](const ConfigGraph& g) {
            const std::string& path = field<Path>(g);
            return !path.empty() ? path : Bool::print(field<On>(g));
          }};
}

/// A config key of the removed lax and adaptive synchronization modes.
constexpr Setting removed_row(std::string_view key) {
  return {"config", key,
          [](ConfigGraph&, const std::string&, std::string_view what) {
            throw ConfigError(std::string(what) +
                              " was removed with the lax and adaptive "
                              "synchronization modes; parallel runs always "
                              "synchronize at the exact causal horizon");
          },
          nullptr};
}

/// "conservative" is the only synchronization mode left; it is still
/// accepted so existing descriptions keep working.
constexpr Setting kSyncModeRow{
    "config", "sync_mode",
    [](ConfigGraph&, const std::string& text, std::string_view what) {
      if (text == "conservative") return;
      throw ConfigError(std::string(what) + " '" + text +
                        "' is not supported: the lax and adaptive modes "
                        "were removed and parallel runs always synchronize "
                        "at the exact causal horizon (only \"conservative\" "
                        "is accepted)");
    },
    [](const ConfigGraph&) { return std::string("conservative"); }};

// ---- the table --------------------------------------------------------

using SC = SimConfig;
using Topo = net::TopologySpec;
using Kind = Topo::Kind;
using Routing = Topo::Routing;

constexpr Names<PartitionStrategy, 3> kPartitions{
    "partition strategy",
    {{"linear", PartitionStrategy::kLinear},
     {"roundrobin", PartitionStrategy::kRoundRobin},
     {"mincut", PartitionStrategy::kMinCut}}};
constexpr Names<bool, 2> kRebalanceModes{"rebalance mode",
                                         {{"on", true}, {"off", false}}};
constexpr Names<std::string_view, 3> kStatsFormats{
    "stats_format",
    {{"console", "console"}, {"csv", "csv"}, {"json", "json"}}};
constexpr Names<Kind, 5> kTopologies{"network topology",
                                     {{"mesh2d", Kind::kMesh2D},
                                      {"torus2d", Kind::kTorus2D},
                                      {"torus3d", Kind::kTorus3D},
                                      {"fattree", Kind::kFatTree},
                                      {"dragonfly", Kind::kDragonfly}}};
constexpr Names<Routing, 2> kRoutings{
    "routing",
    {{"minimal", Routing::kMinimal}, {"valiant", Routing::kValiant}}};

constexpr Setting kSettings[] = {
    row<&SC::end_time, Time>("config", "end_time"),
    row<&SC::num_ranks, Count<1>>("config", "num_ranks"),
    row<&SC::seed, Count<>>("config", "seed"),
    row<&SC::fault_seed, Count<>>("config", "fault_seed"),
    row<&SC::partition, Named<kPartitions>>("config", "partition"),
    kSyncModeRow,
    row<&SC::rebalance, Named<kRebalanceModes>>("config", "rebalance_mode"),
    row<&SC::rebalance_threshold, Real>("config", "rebalance_threshold"),
    row<&SC::rebalance_period, Count<>>("config", "rebalance_period"),
    row<&SC::rebalance_max_moves, Count<>>("config", "rebalance_max_moves"),
    row<&SC::watchdog_seconds, Seconds>("config", "watchdog_seconds"),
    row<&SC::verbose, Bool>("config", "verbose"),
    removed_row("lax_skew"),
    removed_row("sync_window_max"),

    output_row<&SC::trace, &SC::trace_path>("trace"),
    row<&SC::trace_engine, Bool>("observability", "trace_engine"),
    output_row<&SC::metrics, &SC::metrics_path>("metrics"),
    row<&SC::metrics_period, Time>("observability", "metrics_period"),
    row<&SC::profile_engine, Bool>("observability", "profile_engine"),
    row<&SC::stats_path, Text>("observability", "stats"),
    row<&SC::stats_format, Named<kStatsFormats>>("observability",
                                                 "stats_format"),

    row<&SC::checkpoint_period, Time>("checkpointing", "period"),
    row<&SC::checkpoint_wall, Seconds>("checkpointing", "wall_seconds"),
    row<&SC::checkpoint_dir, Text>("checkpointing", "dir"),
    row<&SC::checkpoint_keep, Count<>>("checkpointing", "keep"),

    row<&Topo::kind, Named<kTopologies>>("network", "topology"),
    row<&Topo::x, Count<>>("network", "x"),
    row<&Topo::y, Count<>>("network", "y"),
    row<&Topo::z, Count<>>("network", "z"),
    row<&Topo::concentration, Count<>>("network", "concentration"),
    row<&Topo::leaves, Count<>>("network", "leaves"),
    row<&Topo::spines, Count<>>("network", "spines"),
    row<&Topo::down, Count<>>("network", "down"),
    row<&Topo::groups, Count<>>("network", "groups"),
    row<&Topo::group_routers, Count<>>("network", "group_routers"),
    row<&Topo::group_conc, Count<>>("network", "group_conc"),
    row<&Topo::global_per_router, Count<>>("network", "global_per_router"),
    row<&Topo::link_bandwidth, Text>("network", "link_bandwidth"),
    row<&Topo::link_latency, Text>("network", "link_latency"),
    row<&Topo::hop_latency, Text>("network", "hop_latency"),
    row<&Topo::seed, Count<>>("network", "seed"),
    row<&Topo::routing, Named<kRoutings>>("network", "routing"),
};

/// Members of the four sections that are lists, not settings.
constexpr std::pair<std::string_view, std::string_view> kListMembers[] = {
    {"network", "endpoints"}};

}  // namespace

std::span<const Setting> settings() { return kSettings; }

const Setting* find_setting(std::string_view section, std::string_view key) {
  for (const Setting& s : kSettings) {
    if (s.section == section && s.key == key) return &s;
  }
  return nullptr;
}

std::string unknown_setting(std::string_view section, std::string_view key) {
  std::string known;
  for (const Setting& s : kSettings) {
    if (s.section != section || s.print == nullptr) continue;
    if (!known.empty()) known += ", ";
    known += s.key;
  }
  return "unknown " + std::string(section) + " key '" + std::string(key) +
         "' (known: " + known + ")";
}

std::string setting_text(const JsonValue& value, std::string_view what) {
  if (value.is_string()) return value.as_string();
  if (value.is_number()) return number_text(value.as_number());
  if (value.is_bool()) return value.as_bool() ? "true" : "false";
  throw ConfigError(std::string(what) + " must be a string, number or bool");
}

std::uint64_t setting_count(const JsonValue& value, std::string_view what,
                            std::uint64_t lo, std::uint64_t hi) {
  return parse_count(what, setting_text(value, what), lo, hi);
}

void read_settings(ConfigGraph& graph, std::string_view section,
                   const JsonValue& members) {
  for (const auto& [key, value] : members.as_object()) {
    const std::pair<std::string_view, std::string_view> member{section, key};
    if (std::ranges::count(kListMembers, member) > 0) continue;
    const Setting* row = find_setting(section, key);
    if (row == nullptr) throw ConfigError(unknown_setting(section, key));
    const std::string what = std::string(section) + "." + key;
    row->parse(graph, setting_text(value, what), what);
  }
}

JsonObject write_settings(const ConfigGraph& graph,
                          std::string_view section) {
  static const ConfigGraph defaults;
  JsonObject out;
  for (const Setting& s : kSettings) {
    if (s.section != section || s.print == nullptr) continue;
    std::string text = s.print(graph);
    if (text != s.print(defaults)) out.emplace(s.key, std::move(text));
  }
  return out;
}

void check_setting(std::string_view path, const std::string& text,
                   std::string_view what) {
  const std::size_t slash = path.find('/', 1);
  const Setting* row =
      find_setting(path.substr(1, slash - 1), path.substr(slash + 1));
  if (row == nullptr) throw ConfigError("no setting at " + std::string(path));
  ConfigGraph scratch;
  row->parse(scratch, text, what);
}

}  // namespace sst::sdl
