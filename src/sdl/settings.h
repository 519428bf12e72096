// Run settings: each scalar setting of the SDL "config", "observability",
// "checkpointing" and "network" sections is one row of one table
// (README.md "Run settings"), which parses its text and prints it back.
// The SDL reader, overrides, to_json, sstsim flags, daemon requests and
// sweeps all set a setting through its row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "sdl/json.h"

namespace sst::sdl {

class ConfigGraph;

struct Setting {
  std::string_view section;
  std::string_view key;
  /// Parses `text` into the field.  Errors name `what`, the setting as
  /// the caller spelled it ("checkpointing.keep", "--checkpoint-keep").
  void (*parse)(ConfigGraph& graph, const std::string& text,
                std::string_view what);
  /// The field as the text `parse` reads back; null for a removed key,
  /// which only fails naming the removal.
  std::string (*print)(const ConfigGraph& graph);
};

inline constexpr std::string_view kSettingSections[] = {
    "config", "observability", "checkpointing", "network"};

/// Every row, in the order error messages list a section's keys.
[[nodiscard]] std::span<const Setting> settings();
[[nodiscard]] const Setting* find_setting(std::string_view section,
                                          std::string_view key);
/// "unknown <section> key '<key>' (known: ...)".
[[nodiscard]] std::string unknown_setting(std::string_view section,
                                          std::string_view key);

/// A scalar JSON value as the text a row parses: a string as is, a number
/// in plain decimal with shortest round-trip digits, a bool as true/false.
[[nodiscard]] std::string setting_text(const JsonValue& value,
                                       std::string_view what);
/// A JSON member that sizes something (a sweep spec count, a daemon run
/// field, a ledger field) as parse_count reads its setting_text: a whole
/// number in [lo, hi].  Throws ConfigError naming `what`.
[[nodiscard]] std::uint64_t setting_count(const JsonValue& value,
                                          std::string_view what,
                                          std::uint64_t lo, std::uint64_t hi);

/// Sets `section`'s settings from a JSON object's members, except the list
/// network.endpoints; an unknown key fails listing the section's keys.
void read_settings(ConfigGraph& graph, std::string_view section,
                   const JsonValue& members);
/// `section`'s settings that differ from their defaults, as JSON strings.
[[nodiscard]] JsonObject write_settings(const ConfigGraph& graph,
                                        std::string_view section);

/// Parses `text` for the setting at `path` ("/config/seed") on a scratch
/// graph, so a front end refuses a bad value before anything runs.
void check_setting(std::string_view path, const std::string& text,
                   std::string_view what);

/// sstsim's setting flags: `--ranks 4` is the override
/// /config/num_ranks=4, and a switch carries its fixed value.
struct SettingFlag {
  std::string_view flag;
  std::string_view path;
  const char* fixed;  // null when the flag takes a value
};

inline constexpr SettingFlag kSettingFlags[] = {
    {"--ranks", "/config/num_ranks", nullptr},
    {"--end", "/config/end_time", nullptr},
    {"--seed", "/config/seed", nullptr},
    {"--fault-seed", "/config/fault_seed", nullptr},
    {"--rebalance", "/config/rebalance_mode", "on"},
    {"--rebalance-threshold", "/config/rebalance_threshold", nullptr},
    {"--rebalance-period", "/config/rebalance_period", nullptr},
    {"--rebalance-max-moves", "/config/rebalance_max_moves", nullptr},
    {"--watchdog", "/config/watchdog_seconds", nullptr},
    {"--stats", "/observability/stats", nullptr},
    {"--stats-format", "/observability/stats_format", nullptr},
    {"--trace", "/observability/trace", nullptr},
    {"--trace-engine", "/observability/trace_engine", "true"},
    {"--metrics", "/observability/metrics", nullptr},
    {"--metrics-period", "/observability/metrics_period", nullptr},
    {"--profile-engine", "/observability/profile_engine", "true"},
    {"--checkpoint-period", "/checkpointing/period", nullptr},
    {"--checkpoint-wall", "/checkpointing/wall_seconds", nullptr},
    {"--checkpoint-dir", "/checkpointing/dir", nullptr},
    {"--checkpoint-keep", "/checkpointing/keep", nullptr},
};

}  // namespace sst::sdl
