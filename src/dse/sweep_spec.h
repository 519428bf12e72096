// SweepSpec: the declarative input of the design-space exploration
// driver (src/dse).  A sweep is a base SDL model plus a set of *axes* —
// JSON-pointer-style paths into the ConfigGraph (see
// ConfigGraph::apply_override) with either an explicit value list or a
// linear/log range — expanded into concrete simulation points by
// cross-product or seeded random sampling, executed by the orchestrator,
// and scored against user-declared *objectives* read from each point's
// statistics dump.
//
// JSON schema:
// {
//   "name": "cache_vs_latency",        // optional; defaults from filename
//   "model": "node.json",              // base SDL model, relative to spec
//   "axes": [
//     { "path": "/components/l1/params/size",
//       "values": ["16KiB", "32KiB", "64KiB"] },
//     { "path": "/links/0/latency", "name": "l1_lat",
//       "range": {"from": 1, "to": 8, "steps": 4, "scale": "log"},
//       "suffix": "ns" }
//   ],
//   "sample": { "mode": "cross" },     // or {"mode": "random",
//                                      //     "count": 16, "seed": 7}
//   "objectives": [
//     { "name": "instructions", "component": "cpu",
//       "statistic": "instructions", "field": "count",
//       "goal": "max", "weight": 1.0 },
//     { "component": "mc", "statistic": "bytes", "goal": "min" }
//   ],
//   "run": { "concurrency": 4, "timeout_seconds": 120, "retries": 2,
//            "backoff_seconds": 0.5, "ranks": 0, "end": "50us" }
// }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sdl/json.h"

namespace sst::dse {

/// Bounds range steps, the cross product and a random sample, so
/// expanding a spec cannot exhaust memory.
inline constexpr std::uint64_t kMaxSweepPoints = 1'000'000;

/// Thrown on malformed sweep specifications.
class SweepError : public ConfigError {
 public:
  using ConfigError::ConfigError;
};

/// One swept dimension: a ConfigGraph override path plus its expanded
/// candidate values (explicit lists and ranges both end up here).
struct Axis {
  std::string name;                 // results-table column
  std::string path;                 // ConfigGraph::apply_override path
  std::vector<std::string> values;  // expanded candidate values, in order
};

/// How the cross product of the axes is reduced to executed points.
struct Sampling {
  enum class Mode { kCross, kRandom };
  Mode mode = Mode::kCross;
  std::uint64_t count = 0;  // random mode: points to draw
  std::uint64_t seed = 1;   // random mode: sampling seed
};

/// One optimization objective, resolved against a point's stats JSON
/// ({"component", "statistic", "fields": {...}} records).
struct Objective {
  std::string name;       // results-table column
  std::string component;
  std::string statistic;
  std::string field = "count";
  bool maximize = false;  // "goal": "max" | "min"
  double weight = 1.0;    // best-point scalarization weight
};

/// Execution policy for the orchestrator.
struct RunPolicy {
  unsigned concurrency = 2;      // worker processes running points
  double timeout_seconds = 300;  // per-point watchdog budget (0 = none)
  unsigned retries = 2;          // extra attempts for transient failures
  double backoff_seconds = 0.5;  // initial retry backoff, doubling
  unsigned ranks = 0;            // per-point rank count (0 = model's)
  std::string end_time;          // per-point end time ("" = model's)
};

struct SweepSpec {
  std::string name = "sweep";
  std::string model_path;  // resolved against the spec file's directory
  std::vector<Axis> axes;
  Sampling sampling;
  std::vector<Objective> objectives;
  RunPolicy run;

  /// Parses and validates a sweep document.  `spec_dir` anchors relative
  /// model paths ("" = cwd).  Throws SweepError on structural problems:
  /// missing/empty axes, empty ranges, duplicate axis paths, bad
  /// goals/modes, non-positive log ranges, counts that are not whole
  /// numbers in range, more than kMaxSweepPoints points.
  [[nodiscard]] static SweepSpec from_json_text(std::string_view text,
                                               const std::string& spec_dir);
  [[nodiscard]] static SweepSpec from_json(const sdl::JsonValue& doc,
                                           const std::string& spec_dir);

  /// Serializes back to JSON (the driver copies the spec into the sweep
  /// output directory so `resume` does not depend on the original file).
  [[nodiscard]] sdl::JsonValue to_json() const;

  /// Total size of the axes' cross product (UINT64_MAX if it overflows).
  [[nodiscard]] std::uint64_t cross_size() const;
};

}  // namespace sst::dse
