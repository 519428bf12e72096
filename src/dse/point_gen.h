// Point generation: expands a SweepSpec's axes into the concrete list of
// simulation points to execute, either the full cross product or a
// seeded random subset of it.  Point ids are indices into the cross
// product (row-major, last axis fastest), so the id->configuration
// mapping is stable across runs, resumes, and concurrency levels — the
// property the ledger and the results table rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/sweep_spec.h"
#include "sdl/config_graph.h"

namespace sst::dse {

/// One concrete configuration: the cross-product index plus the chosen
/// value per axis (parallel to SweepSpec::axes).
struct Point {
  std::uint64_t id = 0;
  std::vector<std::string> values;
};

/// Expands the spec into its executed points, sorted by id.  Cross mode
/// yields every combination; random mode draws `sampling.count` distinct
/// combinations from a splitmix64 stream seeded with `sampling.seed`
/// (the whole cross product when count >= its size).
[[nodiscard]] std::vector<Point> generate_points(const SweepSpec& spec);

/// Applies a point's axis values to a config graph via
/// ConfigGraph::apply_override.  Throws ConfigError on bad axis paths.
void apply_point(const SweepSpec& spec, const Point& point,
                 sdl::ConfigGraph& graph);

/// Early validation: applies each axis's first value, and the run
/// policy's rank count, to a scratch copy of the base graph and validates
/// it, so bad axis paths and undeclared param keys surface at spec-load
/// time, before any point runs.  Throws ConfigError.
void validate_axes(const SweepSpec& spec, const sdl::JsonValue& base_model);

}  // namespace sst::dse
