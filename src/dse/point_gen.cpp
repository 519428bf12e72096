#include "dse/point_gen.h"

#include <algorithm>
#include <set>

namespace sst::dse {

namespace {

/// splitmix64: the sampling stream.  Small, seedable, and stable across
/// platforms — random subsets must be identical everywhere or resumed
/// sweeps would disagree about which points exist.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Unbiased bounded draw (rejection on the modulo bias zone).
std::uint64_t bounded(std::uint64_t& state, std::uint64_t n) {
  const std::uint64_t limit = n * ((~0ULL) / n);
  for (;;) {
    const std::uint64_t r = splitmix64(state);
    if (r < limit) return r % n;
  }
}

Point point_from_index(const SweepSpec& spec, std::uint64_t index) {
  Point p;
  p.id = index;
  p.values.resize(spec.axes.size());
  // Row-major: the last axis varies fastest.
  std::uint64_t rest = index;
  for (std::size_t a = spec.axes.size(); a-- > 0;) {
    const std::uint64_t n = spec.axes[a].values.size();
    p.values[a] = spec.axes[a].values[rest % n];
    rest /= n;
  }
  return p;
}

}  // namespace

std::vector<Point> generate_points(const SweepSpec& spec) {
  const std::uint64_t total = spec.cross_size();
  std::vector<std::uint64_t> indices;
  if (spec.sampling.mode == Sampling::Mode::kCross ||
      spec.sampling.count >= total) {
    indices.resize(total);
    for (std::uint64_t i = 0; i < total; ++i) indices[i] = i;
  } else {
    std::set<std::uint64_t> chosen;
    std::uint64_t state = spec.sampling.seed;
    while (chosen.size() < spec.sampling.count) {
      chosen.insert(bounded(state, total));
    }
    indices.assign(chosen.begin(), chosen.end());
  }
  std::vector<Point> points;
  points.reserve(indices.size());
  for (const std::uint64_t i : indices) {
    points.push_back(point_from_index(spec, i));
  }
  return points;
}

void apply_point(const SweepSpec& spec, const Point& point,
                 sdl::ConfigGraph& graph) {
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    graph.apply_override(spec.axes[a].path, point.values[a]);
  }
}

void validate_axes(const SweepSpec& spec, const sdl::JsonValue& base_model) {
  sdl::ConfigGraph graph = sdl::ConfigGraph::from_json(base_model);
  for (const auto& axis : spec.axes) {
    graph.apply_override(axis.path, axis.values.front());
  }
  // Every point runs at the policy's rank count (orchestrator.cpp), and a
  // component's pinned rank is valid or not against it.
  if (spec.run.ranks > 0) {
    graph.apply_override("/config/num_ranks", std::to_string(spec.run.ranks));
  }
  graph.check();
}

}  // namespace sst::dse
