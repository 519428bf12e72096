// Online rebalancing policy: the deterministic planner that decides which
// components the parallel engine migrates between ranks at sync barriers
// (Simulation::maybe_rebalance runs it and Simulation::migrate moves the
// components).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace sst {

/// Tuning for the online rebalancer (SimConfig::rebalance*).
struct RebalanceConfig {
  /// Fire when max/mean per-rank epoch event rate reaches this ratio.
  double threshold = 1.5;
  /// Sync epochs between imbalance checks.
  std::uint64_t period = 8;
  /// Components migrated per rebalance at most.
  std::uint32_t max_moves = 8;
  /// Ignore epoch groups that retired fewer events than this (startup,
  /// drained phases): too little signal to justify moving state.
  std::uint64_t min_events = 256;
};

/// One component's event count over the last epoch group, as fed to the
/// rebalance controller.  Entries must be in ComponentId order.
struct ComponentLoad {
  ComponentId comp = kInvalidComponent;
  RankId rank = 0;
  std::uint64_t events = 0;
};

/// A planned migration: move `comp` from rank `from` to rank `to`.
struct MigrationDecision {
  ComponentId comp = kInvalidComponent;
  RankId from = 0;
  RankId to = 0;
};

/// Deterministic greedy rebalance planner.  A pure function of the
/// per-component epoch event counts and component ids — no wall clock,
/// no RNG — so that, with epoch boundaries themselves a pure function of
/// event times, the entire migration schedule is reproducible run to
/// run, and the decision never depends on which rank measured what
/// first.  Property-tested (tests/core/test_rebalance.cpp):
///
///   * no-op below threshold — plan() is empty unless max/mean rank
///     load reaches `threshold` and the group retired >= `min_events`;
///   * bounded          — at most `max_moves` decisions per plan;
///   * improving        — each move shrinks the hot/cold gap and never
///     overshoots (the moved load is <= half the gap);
///   * deterministic    — ties break on lowest rank id / component id.
class RebalanceController {
 public:
  /// Throws ConfigError unless threshold > 1, period >= 1,
  /// max_moves >= 1.
  RebalanceController(RebalanceConfig cfg, std::uint32_t num_ranks);

  [[nodiscard]] const RebalanceConfig& config() const { return cfg_; }

  /// max/mean of the per-rank totals (0 when no events at all).
  [[nodiscard]] static double imbalance(
      const std::vector<std::uint64_t>& per_rank);

  /// Plans migrations for one epoch group.  `loads` holds every
  /// component's events over the group, in ComponentId order.
  [[nodiscard]] std::vector<MigrationDecision> plan(
      const std::vector<ComponentLoad>& loads) const;

 private:
  RebalanceConfig cfg_;
  std::uint32_t num_ranks_;
};

}  // namespace sst
