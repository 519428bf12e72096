#include "core/rebalance.h"

namespace sst {

RebalanceController::RebalanceController(RebalanceConfig cfg,
                                         std::uint32_t num_ranks)
    : cfg_(cfg), num_ranks_(num_ranks) {
  if (!(cfg_.threshold > 1.0)) {
    throw ConfigError("rebalance: threshold must be > 1 (max/mean ratio)");
  }
  if (cfg_.period < 1) {
    throw ConfigError("rebalance: period must be >= 1 sync epoch");
  }
  if (cfg_.max_moves < 1) {
    throw ConfigError("rebalance: max_moves must be >= 1");
  }
  if (num_ranks_ < 1) {
    throw ConfigError("rebalance: num_ranks must be >= 1");
  }
}

double RebalanceController::imbalance(
    const std::vector<std::uint64_t>& per_rank) {
  if (per_rank.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t v : per_rank) {
    total += v;
    if (v > max) max = v;
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(per_rank.size());
  return static_cast<double>(max) / mean;
}

std::vector<MigrationDecision> RebalanceController::plan(
    const std::vector<ComponentLoad>& loads) const {
  std::vector<MigrationDecision> moves;
  if (num_ranks_ < 2) return moves;

  std::vector<std::uint64_t> rank_load(num_ranks_, 0);
  std::uint64_t total = 0;
  for (const ComponentLoad& l : loads) {
    rank_load[l.rank] += l.events;
    total += l.events;
  }
  if (total < cfg_.min_events) return moves;
  if (imbalance(rank_load) < cfg_.threshold) return moves;

  // Greedy: repeatedly shave the hottest rank toward the coldest.  The
  // candidate is the largest per-component load that fits in half the
  // hot/cold gap (never overshoots, so the plan cannot ping-pong a
  // component back next period).  All ties break on the lowest id.
  std::vector<RankId> comp_rank(loads.size());
  std::vector<std::uint64_t> comp_events(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    comp_rank[i] = loads[i].rank;
    comp_events[i] = loads[i].events;
  }
  for (std::uint32_t step = 0; step < cfg_.max_moves; ++step) {
    RankId hot = 0;
    RankId cold = 0;
    for (RankId r = 1; r < num_ranks_; ++r) {
      if (rank_load[r] > rank_load[hot]) hot = r;
      if (rank_load[r] < rank_load[cold]) cold = r;
    }
    const std::uint64_t gap = rank_load[hot] - rank_load[cold];
    const std::uint64_t budget = gap / 2;
    if (budget == 0) break;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t best = kNone;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (comp_rank[i] != hot) continue;
      const std::uint64_t e = comp_events[i];
      if (e == 0 || e > budget) continue;
      if (best == kNone || e > comp_events[best] ||
          (e == comp_events[best] && loads[i].comp < loads[best].comp)) {
        best = i;
      }
    }
    if (best == kNone) break;  // nothing fits without overshoot
    moves.push_back({loads[best].comp, hot, cold});
    comp_rank[best] = cold;
    rank_load[hot] -= comp_events[best];
    rank_load[cold] += comp_events[best];
  }
  return moves;
}

}  // namespace sst
