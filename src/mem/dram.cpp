#include "mem/dram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "ckpt/serializer.h"

namespace sst::mem {

SimTime DramTimingParams::burst_time(std::uint32_t bytes) const {
  // bytes / (GB/s) = ns; times 1000 for ps.
  const double ps =
      static_cast<double>(bytes) / peak_bandwidth_gbs * 1000.0;
  return std::max<SimTime>(1, static_cast<SimTime>(std::llround(ps)));
}

DramTimingParams DramTimingParams::ddr2_800() {
  DramTimingParams p;
  p.name = "DDR2-800";
  p.num_banks = 8;
  p.row_bytes = 8192;
  p.peak_bandwidth_gbs = 6.4;  // 800 MT/s x 8 B
  p.t_cl = 12'500;             // CL5 @ 2.5ns
  p.t_rcd = 12'500;
  p.t_rp = 12'500;
  p.t_ras = 45'000;
  p.energy_per_access_nj = 25.0;
  p.background_power_w = 1.1;
  p.cost_per_gb_usd = 4.0;
  return p;
}

DramTimingParams DramTimingParams::ddr3_1333() {
  DramTimingParams p;
  p.name = "DDR3-1333";
  p.num_banks = 8;
  p.row_bytes = 8192;
  p.peak_bandwidth_gbs = 10.667;  // 1333 MT/s x 8 B
  p.t_cl = 13'500;                // CL9 @ 1.5ns
  p.t_rcd = 13'500;
  p.t_rp = 13'500;
  p.t_ras = 36'000;
  p.energy_per_access_nj = 15.0;
  p.background_power_w = 0.9;
  p.cost_per_gb_usd = 6.0;
  return p;
}

DramTimingParams DramTimingParams::gddr5() {
  DramTimingParams p;
  p.name = "GDDR5";
  p.num_banks = 16;
  p.row_bytes = 2048;
  p.peak_bandwidth_gbs = 32.0;  // 4 Gb/s/pin x 64-bit effective channel
  p.t_cl = 15'000;
  p.t_rcd = 14'000;
  p.t_rp = 14'000;
  p.t_ras = 33'000;
  p.energy_per_access_nj = 22.0;  // higher I/O energy than DDR3
  p.background_power_w = 2.8;     // high static power: the paper's tradeoff
  p.cost_per_gb_usd = 22.0;       // premium graphics memory
  return p;
}

DramTimingParams DramTimingParams::preset(std::string_view name) {
  if (name == "DDR2" || name == "DDR2-800" || name == "ddr2") {
    return ddr2_800();
  }
  if (name == "DDR3" || name == "DDR3-1333" || name == "ddr3") {
    return ddr3_1333();
  }
  if (name == "GDDR5" || name == "gddr5") {
    return gddr5();
  }
  throw ConfigError("unknown DRAM preset '" + std::string(name) +
                    "' (known: DDR2, DDR3, GDDR5)");
}

// ---------------------------------------------------------------------
// SimpleBackend
// ---------------------------------------------------------------------

SimpleBackend::SimpleBackend(SimTime latency, double bandwidth_gbs)
    : latency_(latency), bytes_per_ps_(bandwidth_gbs / 1000.0) {
  if (bandwidth_gbs <= 0) {
    throw ConfigError("SimpleBackend: bandwidth must be > 0");
  }
}

void SimpleBackend::push(std::uint64_t token, Addr /*addr*/,
                         bool /*is_write*/, std::uint32_t bytes,
                         SimTime now) {
  const auto burst = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(bytes) / bytes_per_ps_));
  const SimTime start = std::max(now, bus_free_);
  bus_free_ = start + burst;
  decided_.push_back({token, start + latency_ + burst});
}

void SimpleBackend::advance(SimTime /*now*/,
                            std::vector<MemCompletion>& out) {
  out.insert(out.end(), decided_.begin(), decided_.end());
  decided_.clear();
}

// ---------------------------------------------------------------------
// DramBackend
// ---------------------------------------------------------------------

DramBackend::DramBackend(DramTimingParams params)
    : params_(std::move(params)), banks_(params_.num_banks) {
  if (!std::has_single_bit(params_.num_banks)) {
    throw ConfigError("DRAM: num_banks must be a power of 2");
  }
  if (!std::has_single_bit(params_.row_bytes)) {
    throw ConfigError("DRAM: row_bytes must be a power of 2");
  }
  row_shift_ = static_cast<unsigned>(std::countr_zero(params_.row_bytes));
  bank_shift_ = static_cast<unsigned>(std::countr_zero(params_.num_banks));
  if (row_shift_ + bank_shift_ >= 64) {
    throw ConfigError("DRAM: row_bytes * num_banks must be below 2^64");
  }
}

std::uint32_t DramBackend::bank_of(Addr addr) const {
  // Skewed row interleaving: consecutive rows rotate across banks, and
  // the skew terms break power-of-two strides (cache capacity, array
  // pitch) that would otherwise alias competing streams into one bank —
  // the same trick real controllers play with XOR bank hashing.  Lines
  // within a row share a bank, so sequential streams still get row hits.
  // Two skew terms (row / banks, row / banks^2): a single-level skew
  // still aliases at stride banks^2.
  const std::uint64_t row = addr >> row_shift_;
  return static_cast<std::uint32_t>(
      (row + (row >> bank_shift_) + (row >> (2 * bank_shift_))) &
      (params_.num_banks - 1));
}

std::uint64_t DramBackend::row_of(Addr addr) const {
  return addr >> (row_shift_ + bank_shift_);
}

void DramBackend::decode(Pending& p) const {
  p.bank = bank_of(p.addr);
  p.row = row_of(p.addr);
}

void DramBackend::push(std::uint64_t token, Addr addr, bool /*is_write*/,
                       std::uint32_t bytes, SimTime now) {
  Pending& p = queue_.emplace_back(
      Pending{.token = token, .addr = addr, .bytes = bytes, .arrival = now,
              .seq = next_seq_++});
  decode(p);
  // Bank state is unchanged since the last scan, so the earliest issue
  // time only needs the new request folded in.
  next_action_ = std::min(next_action_, issue_time(p));
}

SimTime DramBackend::issue_time(const Pending& p) const {
  const Bank& bank = banks_[p.bank];
  SimTime t = std::max(p.arrival, bank.ready);
  if (bank.open_row != p.row) {
    // Must wait out tRAS before the precharge can begin.
    t = std::max(t, bank.ras_done);
  }
  return t;
}

SimTime DramBackend::issue(const Pending& p) {
  Bank& bank = banks_[p.bank];
  const SimTime start = issue_time(p);

  const SimTime burst = params_.burst_time(p.bytes);
  SimTime cas_issue;
  if (bank.open_row == p.row) {
    // Row hit: the CAS issues immediately; tCL is pure latency and CAS
    // commands pipeline at the burst (tCCD) rate.
    ++row_hits_;
    cas_issue = start;
  } else {
    // Row miss: precharge + activate, then the CAS.
    ++row_misses_;
    cas_issue = start + params_.t_rp + params_.t_rcd;
    bank.open_row = p.row;
    bank.ras_done = cas_issue + params_.t_ras;
  }
  SimTime data_start = cas_issue + params_.t_cl;

  // Aggregate data-bus throughput: each access reserves one burst slot
  // counted from issue, so a late (row-miss) access does not head-of-line
  // block other banks' data.
  data_bus_free_ = std::max(data_bus_free_, start) + burst;
  data_start = std::max(data_start, data_bus_free_ - burst);
  // The bank can accept its next CAS one burst interval after this one
  // (data follows t_cl behind, back-to-back on the pins).
  bank.ready = std::max(cas_issue + burst, data_start - params_.t_cl);
  return data_start + burst;
}

void DramBackend::advance(SimTime now, std::vector<MemCompletion>& out) {
  // next_action_ is exact, so before it nothing is issuable.
  if (now < next_action_) return;
  for (;;) {
    // FR-FCFS: among requests issuable by `now`, row hits beat misses and
    // age breaks ties; if nothing is issuable yet, stop.  The same pass
    // takes the earliest issue time of every request, which is
    // next_action() once nothing is left to issue.
    std::size_t best = queue_.size();
    SimTime best_issue = kTimeNever;
    bool best_hit = false;
    SimTime earliest = kTimeNever;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Pending& p = queue_[i];
      const SimTime t = issue_time(p);
      earliest = std::min(earliest, t);
      if (t > now) continue;
      const bool hit = banks_[p.bank].open_row == p.row;
      const bool better =
          best == queue_.size() || (hit && !best_hit) ||
          (hit == best_hit &&
           (t < best_issue ||
            (t == best_issue && p.seq < queue_[best].seq)));
      if (better) {
        best = i;
        best_issue = t;
        best_hit = hit;
      }
    }
    if (best == queue_.size()) {
      next_action_ = earliest;
      return;
    }
    const Pending chosen = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    out.push_back({chosen.token, issue(chosen)});
  }
}

// ---------------------------------------------------------------------
// Checkpoint hooks
// ---------------------------------------------------------------------

void MemCompletion::ckpt_io(ckpt::Serializer& s) { s & token & time; }

void SimpleBackend::serialize(ckpt::Serializer& s) {
  s & bus_free_ & decided_;
}

void DramBackend::Bank::ckpt_io(ckpt::Serializer& s) {
  s & open_row & ready & ras_done;
}

void DramBackend::Pending::ckpt_io(ckpt::Serializer& s) {
  s & token & addr & bytes & arrival & seq;
}

void DramBackend::serialize(ckpt::Serializer& s) {
  s & banks_ & data_bus_free_ & queue_ & next_seq_ & row_hits_ & row_misses_;
  if (s.packing()) return;
  if (banks_.size() != params_.num_banks) {
    throw ckpt::CheckpointError("checkpoint DRAM state has " +
                                std::to_string(banks_.size()) +
                                " banks, the preset has " +
                                std::to_string(params_.num_banks));
  }
  next_action_ = kTimeNever;
  for (Pending& p : queue_) {
    decode(p);
    next_action_ = std::min(next_action_, issue_time(p));
  }
}

}  // namespace sst::mem
