// DRAM timing model (DRAMSim-class substitute).
//
// Models a single memory channel with B banks: per-bank row-buffer state
// (open row, activate/precharge timing), the shared data bus (burst
// serialization — where peak bandwidth comes from), JEDEC-style timing
// parameters tCL / tRCD / tRP / tRAS, and an FR-FCFS scheduler: pending
// requests are reordered so row-buffer hits issue ahead of older misses,
// exactly the policy real controllers use to keep narrow-row parts
// (GDDR5) from thrashing under interleaved streams.
//
// Address mapping uses skewed row interleaving (bank = f(row) with two
// skew terms) so power-of-two strides — cache capacities, array pitches —
// do not alias competing streams into one bank.
//
// The backend interface is pull-based: the owning MemoryController pushes
// requests, then repeatedly advances the backend to the current time and
// collects scheduled completions into a buffer it reuses; next_action()
// tells the controller when to wake the backend again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "mem/mem_event.h"

namespace sst::mem {

/// Timing and organization of one DRAM channel.
struct DramTimingParams {
  std::string name = "generic";
  std::uint32_t num_banks = 8;
  std::uint64_t row_bytes = 8192;      // row-buffer (page) size
  double peak_bandwidth_gbs = 10.667;  // data-bus bandwidth, GB/s
  SimTime t_cl = 13'500;               // CAS latency (ps)
  SimTime t_rcd = 13'500;              // RAS-to-CAS (ps)
  SimTime t_rp = 13'500;               // precharge (ps)
  SimTime t_ras = 36'000;              // row-active minimum (ps)
  // Energy model hooks (used by power::DramPowerModel).
  double energy_per_access_nj = 15.0;  // per 64B access
  double background_power_w = 0.75;    // static / refresh per channel
  double cost_per_gb_usd = 8.0;

  /// Time for one cache line on the data bus.
  [[nodiscard]] SimTime burst_time(std::uint32_t bytes) const;

  // JEDEC-flavoured presets used by the design-space experiments.
  static DramTimingParams ddr2_800();
  static DramTimingParams ddr3_1333();
  static DramTimingParams gddr5();
  /// Lookup by name ("DDR2", "DDR3", "GDDR5"); throws ConfigError.
  static DramTimingParams preset(std::string_view name);
};

/// A finished memory access: the token given at push(), and the simulated
/// time its data completed on the bus.
struct MemCompletion {
  std::uint64_t token;
  SimTime time;

  void ckpt_io(ckpt::Serializer& s);
};

/// Interface for memory-controller backends.
class MemBackend {
 public:
  virtual ~MemBackend() = default;

  /// Accepts a request at time `now`.
  virtual void push(std::uint64_t token, Addr addr, bool is_write,
                    std::uint32_t bytes, SimTime now) = 0;

  /// Makes all scheduling decisions possible up to time `now` and appends
  /// the completions decided by those issues to `out` (their completion
  /// times may lie in the future — the controller schedules the
  /// responses).
  virtual void advance(SimTime now, std::vector<MemCompletion>& out) = 0;

  /// Earliest future time at which advance() could decide something new,
  /// or kTimeNever when no requests are pending.
  [[nodiscard]] virtual SimTime next_action() const = 0;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Checkpoint hook: (un)packs dynamic scheduling state.  Backends are
  /// rebuilt from config on restore, so only runtime state goes here.
  virtual void serialize(ckpt::Serializer& s) = 0;
};

/// Fixed-latency, bandwidth-throttled backend (the "abstract model" end
/// of SST's multi-fidelity spectrum).  Decisions are immediate.
class SimpleBackend final : public MemBackend {
 public:
  SimpleBackend(SimTime latency, double bandwidth_gbs);

  void push(std::uint64_t token, Addr addr, bool is_write,
            std::uint32_t bytes, SimTime now) override;
  void advance(SimTime now, std::vector<MemCompletion>& out) override;
  [[nodiscard]] SimTime next_action() const override { return kTimeNever; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  void serialize(ckpt::Serializer& s) override;

 private:
  std::string name_ = "simple";
  SimTime latency_;
  double bytes_per_ps_;
  SimTime bus_free_ = 0;
  std::vector<MemCompletion> decided_;
};

/// Detailed bank/row/bus DRAM backend with FR-FCFS scheduling.
///
/// Bank count and row size must be powers of two, so a request's bank and
/// row decode with shifts; they are decoded once, in push().  Each pass of
/// advance() over the queue finds the FR-FCFS winner and the earliest
/// issue time together, and next_action() returns the latter.
class DramBackend final : public MemBackend {
 public:
  explicit DramBackend(DramTimingParams params);

  void push(std::uint64_t token, Addr addr, bool is_write,
            std::uint32_t bytes, SimTime now) override;
  void advance(SimTime now, std::vector<MemCompletion>& out) override;
  [[nodiscard]] SimTime next_action() const override { return next_action_; }
  [[nodiscard]] const std::string& name() const override {
    return params_.name;
  }

  [[nodiscard]] const DramTimingParams& params() const { return params_; }

  // Introspection for statistics / tests.
  [[nodiscard]] std::uint64_t row_hits() const { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const { return row_misses_; }
  [[nodiscard]] std::uint64_t accesses() const {
    return row_hits_ + row_misses_;
  }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Address decomposition (exposed for tests).
  [[nodiscard]] std::uint32_t bank_of(Addr addr) const;
  [[nodiscard]] std::uint64_t row_of(Addr addr) const;

  void serialize(ckpt::Serializer& s) override;

 private:
  struct Bank {
    std::uint64_t open_row = ~0ULL;
    SimTime ready = 0;      // earliest next command issue
    SimTime ras_done = 0;   // row-active window end (tRAS)

    void ckpt_io(ckpt::Serializer& s);
  };

  struct Pending {
    std::uint64_t token;
    Addr addr;
    std::uint32_t bytes;
    SimTime arrival;
    std::uint64_t seq;  // FCFS order among equal priority
    // Decoded from addr by push() and on restore; not checkpointed.
    std::uint32_t bank = 0;
    std::uint64_t row = 0;

    void ckpt_io(ckpt::Serializer& s);
  };

  /// Fills in p.bank and p.row from p.addr.
  void decode(Pending& p) const;
  /// Earliest time request `p` could issue its first command.
  [[nodiscard]] SimTime issue_time(const Pending& p) const;
  /// Issues `p` (updates bank and bus state); returns data-complete time.
  SimTime issue(const Pending& p);

  DramTimingParams params_;
  unsigned row_shift_ = 0;   // log2(row_bytes)
  unsigned bank_shift_ = 0;  // log2(num_banks)
  std::vector<Bank> banks_;
  SimTime data_bus_free_ = 0;
  std::vector<Pending> queue_;
  // Earliest issue time over queue_ for the current bank state; kept by
  // push() and advance(), recomputed on restore.
  SimTime next_action_ = kTimeNever;
  std::uint64_t next_seq_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace sst::mem
