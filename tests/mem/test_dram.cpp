// DRAM timing backend: presets, skewed address mapping, row-buffer
// behaviour, FR-FCFS scheduling, bank parallelism, bandwidth saturation,
// and equivalence with a reference linear-scan scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "core/rng.h"
#include "mem/dram.h"

namespace sst::mem {
namespace {

/// Advances `b` to `t`; returns the completions that decided.
std::vector<MemCompletion> advance(MemBackend& b, SimTime t) {
  std::vector<MemCompletion> out;
  b.advance(t, out);
  return out;
}

/// Pushes one request and drives the backend until it completes.
SimTime run_one(MemBackend& b, std::uint64_t token, Addr a, bool write,
                std::uint32_t bytes, SimTime now) {
  b.push(token, a, write, bytes, now);
  SimTime t = now;
  for (;;) {
    for (const MemCompletion& c : advance(b, t)) {
      if (c.token == token) return c.time;
    }
    t = b.next_action();
    if (t == kTimeNever) {
      ADD_FAILURE() << "backend never completed token " << token;
      return 0;
    }
  }
}

/// Drives the backend until `expect` completions arrive; returns the
/// latest completion time.
SimTime drain_all(MemBackend& b, std::size_t expect) {
  SimTime t = 0;
  SimTime last = 0;
  std::size_t n = 0;
  while (n < expect) {
    for (const MemCompletion& c : advance(b, t)) {
      last = std::max(last, c.time);
      ++n;
    }
    if (n >= expect) break;
    const SimTime na = b.next_action();
    if (na == kTimeNever) {
      ADD_FAILURE() << "backend stalled with " << n << "/" << expect;
      break;
    }
    t = na;
  }
  return last;
}

/// Finds an address in the same bank as `ref` but a different row.
Addr same_bank_other_row(const DramBackend& d, Addr ref) {
  const auto& p = d.params();
  for (Addr a = ref + p.row_bytes;; a += p.row_bytes) {
    if (d.bank_of(a) == d.bank_of(ref) && d.row_of(a) != d.row_of(ref)) {
      return a;
    }
  }
}

TEST(DramPresets, LookupByName) {
  EXPECT_EQ(DramTimingParams::preset("DDR2").name, "DDR2-800");
  EXPECT_EQ(DramTimingParams::preset("DDR3").name, "DDR3-1333");
  EXPECT_EQ(DramTimingParams::preset("GDDR5").name, "GDDR5");
  EXPECT_THROW(DramTimingParams::preset("DDR9"), ConfigError);
}

TEST(DramPresets, BandwidthOrdering) {
  EXPECT_LT(DramTimingParams::ddr2_800().peak_bandwidth_gbs,
            DramTimingParams::ddr3_1333().peak_bandwidth_gbs);
  EXPECT_LT(DramTimingParams::ddr3_1333().peak_bandwidth_gbs,
            DramTimingParams::gddr5().peak_bandwidth_gbs);
  // GDDR5 pays for it in static power and cost.
  EXPECT_GT(DramTimingParams::gddr5().background_power_w,
            DramTimingParams::ddr3_1333().background_power_w);
  EXPECT_GT(DramTimingParams::gddr5().cost_per_gb_usd,
            DramTimingParams::ddr3_1333().cost_per_gb_usd);
}

TEST(Dram, BurstTimeMatchesBandwidth) {
  const auto ddr3 = DramTimingParams::ddr3_1333();
  // 64 B / 10.667 GB/s = 6.0 ns
  EXPECT_NEAR(static_cast<double>(ddr3.burst_time(64)), 6000.0, 10.0);
  const auto gddr = DramTimingParams::gddr5();
  EXPECT_NEAR(static_cast<double>(gddr.burst_time(64)), 2000.0, 10.0);
}

TEST(Dram, AddressMappingKeepsRowsInOneBank) {
  DramBackend d(DramTimingParams::ddr3_1333());
  const auto& p = d.params();
  EXPECT_EQ(d.bank_of(0), d.bank_of(p.row_bytes - 1));
  EXPECT_EQ(d.row_of(0), d.row_of(p.row_bytes - 1));
  // The next row rotates to another bank.
  EXPECT_NE(d.bank_of(0), d.bank_of(p.row_bytes));
}

TEST(Dram, SkewedMappingBreaksPowerOfTwoStrides) {
  // Competing streams separated by power-of-two strides (cache capacity,
  // array pitch) must not alias into one bank.
  for (const auto& params : {DramTimingParams::ddr3_1333(),
                             DramTimingParams::gddr5()}) {
    DramBackend d(params);
    for (Addr stride : {32768ULL, 262144ULL, 1048576ULL}) {
      EXPECT_NE(d.bank_of(0), d.bank_of(stride))
          << params.name << " stride " << stride;
    }
  }
}

TEST(Dram, BankRowPairsUnique) {
  // The skewed mapping must still be a bijection: no two distinct rows
  // share a (bank, row-id) pair.
  DramBackend d(DramTimingParams::gddr5());
  const auto& p = d.params();
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  for (Addr a = 0; a < 512 * p.row_bytes; a += p.row_bytes) {
    EXPECT_TRUE(seen.insert({d.bank_of(a), d.row_of(a)}).second)
        << "collision at " << a;
  }
}

TEST(Dram, RowHitFasterThanRowMiss) {
  DramBackend d(DramTimingParams::ddr3_1333());
  const auto& p = d.params();
  // First access to a bank: row miss (precharge + activate + CAS).
  const SimTime t0 = run_one(d, 1, 0, false, 64, 0);
  // Same row: hit (CAS only).  Issued after the first completes so bank
  // and bus effects don't overlap.
  const SimTime t1 = run_one(d, 2, 64, false, 64, t0);
  const SimTime hit_latency = t1 - t0;
  // Different row, same bank: miss again.
  const SimTime t2 = run_one(d, 3, same_bank_other_row(d, 0), false, 64, t1);
  const SimTime miss_latency = t2 - t1;
  EXPECT_LT(hit_latency, miss_latency);
  EXPECT_EQ(d.row_hits(), 1u);
  EXPECT_EQ(d.row_misses(), 2u);
  // Hit = CL + burst.
  EXPECT_EQ(hit_latency, p.t_cl + p.burst_time(64));
}

TEST(Dram, FrFcfsPrefersRowHitsOverOlderMisses) {
  DramBackend d(DramTimingParams::ddr3_1333());
  // Open a row in bank X.
  const SimTime warm = run_one(d, 1, 0, false, 64, 0);
  // Enqueue an older miss (same bank, other row) and a newer hit (open
  // row) at the same instant; the hit's data must complete first.
  d.push(2, same_bank_other_row(d, 0), false, 64, warm);
  d.push(3, 64, false, 64, warm);
  SimTime t_hit = 0, t_miss = 0;
  SimTime t = warm;
  while (t_hit == 0 || t_miss == 0) {
    for (const MemCompletion& c : advance(d, t)) {
      if (c.token == 2) t_miss = c.time;
      if (c.token == 3) t_hit = c.time;
    }
    const SimTime na = d.next_action();
    if (na == kTimeNever) break;
    t = na;
  }
  ASSERT_GT(t_hit, 0u);
  ASSERT_GT(t_miss, 0u);
  EXPECT_LT(t_hit, t_miss);
}

TEST(Dram, SequentialStreamApproachesPeakBandwidth) {
  DramBackend d(DramTimingParams::ddr3_1333());
  constexpr int kLines = 4096;
  for (int i = 0; i < kLines; ++i) {
    d.push(static_cast<std::uint64_t>(i), static_cast<Addr>(i) * 64, false,
           64, 0);
  }
  const SimTime t = drain_all(d, kLines);
  const double seconds = static_cast<double>(t) * 1e-12;
  const double gbs = kLines * 64.0 / seconds / 1e9;
  // Row hits dominate; bandwidth within 15% of peak.
  EXPECT_GT(gbs, d.params().peak_bandwidth_gbs * 0.85);
  EXPECT_LE(gbs, d.params().peak_bandwidth_gbs * 1.01);
  EXPECT_GT(d.row_hits(), d.row_misses() * 20);
}

TEST(Dram, RandomAccessFarBelowPeak) {
  DramBackend d(DramTimingParams::ddr3_1333());
  rng::XorShift128Plus rng(5);
  constexpr int kLines = 4096;
  for (int i = 0; i < kLines; ++i) {
    const Addr a = rng.next_bounded(1ULL << 30) & ~63ULL;
    d.push(static_cast<std::uint64_t>(i), a, false, 64, 0);
  }
  const SimTime t = drain_all(d, kLines);
  const double seconds = static_cast<double>(t) * 1e-12;
  const double gbs = kLines * 64.0 / seconds / 1e9;
  EXPECT_LT(gbs, d.params().peak_bandwidth_gbs * 0.75);
}

TEST(Dram, BankParallelismBeatsSingleBank) {
  // N accesses striped over all banks finish sooner than N accesses
  // alternating between two rows of one bank (every access a row miss).
  const auto params = DramTimingParams::ddr3_1333();
  DramBackend striped(params);
  DramBackend hammered(params);
  const Addr row_a = 0;
  const Addr row_b = same_bank_other_row(hammered, row_a);
  constexpr int kAccesses = 64;
  // The hammer pattern must arrive serially (otherwise FR-FCFS would
  // legitimately batch the two rows): issue each after the previous
  // completes.
  SimTime t_hammer = 0;
  for (int i = 0; i < kAccesses; ++i) {
    t_hammer = run_one(hammered, static_cast<std::uint64_t>(i),
                       (i % 2) ? row_b : row_a, false, 64, t_hammer);
  }
  SimTime t_striped = 0;
  for (int i = 0; i < kAccesses; ++i) {
    striped.push(static_cast<std::uint64_t>(i),
                 static_cast<Addr>(i) * params.row_bytes, false, 64, 0);
  }
  t_striped = drain_all(striped, kAccesses);
  EXPECT_LT(t_striped, t_hammer);
  EXPECT_EQ(hammered.row_hits(), 0u);
}

TEST(Dram, CompletionNeverBeforeNow) {
  DramBackend d(DramTimingParams::gddr5());
  const SimTime t = run_one(d, 1, 0, true, 64, 1'000'000);
  EXPECT_GT(t, 1'000'000u);
}

TEST(Dram, PendingCountTracksQueue) {
  DramBackend d(DramTimingParams::ddr3_1333());
  EXPECT_EQ(d.pending(), 0u);
  EXPECT_EQ(d.next_action(), kTimeNever);
  d.push(1, 0, false, 64, 100);
  EXPECT_EQ(d.pending(), 1u);
  EXPECT_EQ(d.next_action(), 100u);
  (void)advance(d, 100);
  EXPECT_EQ(d.pending(), 0u);
}

TEST(SimpleBackendModel, LatencyPlusSerialization) {
  SimpleBackend b(60'000 /* 60ns */, 10.0 /* GB/s */);
  const SimTime t0 = run_one(b, 1, 0, false, 64, 0);
  // 64B at 10GB/s = 6.4ns serialization + 60ns.
  EXPECT_NEAR(static_cast<double>(t0), 66'400.0, 100.0);
  // Back-to-back requests serialize on the bus.
  const SimTime t1 = run_one(b, 2, 64, false, 64, 0);
  EXPECT_NEAR(static_cast<double>(t1 - t0), 6'400.0, 100.0);
}

TEST(SimpleBackendModel, RejectsZeroBandwidth) {
  EXPECT_THROW(SimpleBackend(1000, 0.0), ConfigError);
}

TEST(Dram, ConstructionValidation) {
  DramTimingParams p = DramTimingParams::ddr3_1333();
  p.num_banks = 0;
  EXPECT_THROW(DramBackend bad(p), ConfigError);
  p = DramTimingParams::ddr3_1333();
  p.row_bytes = 0;
  EXPECT_THROW(DramBackend bad2(p), ConfigError);
  // Bank and row decode with shifts, so the geometry is powers of two.
  p = DramTimingParams::ddr3_1333();
  p.num_banks = 6;
  EXPECT_THROW(DramBackend bad3(p), ConfigError);
  p = DramTimingParams::ddr3_1333();
  p.row_bytes = 3000;
  EXPECT_THROW(DramBackend bad4(p), ConfigError);
}

// ---------------------------------------------------------------------
// Reference equivalence.  ReferenceDram is the FR-FCFS scheduler in its
// plainest form: every pass over the queue re-derives each request's
// bank and row with divisions, and next_action() is a separate scan.
// DramBackend decodes once at push(), and takes next_action() from the
// last pass of advance(); on any push/advance stream the two must agree
// on every completion, every row hit and miss, and every next_action().
// ---------------------------------------------------------------------

class ReferenceDram {
 public:
  explicit ReferenceDram(DramTimingParams p)
      : p_(std::move(p)), banks_(p_.num_banks) {}

  void push(std::uint64_t token, Addr addr, std::uint32_t bytes,
            SimTime now) {
    queue_.push_back({token, addr, bytes, now, next_seq_++});
  }

  std::vector<MemCompletion> advance(SimTime now) {
    std::vector<MemCompletion> out;
    for (;;) {
      std::size_t best = queue_.size();
      SimTime best_issue = kTimeNever;
      bool best_hit = false;
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending& q = queue_[i];
        const SimTime t = issue_time(q);
        if (t > now) continue;
        const bool hit = banks_[bank_of(q.addr)].open_row == row_of(q.addr);
        const bool better =
            best == queue_.size() || (hit && !best_hit) ||
            (hit == best_hit &&
             (t < best_issue ||
              (t == best_issue && q.seq < queue_[best].seq)));
        if (better) {
          best = i;
          best_issue = t;
          best_hit = hit;
        }
      }
      if (best == queue_.size()) return out;
      const Pending chosen = queue_[best];
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
      out.push_back({chosen.token, issue(chosen)});
    }
  }

  [[nodiscard]] SimTime next_action() const {
    SimTime t = kTimeNever;
    for (const Pending& q : queue_) t = std::min(t, issue_time(q));
    return t;
  }

  [[nodiscard]] std::uint64_t row_hits() const { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const { return row_misses_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Bank {
    std::uint64_t open_row = ~0ULL;
    SimTime ready = 0;
    SimTime ras_done = 0;
  };
  struct Pending {
    std::uint64_t token;
    Addr addr;
    std::uint32_t bytes;
    SimTime arrival;
    std::uint64_t seq;
  };

  [[nodiscard]] std::uint32_t bank_of(Addr addr) const {
    const std::uint64_t row = addr / p_.row_bytes;
    const std::uint64_t b = p_.num_banks;
    return static_cast<std::uint32_t>((row + row / b + row / (b * b)) % b);
  }
  [[nodiscard]] std::uint64_t row_of(Addr addr) const {
    return addr / (p_.row_bytes * p_.num_banks);
  }

  [[nodiscard]] SimTime issue_time(const Pending& q) const {
    const Bank& bank = banks_[bank_of(q.addr)];
    SimTime t = std::max(q.arrival, bank.ready);
    if (bank.open_row != row_of(q.addr)) t = std::max(t, bank.ras_done);
    return t;
  }

  SimTime issue(const Pending& q) {
    Bank& bank = banks_[bank_of(q.addr)];
    const std::uint64_t row = row_of(q.addr);
    const SimTime start = issue_time(q);
    const SimTime burst = p_.burst_time(q.bytes);
    SimTime cas_issue;
    if (bank.open_row == row) {
      ++row_hits_;
      cas_issue = start;
    } else {
      ++row_misses_;
      cas_issue = start + p_.t_rp + p_.t_rcd;
      bank.open_row = row;
      bank.ras_done = cas_issue + p_.t_ras;
    }
    SimTime data_start = cas_issue + p_.t_cl;
    data_bus_free_ = std::max(data_bus_free_, start) + burst;
    data_start = std::max(data_start, data_bus_free_ - burst);
    bank.ready = std::max(cas_issue + burst, data_start - p_.t_cl);
    return data_start + burst;
  }

  DramTimingParams p_;
  std::vector<Bank> banks_;
  SimTime data_bus_free_ = 0;
  std::vector<Pending> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

/// Checkpoints `d` and restores the snapshot into a fresh backend.
std::unique_ptr<DramBackend> restored_copy(DramBackend& d) {
  ckpt::Serializer pack(ckpt::Serializer::Mode::kPack);
  d.serialize(pack);
  auto copy = std::make_unique<DramBackend>(d.params());
  ckpt::Serializer unpack{std::move(pack.buffer())};
  copy->serialize(unpack);
  EXPECT_TRUE(unpack.exhausted());
  return copy;
}

TEST(DramReference, MatchesLinearScanOnRandomStreams) {
  for (const char* preset : {"DDR2", "DDR3", "GDDR5"}) {
    const DramTimingParams params = DramTimingParams::preset(preset);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string(preset) + " seed " + std::to_string(seed));
      ReferenceDram ref(params);
      auto dut = std::make_unique<DramBackend>(params);
      rng::XorShift128Plus rng(seed);
      // Mostly a few rows per bank, so requests pile up on shared banks
      // (row conflicts, FR-FCFS reordering); some scattered far away.
      const std::uint64_t hot_rows = 2ULL * params.num_banks +
                                     rng.next_bounded(params.num_banks);
      // Push-heavy seeds build deep queues; advance-heavy ones keep
      // them shallow.
      const std::uint64_t push_weight = 3 + seed % 5;
      auto pick_addr = [&]() -> Addr {
        if (rng.next_bounded(8) == 0) {
          return rng.next_bounded(1ULL << 32) & ~63ULL;
        }
        return rng.next_bounded(hot_rows) * params.row_bytes +
               rng.next_bounded(params.row_bytes / 64) * 64;
      };
      auto same_state = [&]() -> ::testing::AssertionResult {
        if (dut->next_action() == ref.next_action() &&
            dut->pending() == ref.pending() &&
            dut->row_hits() == ref.row_hits() &&
            dut->row_misses() == ref.row_misses()) {
          return ::testing::AssertionSuccess();
        }
        return ::testing::AssertionFailure()
               << "next_action " << dut->next_action() << " vs "
               << ref.next_action() << ", pending " << dut->pending()
               << " vs " << ref.pending() << ", row hits "
               << dut->row_hits() << " vs " << ref.row_hits()
               << ", row misses " << dut->row_misses() << " vs "
               << ref.row_misses();
      };
      std::vector<MemCompletion> got;
      // Advances both to `now`; the decided (token, time) sequences must
      // be identical.
      auto same_advance = [&](SimTime now) -> ::testing::AssertionResult {
        got.clear();
        dut->advance(now, got);
        const std::vector<MemCompletion> want = ref.advance(now);
        std::size_t i = 0;
        while (i < got.size() && i < want.size() &&
               got[i].token == want[i].token && got[i].time == want[i].time) {
          ++i;
        }
        if (i == got.size() && i == want.size()) {
          return ::testing::AssertionSuccess();
        }
        return ::testing::AssertionFailure()
               << "advance(" << now << ") decided " << got.size()
               << " completions, the reference " << want.size()
               << "; they differ from completion " << i;
      };

      SimTime now = 0;
      std::uint64_t token = 0;
      for (int step = 0; step < 1500; ++step) {
        if (rng.next_bounded(10) < push_weight) {
          // One to three requests at the same instant: equal arrivals.
          const std::uint64_t n = 1 + rng.next_bounded(3);
          for (std::uint64_t i = 0; i < n; ++i) {
            const Addr a = pick_addr();
            const std::uint32_t bytes = rng.next_bounded(4) == 0 ? 32 : 64;
            ref.push(token, a, bytes, now);
            dut->push(token, a, /*is_write=*/false, bytes, now);
            ++token;
            ASSERT_TRUE(same_state()) << "after push at " << now;
          }
        } else {
          // Wake where the backend asked to, or at some other time the
          // controller might be woken (a new arrival, a response).
          const SimTime na = ref.next_action();
          if (na != kTimeNever && rng.next_bounded(2) == 0) {
            now = std::max(now, na);
          } else {
            now += rng.next_bounded(60'000);
          }
          ASSERT_TRUE(same_advance(now));
          ASSERT_TRUE(same_state()) << "after advance to " << now;
        }
        // Derived state (decoded bank/row, next_action) is rebuilt on
        // restore rather than checkpointed.
        if (step % 250 == 125) {
          dut = restored_copy(*dut);
          ASSERT_TRUE(same_state()) << "after restore at " << now;
        }
      }
      // Drain what is left.
      while (ref.pending() > 0) {
        now = ref.next_action();
        ASSERT_TRUE(same_advance(now));
        ASSERT_TRUE(same_state()) << "after advance to " << now;
      }
      EXPECT_GT(ref.row_hits(), 0u);
      EXPECT_GT(ref.row_misses(), 0u);
    }
  }
}

}  // namespace
}  // namespace sst::mem
