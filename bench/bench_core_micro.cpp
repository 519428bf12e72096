// E10 — engine microbenchmarks (google-benchmark).
//
// Costs of the primitives everything else is built from: TimeVortex
// insert/pop, link event delivery, clock dispatch, UnitAlgebra parsing,
// RNG draws, and the DRAM scheduler under every memory-controller
// experiment.  Regressions here slow every experiment in the repo.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/sst.h"
#include "mem/dram.h"

namespace {

using namespace sst;

// ---- TimeVortex -------------------------------------------------------

class VortexEvent final : public Event {};

}  // namespace

namespace sst {
// Reuse the unit-test stamping peer (friend of Event).
class TimeVortexTestPeer {
 public:
  static EventPtr stamped(SimTime t, std::uint64_t seq) {
    auto ev = std::make_unique<VortexEvent>();
    ev->delivery_time_ = t;
    ev->link_id_ = 0;
    ev->order_ = seq;
    return ev;
  }
  /// Stamps `ev` as the `seq`-th event sent by `source`, due at `t`.
  static EventPtr restamped(EventPtr ev, SimTime t, LinkId source,
                            std::uint64_t seq) {
    ev->delivery_time_ = t;
    ev->link_id_ = source;
    ev->order_ = seq;
    return ev;
  }
};
}  // namespace sst

namespace {

void BM_TimeVortexInsertPop(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  TimeVortex tv;
  rng::XorShift128Plus rng(1);
  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    tv.insert(TimeVortexTestPeer::stamped(rng.next_bounded(1 << 20), seq++));
  }
  for (auto _ : state) {
    tv.insert(TimeVortexTestPeer::stamped(rng.next_bounded(1 << 20), seq++));
    benchmark::DoNotOptimize(tv.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeVortexInsertPop)->Arg(64)->Arg(4096)->Arg(262144);

// The hold model with PHOLD's traffic: each pop is sent on again from one
// of 1,024 sources (a 16x16 torus has 1,024 link endpoints) and lands at
// now + 200 ns + k * 20 ns, k in 1..8, as net.HotspotPhold's tokens do.
// Delivery times sit on a 20 ns grid, so the top of the heap is full of
// time ties.  Depth 512 is one rank of phold_r2, 2,048 one of hotspot_r2.
void BM_TimeVortexHold(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  constexpr LinkId kSources = 1024;
  TimeVortex tv;
  rng::XorShift128Plus rng(1);
  std::vector<std::uint64_t> seq(kSources, 0);
  auto resend = [&](EventPtr ev, SimTime now) {
    const auto src = static_cast<LinkId>(rng.next_bounded(kSources));
    const SimTime delay = (200 + 20 * (1 + rng.next_bounded(8))) * kNanosecond;
    tv.insert(TimeVortexTestPeer::restamped(std::move(ev), now + delay, src,
                                            seq[src]++));
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    resend(std::make_unique<VortexEvent>(), 0);
  }
  for (auto _ : state) {
    const SimTime now = tv.next_time();
    resend(tv.pop(), now);
  }
  benchmark::DoNotOptimize(tv.next_time());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeVortexHold)->Arg(512)->Arg(2048);

// ---- Link send/deliver through the serial engine ----------------------

class Bouncer final : public Component {
 public:
  explicit Bouncer(Params&) {
    link_ = configure_link("port", [this](EventPtr ev) {
      link_->send(std::move(ev));
    });
  }
  Link* link_;
};

class Kicker final : public Component {
 public:
  explicit Kicker(Params&) {
    link_ = configure_link("port", [this](EventPtr ev) {
      link_->send(std::move(ev));
    });
  }
  void setup() override { link_->send(std::make_unique<NullEvent>()); }
  Link* link_;
};

void BM_EventRoundTrip(benchmark::State& state) {
  // Measures full engine overhead per event: heap ops + dispatch + send.
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim(SimConfig{.end_time = kMillisecond});
    Params p;
    sim.add_component<Kicker>("a", p);
    sim.add_component<Bouncer>("b", p);
    sim.connect("a", "port", "b", "port", 10 * kNanosecond);
    sim.initialize();
    state.ResumeTiming();
    const RunStats stats = sim.run();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(stats.events_processed) +
        state.items_processed());
  }
}
BENCHMARK(BM_EventRoundTrip)->Unit(benchmark::kMillisecond);

// ---- Clock dispatch ----------------------------------------------------

class NopTicker final : public Component {
 public:
  explicit NopTicker(Params&) {
    register_clock(kNanosecond, [](Cycle) { return false; });
  }
};

void BM_ClockDispatch(benchmark::State& state) {
  const auto handlers = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim(SimConfig{.end_time = 100 * kMicrosecond});
    Params p;
    for (std::int64_t i = 0; i < handlers; ++i) {
      sim.add_component<NopTicker>("t" + std::to_string(i), p);
    }
    state.ResumeTiming();
    const RunStats stats = sim.run();
    state.SetItemsProcessed(
        static_cast<std::int64_t>(stats.clock_ticks) * handlers +
        state.items_processed());
  }
}
BENCHMARK(BM_ClockDispatch)->Arg(1)->Arg(16)->Unit(benchmark::kMillisecond);

// ---- UnitAlgebra parsing ----------------------------------------------

void BM_UnitAlgebraParse(benchmark::State& state) {
  const char* inputs[] = {"2.4GHz", "64KiB", "1.6GB/s", "10ns", "3W"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnitAlgebra(inputs[i++ % 5]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnitAlgebraParse);

// ---- RNG ----------------------------------------------------------------

void BM_RngXorShift(benchmark::State& state) {
  rng::XorShift128Plus rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngXorShift);

void BM_RngBounded(benchmark::State& state) {
  rng::XorShift128Plus rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_bounded(1000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngBounded);

// ---- DRAM scheduler ------------------------------------------------------

void BM_DramAdvance(benchmark::State& state) {
  // One controller wakeup per iteration at a steady queue depth: top the
  // queue up with random (mostly row-miss) lines, advance to now, and
  // take the next wakeup time.  Items are completed requests.
  const auto depth = static_cast<std::size_t>(state.range(0));
  mem::DramBackend dram(mem::DramTimingParams::ddr3_1333());
  rng::XorShift128Plus rng(3);
  std::vector<mem::MemCompletion> done;
  std::uint64_t token = 0;
  std::int64_t completed = 0;
  SimTime now = 0;
  for (auto _ : state) {
    while (dram.pending() < depth) {
      dram.push(token++, rng.next_bounded(1ULL << 28) & ~63ULL, false, 64,
                now);
    }
    done.clear();
    dram.advance(now, done);
    benchmark::DoNotOptimize(done.data());
    benchmark::ClobberMemory();
    completed += static_cast<std::int64_t>(done.size());
    const SimTime next = dram.next_action();
    if (next != kTimeNever) now = next;
  }
  state.SetItemsProcessed(completed);
}
BENCHMARK(BM_DramAdvance)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
