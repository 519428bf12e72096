// WindowBarrier: the parallel engine's rendezvous between sync windows.
// Many generations at 1-8 threads, on the spin path and the blocking
// path.  The ranks and the completion exchange plain (non-atomic) data,
// so under ThreadSanitizer these tests also check that the barrier alone
// orders it.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/window_barrier.h"

namespace sst {
namespace {

constexpr unsigned kGenerations = 2000;

struct Outcome {
  unsigned completions = 0;
  unsigned missed_arrivals = 0;  // rank writes a completion did not see
  unsigned missed_releases = 0;  // completion writes a rank did not see
};

/// `parties` threads meet `kGenerations` times.  Before generation g each
/// rank writes g to its slot; the completion checks every slot and
/// publishes g; each released rank checks the published value.  Every
/// `slow_every`-th completion (0: none) outlasts the spin budget, so
/// spinning waiters fall through to blocking.
Outcome run_generations(unsigned parties, bool spin, unsigned slow_every) {
  WindowBarrier barrier(parties, spin);
  std::vector<unsigned> written(parties, 0);
  std::vector<unsigned> missed(parties, 0);
  unsigned published = 0;
  Outcome out;
  auto rank = [&](unsigned me) {
    for (unsigned g = 1; g <= kGenerations; ++g) {
      written[me] = g;
      barrier.arrive_and_wait([&] {
        ++out.completions;
        for (unsigned w : written) out.missed_arrivals += w != g;
        if (slow_every != 0 && g % slow_every == 0) {
          std::this_thread::sleep_for(2 * WindowBarrier::kSpinTime);
        }
        published = g;
      });
      missed[me] += published != g;
    }
  };
  std::vector<std::thread> threads;
  for (unsigned r = 1; r < parties; ++r) threads.emplace_back(rank, r);
  rank(0);
  for (auto& t : threads) t.join();
  for (unsigned m : missed) out.missed_releases += m;
  return out;
}

void expect_exact(unsigned parties, bool spin, unsigned slow_every) {
  const Outcome o = run_generations(parties, spin, slow_every);
  EXPECT_EQ(o.completions, kGenerations) << parties << " parties";
  EXPECT_EQ(o.missed_arrivals, 0u) << parties << " parties";
  EXPECT_EQ(o.missed_releases, 0u) << parties << " parties";
}

TEST(WindowBarrier, OnePartyRunsTheCompletionInPlace) {
  expect_exact(1, true, 0);
  expect_exact(1, false, 0);
}

TEST(WindowBarrier, SpinPathManyGenerations) {
  for (unsigned parties = 2; parties <= 8; ++parties) {
    expect_exact(parties, true, 0);
  }
}

TEST(WindowBarrier, SpinPathFallsBackToBlocking) {
  for (unsigned parties : {2u, 4u, 8u}) expect_exact(parties, true, 50);
}

TEST(WindowBarrier, BlockingPathManyGenerations) {
  for (unsigned parties = 2; parties <= 8; ++parties) {
    expect_exact(parties, false, 0);
  }
}

}  // namespace
}  // namespace sst
