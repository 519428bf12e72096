// WindowBarrier: the parallel engine's rendezvous between sync windows.
//
// Every rank thread calls arrive_and_wait(done) once per generation.  The
// last to arrive resets the arrival count, runs `done` alone and then
// opens the next generation, releasing the others.  Waiters watch the
// generation word: with spinning on they poll it with a pause
// instruction for up to kSpinTime, then block in std::atomic::wait;
// with spinning off they block at once.  A spinning waiter resumes a few
// hundred nanoseconds after the release instead of a futex wake-up
// later, which is most of a short window's cost, but only while every
// rank has a CPU of its own: once ranks outnumber CPUs a spinner holds a
// CPU the rank it waits for needs.  The caller makes that choice.
//
// Ordering: each arrival is an acq_rel fetch_add on one counter, so the
// last arriver, and `done` with it, sees every write a rank made before
// arriving; the release store of the new generation, read with acquire
// by each waiter, makes `done`'s writes visible to every released rank.
// One party never touches the atomics: `done` runs on the spot.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace sst {

class WindowBarrier {
 public:
  /// How long a waiter spins before it blocks: a spinner sharing its CPU
  /// with other processes burns at most this much per barrier.
  static constexpr std::chrono::microseconds kSpinTime{50};

  /// `parties` threads (>= 1) meet at each generation; `spin` selects
  /// the bounded spin before blocking.
  WindowBarrier(unsigned parties, bool spin)
      : parties_(parties), spin_(spin) {}
  WindowBarrier(const WindowBarrier&) = delete;
  WindowBarrier& operator=(const WindowBarrier&) = delete;

  /// Arrives and returns once all `parties` have arrived and the last of
  /// them has run `done` (which must not throw).
  template <class Done>
  void arrive_and_wait(Done&& done) {
    if (parties_ == 1) {
      done();
      return;
    }
    // The generation cannot advance before this thread arrives, so this
    // is the one it waits to see replaced.
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Nobody arrives again before the release below, which orders
      // this reset before every arrival of the next generation.
      arrived_.store(0, std::memory_order_relaxed);
      done();
      generation_.store(gen + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    if (spin_ && spin_until_changed(gen)) return;
    generation_.wait(gen, std::memory_order_acquire);
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }

  /// Polls the generation for up to kSpinTime; true once it moved on.
  bool spin_until_changed(std::uint32_t gen) const {
    // The clock is read once per batch of pauses, so the poll stays a
    // load and a pause.
    constexpr int kPausesPerClockRead = 64;
    const auto until = std::chrono::steady_clock::now() + kSpinTime;
    do {
      for (int i = 0; i < kPausesPerClockRead; ++i) {
        if (generation_.load(std::memory_order_acquire) != gen) return true;
        cpu_relax();
      }
    } while (std::chrono::steady_clock::now() < until);
    return false;
  }

  const unsigned parties_;
  const bool spin_;
  // Separate cache lines: arrivals do not disturb the spinners' line.
  alignas(64) std::atomic<unsigned> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace sst
