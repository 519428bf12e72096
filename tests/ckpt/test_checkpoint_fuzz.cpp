// Checkpoint restore under corrupt state blobs.  Mid-run snapshots are
// captured in memory, mutated with seeded splitmix64 edits, and restored
// into fresh rebuilds at the writer's rank count and at another one.
// Restoring a blob directly is the same as recomputing the file's FNV-1a
// checksum after each edit, so the checksum cannot hide a Serializer
// bug.  The contract: restore returns or throws CheckpointError — no
// other exception, no signal, no sanitizer report.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/simulation.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"
#include "vm/vm_lib.h"

namespace sst::ckpt {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

sdl::ConfigGraph load_model(const std::string& relative) {
  mem::register_library();
  proc::register_library();
  vm::register_library();
  net::register_library();
  std::ifstream in(std::string(SST_SOURCE_DIR) + "/" + relative);
  std::ostringstream text;
  text << in.rdbuf();
  return sdl::ConfigGraph::from_json_text(text.str());
}

/// The state blob of the middle snapshot of a `ranks`-rank run cut every
/// `period`.
std::vector<std::byte> mid_run_state(sdl::ConfigGraph graph, unsigned ranks,
                                     const std::string& period) {
  graph.apply_override("/config/num_ranks", std::to_string(ranks));
  graph.apply_override("/checkpointing/period", period);
  auto sim = graph.build();
  std::vector<std::vector<std::byte>> states;
  sim->set_checkpoint_writer([&states](Simulation& s) {
    states.push_back(CheckpointEngine::capture(s));
  });
  sim->run();
  if (states.empty()) return {};
  return states[states.size() / 2];
}

/// Restores `state` into a fresh `ranks`-rank rebuild of `graph`.
void restore_at(sdl::ConfigGraph graph, unsigned ranks,
                std::vector<std::byte> state) {
  graph.apply_override("/config/num_ranks", std::to_string(ranks));
  auto sim = graph.build();
  sim->initialize();
  CheckpointEngine::restore(*sim, std::move(state));
}

/// Sets a byte, flips a bit, or writes a run of eight 0xff bytes.
void mutate(std::vector<std::byte>& blob, std::uint64_t& rng) {
  const std::uint64_t r = splitmix64(rng);
  const std::size_t at = static_cast<std::size_t>(r % blob.size());
  switch ((r >> 32) % 3) {
    case 0:
      blob[at] = static_cast<std::byte>(r >> 40);
      break;
    case 1:
      blob[at] ^= static_cast<std::byte>(1U << ((r >> 40) % 8));
      break;
    default:
      for (std::size_t i = at; i < blob.size() && i < at + 8; ++i) {
        blob[i] = std::byte{0xff};
      }
      break;
  }
}

void fuzz_restore(const std::string& model, unsigned writer_ranks,
                  unsigned other_ranks, const std::string& period,
                  int mutations, std::uint64_t seed) {
  const sdl::ConfigGraph graph = load_model(model);
  const std::vector<std::byte> state =
      mid_run_state(graph, writer_ranks, period);
  ASSERT_FALSE(state.empty()) << model << " cut no snapshot";
  for (const unsigned ranks : {writer_ranks, other_ranks}) {
    ASSERT_NO_THROW(restore_at(graph, ranks, state))
        << model << ": the intact snapshot must restore at " << ranks
        << " rank(s)";
  }
  std::uint64_t rng = seed;
  int rejected = 0;
  for (int i = 0; i < mutations; ++i) {
    std::vector<std::byte> blob = state;
    mutate(blob, rng);
    const unsigned ranks = i % 2 == 0 ? writer_ranks : other_ranks;
    try {
      restore_at(graph, ranks, std::move(blob));
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << model << " mutation " << i << " at " << ranks
                    << " rank(s) threw a non-checkpoint error: " << e.what();
    }
  }
  // Most edits land in counts, ids, names or flags the walk checks.
  EXPECT_GT(rejected, 0);
}

TEST(CheckpointFuzz, PingPongFourRankSnapshot) {
  fuzz_restore("tests/tools/models/pingpong.json", 4, 2, "2us", 2000,
               0x5EED0001);
}

TEST(CheckpointFuzz, NodeVmOneRankSnapshot) {
  fuzz_restore("examples/systems/node_vm.json", 1, 4, "5us", 1500,
               0x5EED0002);
}

}  // namespace
}  // namespace sst::ckpt
