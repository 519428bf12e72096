// GraphCache: content-hash keyed ConfigGraph reuse.  Pins the cache
// contract the daemon's warm dispatch rests on: identical SDL bytes
// hit, a one-byte change misses, and a cached run is byte-identical to
// a cold parse of the same bytes.
#include <gtest/gtest.h>

#include <sstream>

#include "core/types.h"
#include "daemon/graph_cache.h"
#include "mem/mem_lib.h"
#include "proc/proc_lib.h"

namespace sst::daemon {
namespace {

constexpr const char* kModel = R"({
  "config": {"seed": 7},
  "components": [
    {"name": "cpu0", "type": "proc.Core",
     "params": {"clock": "1GHz", "issue_width": 2, "workload": "stream",
                "elements": 2048, "iterations": 1}},
    {"name": "mc0", "type": "mem.MemoryController",
     "params": {"backend": "simple", "latency": "50ns"}}
  ],
  "links": [
    {"from": "cpu0", "from_port": "mem", "to": "mc0", "to_port": "cpu",
     "latency": "2ns"}
  ]
})";

class GraphCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem::register_library();
    proc::register_library();
  }
};

TEST_F(GraphCacheTest, ContentHashIsDeterministicAndByteSensitive) {
  const std::string bytes = kModel;
  EXPECT_EQ(GraphCache::content_hash(bytes), GraphCache::content_hash(bytes));
  std::string tweaked = bytes;
  tweaked[tweaked.find('7')] = '8';  // one byte: seed 7 -> 8
  EXPECT_NE(GraphCache::content_hash(bytes), GraphCache::content_hash(tweaked));
  EXPECT_NE(GraphCache::content_hash(""), GraphCache::content_hash(" "));
}

TEST_F(GraphCacheTest, IdenticalBytesHitOneByteChangeMisses) {
  GraphCache cache(8);
  const std::string bytes = kModel;
  const std::uint64_t h1 = cache.admit(bytes, Factory::instance());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const std::uint64_t h2 = cache.admit(bytes, Factory::instance());
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  std::string tweaked = bytes;
  tweaked[tweaked.find('7')] = '8';
  const std::uint64_t h3 = cache.admit(tweaked, Factory::instance());
  EXPECT_NE(h1, h3);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(GraphCacheTest, HitReturnsTheResidentGraph) {
  GraphCache cache(8);
  const std::string bytes = kModel;
  const std::uint64_t hash = GraphCache::content_hash(bytes);
  const sdl::ConfigGraph* cold = &cache.graph(hash, bytes);
  const sdl::ConfigGraph* warm = &cache.graph(hash, bytes);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(GraphCacheTest, CachedRunIsByteIdenticalToColdParse) {
  const std::string bytes = kModel;
  const std::uint64_t hash = GraphCache::content_hash(bytes);
  auto run_to_json = [&](GraphCache& cache) {
    // Copy before building, exactly as the worker does, so the cached
    // graph is never mutated by a run.
    sdl::ConfigGraph graph = cache.graph(hash, bytes);
    auto sim = graph.build();
    (void)sim->run();
    std::ostringstream os;
    sim->stats().write_json(os);
    return os.str();
  };
  GraphCache cache(8);
  const std::string cold = run_to_json(cache);   // miss: parses
  const std::string cached = run_to_json(cache); // hit: resident graph
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cold, cached);
}

TEST_F(GraphCacheTest, AdmitRejectsInvalidModelsWithoutCachingThem) {
  GraphCache cache(8);
  const std::string bad = R"({
    "components": [{"name": "x", "type": "bogus.Type"}]
  })";
  EXPECT_THROW((void)cache.admit(bad, Factory::instance()), ConfigError);
  EXPECT_EQ(cache.size(), 0u);
  // Still invalid on resubmission — must revalidate, not serve a stale
  // cached graph.
  EXPECT_THROW((void)cache.admit(bad, Factory::instance()), ConfigError);
}

TEST_F(GraphCacheTest, AdmitRejectsUnparsableModelsAndKeepsTheOrder) {
  const std::string unparsable[] = {
      "{\"components\": [",                        // malformed JSON
      R"({"dorp": 1, "components": []})",            // unknown SDL key
      R"({"config": {"seed": "x"}, "components": []})",  // bad setting
  };
  GraphCache cache(2);
  for (const std::string& bad : unparsable) {
    EXPECT_THROW((void)cache.admit(bad, Factory::instance()), ConfigError);
  }
  EXPECT_EQ(cache.size(), 0u);

  std::string a = kModel;
  std::string b = kModel;
  b[b.find("2048")] = '4';
  std::string c = kModel;
  c[c.find("2ns")] = '3';
  std::string d = kModel;
  d[d.find('7')] = '8';
  (void)cache.admit(a, Factory::instance());
  (void)cache.admit(b, Factory::instance());
  for (const std::string& bad : unparsable) {
    EXPECT_THROW((void)cache.admit(bad, Factory::instance()), ConfigError);
  }
  EXPECT_EQ(cache.size(), 2u);
  // The failed admissions left the FIFO as it was: c evicts a, d evicts
  // b, and the cache never holds more than its capacity.
  (void)cache.admit(c, Factory::instance());
  (void)cache.admit(d, Factory::instance());
  EXPECT_EQ(cache.size(), 2u);
  const std::uint64_t misses = cache.misses();
  (void)cache.admit(c, Factory::instance());
  (void)cache.admit(d, Factory::instance());
  EXPECT_EQ(cache.misses(), misses);
  (void)cache.admit(b, Factory::instance());
  EXPECT_EQ(cache.misses(), misses + 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(GraphCacheTest, EvictsOldestBeyondCapacity) {
  GraphCache cache(2);
  std::string a = kModel;
  std::string b = kModel;
  b[b.find("2048")] = '4';  // distinct bytes, still valid
  std::string c = kModel;
  c[c.find("2ns")] = '3';
  (void)cache.admit(a, Factory::instance());
  (void)cache.admit(b, Factory::instance());
  (void)cache.admit(c, Factory::instance());  // evicts a
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.admit(a, Factory::instance());  // re-parse, not a hit
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 4u);
}

}  // namespace
}  // namespace sst::daemon
