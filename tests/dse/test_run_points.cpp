// run_points on a worker pool forked by the calling process: the one sweep
// executor.  Pins that results do not depend on concurrency, that every
// point directory holds what a standalone sstsim run would have left,
// the retry policy for watchdog exits and the no-retry policy for
// deadlocks, ledger resume, and that no worker process or socket
// outlives the call.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "dse/aggregate.h"
#include "dse/orchestrator.h"
#include "net/net_lib.h"

namespace sst::dse {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPingPong = R"({
  "config": {"seed": 2},
  "components": [
    {"name": "rank0", "type": "net.PingPong",
     "params": {"iterations": 200, "msg_bytes": 4096}},
    {"name": "rank1", "type": "net.PingPong",
     "params": {"iterations": 200, "msg_bytes": 4096}},
    {"name": "rank2", "type": "net.PingPong",
     "params": {"iterations": 200, "msg_bytes": 4096}},
    {"name": "rank3", "type": "net.PingPong",
     "params": {"iterations": 200, "msg_bytes": 4096}}
  ],
  "links": [],
  "network": {
    "topology": "mesh2d", "x": 2, "y": 2,
    "link_bandwidth": "10GB/s", "link_latency": "20ns",
    "endpoints": ["rank0", "rank1", "rank2", "rank3"]
  }
})";

constexpr const char* kThreePoints = R"([
  {"path": "/components/rank0/params/msg_bytes",
   "values": [1024, 2048, 4096]}
])";

std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Outcome {
  OrchestratorSummary summary;
  std::map<std::uint64_t, LedgerRecord> records;
  std::string csv;  // collect_results rows, as the results table
};

class RunPointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::register_library();
    dir_ = fs::temp_directory_path() /
           ("sst_run_points_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    std::ofstream(dir_ / "model.json") << kPingPong;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] SweepSpec spec(const std::string& axes,
                               const std::string& run) const {
    return SweepSpec::from_json_text(
        R"({"name": "t", "model": "model.json", "axes": )" + axes +
            R"(, "objectives": [{"component": "rank0",
                "statistic": "bytes_sent", "goal": "max"}], "run": )" +
            run + "}",
        dir_.string());
  }

  /// Runs the sweep into `out` (resuming its ledger, if any), then checks
  /// that run_points left no child process and no fd behind.
  Outcome run(const SweepSpec& s, const std::string& out) {
    const std::vector<Point> points = generate_points(s);
    fs::create_directories(out);
    Ledger ledger(out + "/ledger.jsonl");
    ledger.load(s.name, points.size());
    OrchestratorOptions opts;
    opts.out_dir = out;
    opts.verbose = false;
    const std::size_t fds_before = open_fds();
    Outcome o;
    o.summary = run_points(s, points, sdl::JsonValue::parse(kPingPong),
                           ledger, opts);
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a worker outlived run_points";
    EXPECT_EQ(open_fds(), fds_before) << "a worker socket leaked";
    std::vector<PointResult> rows = collect_results(s, points, ledger, out);
    compute_pareto(s, rows);
    std::ostringstream csv;
    write_results_csv(s, rows, csv);
    o.csv = csv.str();
    o.records = ledger.records();
    return o;
  }

  [[nodiscard]] std::string out(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(RunPointsTest, ResultsDoNotDependOnConcurrency) {
  const Outcome one = run(spec(kThreePoints, R"({"concurrency": 1})"),
                          out("c1"));
  const Outcome three = run(spec(kThreePoints, R"({"concurrency": 3})"),
                            out("c3"));
  EXPECT_EQ(one.summary.ok, 3u);
  EXPECT_EQ(three.summary.ok, 3u);
  EXPECT_EQ(one.csv, three.csv);
  ASSERT_EQ(one.records.size(), 3u);
  ASSERT_EQ(three.records.size(), 3u);
  for (const auto& [id, rec] : one.records) {
    const LedgerRecord& other = three.records.at(id);
    EXPECT_EQ(rec.status, "ok");
    EXPECT_EQ(rec.status, other.status);
    EXPECT_EQ(rec.exit_code, other.exit_code);
    EXPECT_EQ(rec.term_signal, other.term_signal);
    EXPECT_EQ(rec.attempts, other.attempts);
    EXPECT_EQ(rec.values, other.values);
  }
}

TEST_F(RunPointsTest, PointDirsHoldModelStatsAndRunLog) {
  const SweepSpec s = spec(kThreePoints, R"({"concurrency": 2})");
  run(s, out("sweep"));
  for (const Point& p : generate_points(s)) {
    const fs::path dir = point_dir(out("sweep"), p.id);
    EXPECT_TRUE(fs::exists(dir / "model.json")) << dir;
    EXPECT_TRUE(fs::exists(dir / "stats.json")) << dir;
    const std::string log = read_file(dir / "run.log");
    const auto done = log.find("done: t=");
    const auto comma = log.find(" ps, ", done);
    ASSERT_NE(done, std::string::npos) << log;
    ASSERT_NE(comma, std::string::npos) << log;
    sdl::ConfigGraph graph =
        sdl::ConfigGraph::from_json(sdl::JsonValue::parse(kPingPong));
    apply_point(s, p, graph);
    const RunStats in_process = graph.build()->run();
    EXPECT_EQ(std::stoull(log.substr(comma + 5)), in_process.events_processed)
        << log;
  }
}

TEST_F(RunPointsTest, WatchdogExitsAreRetriedThenRecordedTimeout) {
  // Every rank 600000 round trips: far longer than the 20 ms budget.
  const SweepSpec s = spec(R"([
    {"path": "/components/rank0/params/iterations", "values": [600000]},
    {"path": "/components/rank1/params/iterations", "values": [600000]},
    {"path": "/components/rank2/params/iterations", "values": [600000]},
    {"path": "/components/rank3/params/iterations", "values": [600000]}
  ])", R"({"concurrency": 1, "timeout_seconds": 0.02, "retries": 2,
           "backoff_seconds": 0})");
  const Outcome o = run(s, out("timeout"));
  EXPECT_EQ(o.summary.failed, 1u);
  ASSERT_EQ(o.records.size(), 1u);
  const LedgerRecord& rec = o.records.begin()->second;
  EXPECT_EQ(rec.status, "timeout");
  EXPECT_EQ(rec.exit_code, 3);
  EXPECT_EQ(rec.attempts, 3u);  // retries + 1
}

TEST_F(RunPointsTest, DeadlockIsFinalOnTheFirstAttempt) {
  // rank0 stops after 100 round trips; its partner waits forever.
  const SweepSpec s = spec(R"([
    {"path": "/components/rank0/params/iterations", "values": [100]}
  ])", R"({"concurrency": 1, "timeout_seconds": 60, "retries": 2})");
  const Outcome o = run(s, out("deadlock"));
  EXPECT_EQ(o.summary.failed, 1u);
  ASSERT_EQ(o.records.size(), 1u);
  const LedgerRecord& rec = o.records.begin()->second;
  EXPECT_EQ(rec.status, "failed");
  EXPECT_EQ(rec.exit_code, 4);
  EXPECT_EQ(rec.attempts, 1u);
}

TEST_F(RunPointsTest, ResumeSkipsPointsAlreadyOk) {
  const SweepSpec s = spec(kThreePoints, R"({"concurrency": 2})");
  const std::vector<Point> points = generate_points(s);
  fs::create_directories(out("resume"));
  {
    Ledger ledger(out("resume") + "/ledger.jsonl");
    LedgerRecord done;
    done.point = points.front().id;
    done.status = "ok";
    done.values = points.front().values;
    ledger.append(done, s.name, points.size());
  }
  const Outcome o = run(s, out("resume"));
  EXPECT_EQ(o.summary.skipped, 1u);
  EXPECT_EQ(o.summary.ok, 2u);
  EXPECT_FALSE(fs::exists(fs::path(point_dir(out("resume"), 0)) / "run.log"))
      << "the recorded point ran again";
}

}  // namespace
}  // namespace sst::dse
