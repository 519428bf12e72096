// WorkerPool: pre-forked isolation boundary.  Pins the crash contract:
// a worker that dies takes only its request with it, closes its socket,
// is diagnosed from its wait status, and is respawned; healthy workers
// answer jobs in-band, write run.log, and drain cleanly on EOF.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>

#include "daemon/graph_cache.h"
#include "daemon/worker_pool.h"
#include "mem/mem_lib.h"
#include "proc/proc_lib.h"

namespace sst::daemon {
namespace {

namespace fs = std::filesystem;

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

RunRequest job(const std::string& id, const std::string& out_dir,
               int test_signal = 0) {
  RunRequest req;
  req.id = id;
  req.model_json = kModel;
  req.out_dir = out_dir;
  req.test_signal = test_signal;
  return req;
}

// Blocks until the worker on `slot` writes one reply line.
WorkerReply await_reply(WorkerPool& pool, int slot) {
  std::string line;
  char buf[4096];
  while (!pool.line_buffer(slot).next(line)) {
    const ::ssize_t n = ::read(pool.fd(slot), buf, sizeof buf);
    if (n <= 0) {
      ADD_FAILURE() << "worker closed its socket before replying";
      return {};
    }
    pool.line_buffer(slot).feed(buf, static_cast<std::size_t>(n));
  }
  return parse_worker_reply(line);
}

// Waits (at most 10s) for the worker on `slot` to close its socket, the
// way the executor sees a death, then reaps it.
WorkerExit await_exit(WorkerPool& pool, int slot) {
  pollfd pfd{pool.fd(slot), POLLIN, 0};
  char buf[4096];
  for (;;) {
    if (::poll(&pfd, 1, 10000) <= 0) {
      ADD_FAILURE() << "no worker exit observed within 10s";
      ::kill(pool.pid(slot), SIGKILL);
      break;
    }
    if (::read(pool.fd(slot), buf, sizeof buf) <= 0) break;
  }
  return pool.reap(slot);
}

class WorkerPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem::register_library();
    proc::register_library();
    dir_ = fs::temp_directory_path() /
           ("sst_pool_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(WorkerPoolTest, StartsIdleWorkersAndDrainsOnEof) {
  WorkerPool pool(2, nullptr);
  pool.start();
  EXPECT_TRUE(pool.alive(0));
  EXPECT_TRUE(pool.alive(1));
  EXPECT_NE(pool.pid(0), pool.pid(1));
  EXPECT_EQ(pool.busy_count(), 0u);
  EXPECT_EQ(pool.idle_slot(), 0);
  pool.shutdown();  // close fds -> workers see EOF and _exit(0)
  EXPECT_EQ(pool.restarts(), 0u);
}

TEST_F(WorkerPoolTest, HealthyJobRunsAndPublishesStats) {
  WorkerPool pool(1, nullptr);
  pool.start();
  const std::string out = (dir_ / "run1").string();
  const RunRequest req = job("healthy", out);
  const std::uint64_t hash = GraphCache::content_hash(req.model_json);
  ASSERT_TRUE(pool.dispatch(0, worker_job_to_line(req, hash), req.id,
                            std::chrono::steady_clock::time_point::max()));
  EXPECT_TRUE(pool.busy(0));
  EXPECT_EQ(pool.request_id(0), "healthy");
  const WorkerReply reply = await_reply(pool, 0);
  EXPECT_EQ(reply.id, "healthy");
  EXPECT_EQ(reply.status, "ok");
  EXPECT_EQ(reply.exit_code, 0);
  EXPECT_GT(reply.events, 0u);
  EXPECT_TRUE(fs::exists(fs::path(out) / "stats.json"));
  std::ifstream log(fs::path(out) / "run.log");
  const std::string text((std::istreambuf_iterator<char>(log)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("done: t="), std::string::npos) << text;
  pool.mark_idle(0);
  EXPECT_EQ(pool.busy_count(), 0u);
  pool.shutdown();
}

TEST_F(WorkerPoolTest, WorkerCacheHitsOnRepeatedModel) {
  WorkerPool pool(1, nullptr);
  pool.start();
  const std::uint64_t hash = GraphCache::content_hash(kModel);
  for (int i = 0; i < 2; ++i) {
    const RunRequest req =
        job("rep" + std::to_string(i), (dir_ / std::to_string(i)).string());
    ASSERT_TRUE(pool.dispatch(0, worker_job_to_line(req, hash), req.id,
                              std::chrono::steady_clock::time_point::max()));
    const WorkerReply reply = await_reply(pool, 0);
    EXPECT_EQ(reply.status, "ok");
    // First parse is cold; the second run reuses the resident graph.
    EXPECT_EQ(reply.cache_hit, i == 1);
    pool.mark_idle(0);
  }
  pool.shutdown();
}

TEST_F(WorkerPoolTest, CrashingWorkerIsDiagnosedAndRespawned) {
  WorkerPool pool(1, nullptr);
  pool.start();
  const pid_t crashed_pid = pool.pid(0);
  const RunRequest req = job("boom", (dir_ / "boom").string(), SIGSEGV);
  ASSERT_TRUE(pool.dispatch(0, worker_job_to_line(req, 0), req.id,
                            std::chrono::steady_clock::time_point::max()));
  const WorkerExit ex = await_exit(pool, 0);
  EXPECT_EQ(ex.slot, 0);
  EXPECT_EQ(ex.pid, crashed_pid);
  EXPECT_EQ(ex.term_signal, SIGSEGV);
  EXPECT_TRUE(ex.was_busy);
  EXPECT_EQ(ex.request_id, "boom");
  EXPECT_FALSE(ex.hard_killed);
  // The slot is already serving again with a fresh process.
  EXPECT_EQ(pool.restarts(), 1u);
  ASSERT_TRUE(pool.alive(0));
  EXPECT_NE(pool.pid(0), crashed_pid);
  EXPECT_FALSE(pool.busy(0));

  // And the respawned worker actually works.
  const RunRequest again = job("after", (dir_ / "after").string());
  const std::uint64_t hash = GraphCache::content_hash(again.model_json);
  ASSERT_TRUE(pool.dispatch(0, worker_job_to_line(again, hash), again.id,
                            std::chrono::steady_clock::time_point::max()));
  EXPECT_EQ(await_reply(pool, 0).status, "ok");
  pool.mark_idle(0);
  pool.shutdown();
}

TEST_F(WorkerPoolTest, HardKillIsReportedAsSuch) {
  WorkerPool pool(1, nullptr);
  pool.start();
  // Park the worker on a job it will never get: dispatch marks the slot
  // busy but we only send half a line, so the worker sits in read().
  pool.dispatch(0, "", "stuck", std::chrono::steady_clock::time_point::max());
  pool.kill_slot(0);  // the deadline backstop
  const WorkerExit ex = await_exit(pool, 0);
  EXPECT_EQ(ex.term_signal, SIGKILL);
  EXPECT_TRUE(ex.hard_killed);
  EXPECT_EQ(ex.request_id, "stuck");
  EXPECT_EQ(pool.restarts(), 1u);
  pool.shutdown();
}

}  // namespace
}  // namespace sst::daemon
