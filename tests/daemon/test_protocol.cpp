// Wire protocol: JSONL framing, request/reply round trips, malformed
// input rejection.  Suite "Daemon" so the flake-hunt CI job picks these
// up alongside the pool and queue suites.
#include <gtest/gtest.h>

#include <algorithm>

#include "daemon/protocol.h"

namespace sst::daemon {
namespace {

RunRequest sample_request() {
  RunRequest req;
  req.id = "req-42";
  req.model_json = "{\"components\": []}";
  req.out_dir = "/tmp/out dir/with \"quotes\"";
  req.overrides = {{"/config/seed", "7"}, {"/components/cpu/clock", "2GHz"}};
  req.ranks = 4;
  req.end_time = "1ms";
  req.seed = 1234567890123ULL;
  req.timeout_seconds = 12.5;
  req.retries = 3;
  req.backoff_seconds = 0.25;
  req.test_signal = 0;
  return req;
}

TEST(Daemon, RunRequestRoundTrip) {
  const RunRequest req = sample_request();
  const std::string line = run_request_to_line(req);
  const ClientMessage msg = parse_client_message(line);
  ASSERT_EQ(msg.op, ClientMessage::Op::kRun);
  EXPECT_EQ(msg.run.id, req.id);
  EXPECT_EQ(msg.run.model_json, req.model_json);
  EXPECT_EQ(msg.run.out_dir, req.out_dir);
  // Overrides travel as a JSON object: path-keyed, order-free.
  auto sorted = [](std::vector<std::pair<std::string, std::string>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(msg.run.overrides), sorted(req.overrides));
  EXPECT_EQ(msg.run.ranks, req.ranks);
  EXPECT_EQ(msg.run.end_time, req.end_time);
  ASSERT_TRUE(msg.run.seed.has_value());
  EXPECT_EQ(*msg.run.seed, *req.seed);
  EXPECT_DOUBLE_EQ(msg.run.timeout_seconds, req.timeout_seconds);
  EXPECT_EQ(msg.run.retries, req.retries);
  EXPECT_DOUBLE_EQ(msg.run.backoff_seconds, req.backoff_seconds);
}

TEST(Daemon, WorkerJobLineCarriesContentHash) {
  const RunRequest req = sample_request();
  const std::string line = worker_job_to_line(req, 0xdeadbeefcafef00dULL);
  const sdl::JsonValue doc = sdl::JsonValue::parse(line);
  EXPECT_EQ(doc.get_string("hash", ""), "deadbeefcafef00d");
  const RunRequest parsed = run_request_from_json(doc);
  EXPECT_EQ(parsed.id, req.id);
  EXPECT_EQ(parsed.model_json, req.model_json);
}

TEST(Daemon, WorkerReplyRoundTrip) {
  WorkerReply reply;
  reply.id = "req-42";
  reply.status = "timeout";
  reply.exit_code = 3;
  reply.error = "watchdog: no progress for 2.0s";
  reply.events = 123456;
  reply.wall_seconds = 1.75;
  reply.cache_hit = true;
  const WorkerReply parsed = parse_worker_reply(worker_reply_to_line(reply));
  EXPECT_EQ(parsed.id, reply.id);
  EXPECT_EQ(parsed.status, reply.status);
  EXPECT_EQ(parsed.exit_code, reply.exit_code);
  EXPECT_EQ(parsed.error, reply.error);
  EXPECT_EQ(parsed.events, reply.events);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, reply.wall_seconds);
  EXPECT_EQ(parsed.cache_hit, reply.cache_hit);
}

TEST(Daemon, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_client_message("not json"), DaemonError);
  EXPECT_THROW((void)parse_client_message("{\"op\":\"launch-missiles\"}"),
               DaemonError);
  // A run without model bytes has nothing to execute.
  EXPECT_THROW((void)parse_client_message("{\"op\":\"run\",\"id\":\"x\"}"),
               DaemonError);
  EXPECT_THROW((void)parse_worker_reply("{\"id\":"), DaemonError);
}

TEST(Daemon, RunOpRejectsBadCountsAndBudgets) {
  const std::string head =
      R"({"op":"run","model":"{}","out":"/tmp/x",)";
  for (const char* bad :
       {R"("retries":-3})", R"("retries":1.5})", R"("ranks":-1})",
        R"("backoff":-5})", R"("timeout":-1})", R"("timeout":"1h"})"}) {
    try {
      (void)parse_client_message(head + bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const DaemonError& e) {
      const std::string key(bad + 1, std::string(bad).find('"', 1) - 1);
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Daemon, StatusAndDrainOpsParse) {
  EXPECT_EQ(parse_client_message("{\"op\":\"status\"}").op,
            ClientMessage::Op::kStatus);
  EXPECT_EQ(parse_client_message("{\"op\":\"drain\"}").op,
            ClientMessage::Op::kDrain);
  const ClientMessage res =
      parse_client_message("{\"op\":\"result\",\"id\":\"r7\"}");
  EXPECT_EQ(res.op, ClientMessage::Op::kResult);
  EXPECT_EQ(res.id, "r7");
}

TEST(Daemon, LineBufferReassemblesSplitLines) {
  LineBuffer buf;
  std::string line;
  buf.feed("first li", 8);
  EXPECT_FALSE(buf.next(line));
  buf.feed("ne\nsecond\nthi", 13);
  ASSERT_TRUE(buf.next(line));
  EXPECT_EQ(line, "first line");
  ASSERT_TRUE(buf.next(line));
  EXPECT_EQ(line, "second");
  EXPECT_FALSE(buf.next(line));
  EXPECT_EQ(buf.buffered(), 3u);
  buf.feed("rd\n", 3);
  ASSERT_TRUE(buf.next(line));
  EXPECT_EQ(line, "third");
  EXPECT_EQ(buf.buffered(), 0u);
}

}  // namespace
}  // namespace sst::daemon
