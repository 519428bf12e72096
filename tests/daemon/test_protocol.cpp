// Wire protocol: JSONL framing, request/reply round trips, malformed
// input rejection.  Suite "Daemon" so the flake-hunt CI job picks these
// up alongside the pool and queue suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/protocol.h"

namespace sst::daemon {
namespace {

RunRequest sample_request() {
  RunRequest req;
  req.id = "req-42";
  req.model_json = "{\"components\": []}";
  req.out_dir = "/tmp/out dir/with \"quotes\"";
  // The timeout is also the run's watchdog override.
  req.overrides = {{"/config/seed", "7"},
                   {"/components/cpu/clock", "2GHz"},
                   {"/config/watchdog_seconds", "12.5"}};
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
  EXPECT_DOUBLE_EQ(msg.run.timeout_seconds, req.timeout_seconds);
  EXPECT_EQ(msg.run.retries, req.retries);
  EXPECT_DOUBLE_EQ(msg.run.backoff_seconds, req.backoff_seconds);
}

TEST(Daemon, RunFieldsAreOverrideAliases) {
  // An older client's line: its ranks, end and seed fields, and the
  // timeout, become overrides that win over the same paths in
  // "overrides".
  const ClientMessage msg = parse_client_message(
      R"({"op":"run","model":"{}","out":"/tmp/x",)"
      R"("overrides":{"/config/seed":"7","/config/num_ranks":"2"},)"
      R"("ranks":4,"end":"1ms","seed":18446744073709549568,"timeout":12.5})");
  auto sorted = [](std::vector<std::pair<std::string, std::string>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(msg.run.overrides),
            sorted({{"/config/seed", "18446744073709549568"},
                    {"/config/num_ranks", "4"},
                    {"/config/end_time", "1ms"},
                    {"/config/watchdog_seconds", "12.5"}}));
  // "ranks": 0 and "end": "" keep the model's own; no timeout, no
  // watchdog.
  const ClientMessage own = parse_client_message(
      R"({"op":"run","model":"{}","out":"/tmp/x","ranks":0,"end":"",)"
      R"("timeout":0})");
  EXPECT_TRUE(own.run.overrides.empty());
}

TEST(Daemon, RunCountsReadAStringOrANumberAlike) {
  // The rule of every sweep-spec count: "3" reads as 3.
  for (const char* fields : {R"("retries":3,"timeout":"7.5","backoff":1)",
                             R"("retries":"3","timeout":7.5,"backoff":"1")"}) {
    const ClientMessage msg = parse_client_message(
        std::string(R"({"op":"run","model":"{}","out":"/tmp/x",)") + fields +
        "}");
    EXPECT_EQ(msg.run.retries, 3u) << fields;
    EXPECT_EQ(msg.run.timeout_seconds, 7.5) << fields;
    EXPECT_EQ(msg.run.backoff_seconds, 1.0) << fields;
  }
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

TEST(Daemon, WorkerReplyRejectsBadCounts) {
  // A reply's exit and events are cast to integers, so a value out of
  // range (or NaN, which JSON can only carry as a string) used to reach
  // an undefined cast.  Each is an error naming the field.
  for (const char* field : {"exit", "events"}) {
    for (const char* value : {"1e30", "-1", "\"NaN\""}) {
      const std::string line = std::string(R"({"id":"r","status":"ok",")") +
                               field + "\":" + value + "}";
      try {
        (void)parse_worker_reply(line);
        ADD_FAILURE() << "accepted " << line;
      } catch (const DaemonError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("worker reply \"") +
                                             field + "\""),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // A bare NaN is not JSON at all.
  EXPECT_THROW((void)parse_worker_reply(R"({"id":"r","exit":NaN})"),
               DaemonError);
  // The largest values each field can hold still parse.
  const WorkerReply top =
      parse_worker_reply(R"({"id":"r","exit":255,"events":1e19})");
  EXPECT_EQ(top.exit_code, 255);
  EXPECT_EQ(top.events, 10000000000000000000ull);
}

TEST(Daemon, DaemonReplyRejectsBadCounts) {
  // sstsim --daemon and sstdse --daemon cast a done reply's exit, signal
  // and attempts and a status reply's queue_capacity to integers; a value
  // out of range or not whole is an error naming the field.
  for (const char* field : {"exit", "signal", "attempts", "queue_capacity"}) {
    for (const char* value : {"1e30", "-1", "2.5"}) {
      const std::string line = std::string(R"({"type":"done","id":"r",")") +
                               field + "\":" + value + "}";
      try {
        (void)parse_daemon_reply(sdl::JsonValue::parse(line));
        ADD_FAILURE() << "accepted " << line;
      } catch (const DaemonError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("daemon reply \"") +
                                             field + "\""),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // A zero-slot queue cannot happen either.
  for (const char* bad : {R"({"queue_capacity":0})", R"({"exit":256})",
                          R"({"signal":65})", R"({"status":5})"}) {
    EXPECT_THROW((void)parse_daemon_reply(sdl::JsonValue::parse(bad)),
                 DaemonError)
        << bad;
  }
  // The daemon's own lines parse, and absent members keep the defaults.
  const DaemonReply done = parse_daemon_reply(sdl::JsonValue::parse(
      R"({"type":"done","id":"r","status":"failed","exit":255,)"
      R"("signal":64,"attempts":4294967295,"stats":"o/stats.json",)"
      R"("error":"boom"})"));
  EXPECT_EQ(done.type, "done");
  EXPECT_EQ(done.id, "r");
  EXPECT_EQ(done.status, "failed");
  EXPECT_EQ(done.exit_code, 255);
  EXPECT_EQ(done.term_signal, 64);
  EXPECT_EQ(done.attempts, 4294967295u);
  EXPECT_EQ(done.stats, "o/stats.json");
  EXPECT_EQ(done.error, "boom");
  const DaemonReply status = parse_daemon_reply(
      sdl::JsonValue::parse(R"({"type":"status","queue_capacity":3})"));
  EXPECT_EQ(status.queue_capacity, 3u);
  EXPECT_EQ(status.exit_code, 1);
  EXPECT_EQ(status.attempts, 1u);
  EXPECT_EQ(parse_daemon_reply(sdl::JsonValue::parse("{}")).queue_capacity,
            16u);
}

TEST(Daemon, DaemonReplyReadsEveryDoneLineTheDaemonWrites) {
  // A model refused at admission and a request lost across a restart
  // never ran: their records keep 0 attempts, and the clients must read
  // the refusal instead of failing on the count.
  RequestRecord refused;
  refused.id = "bad-model";
  refused.status = "failed";
  refused.exit_code = 2;
  refused.out_dir = "/tmp/o";
  refused.error = "unknown parameter 'sizee'";
  RequestRecord lost = refused;
  lost.status = "error";
  lost.exit_code = 7;
  lost.error = "recovery failed: spool missing";
  RequestRecord ran;
  ran.id = "p7";
  ran.status = "failed";
  ran.exit_code = 1;
  ran.term_signal = 11;
  ran.attempts = UINT32_MAX;
  for (const RequestRecord& rec : {RequestRecord{}, refused, lost, ran}) {
    const std::string line = Daemon::done_line(rec);
    DaemonReply reply;
    ASSERT_NO_THROW(reply = parse_daemon_reply(sdl::JsonValue::parse(line)))
        << line;
    EXPECT_EQ(reply.type, "done");
    EXPECT_EQ(reply.id, rec.id);
    EXPECT_EQ(reply.status, rec.status);
    EXPECT_EQ(reply.exit_code, rec.exit_code);
    EXPECT_EQ(reply.term_signal, rec.term_signal);
    EXPECT_EQ(reply.attempts, rec.attempts);
    EXPECT_EQ(reply.error, rec.error);
  }
}

TEST(Daemon, RunOpRejectsBadCountsAndBudgets) {
  const std::string head =
      R"({"op":"run","model":"{}","out":"/tmp/x",)";
  for (const char* bad :
       {R"("retries":-3})", R"("retries":1.5})", R"("ranks":-1})",
        R"("ranks":2.7})", R"("end":"1 parsec"})", R"("seed":-1})",
        R"("seed":2.7})", R"("seed":1e30})", R"("backoff":-5})",
        R"("timeout":-1})", R"("timeout":"1h"})"}) {
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

TEST(Daemon, MistypedFieldsAreDaemonErrors) {
  // Each used to escape as sdl::JsonError (or, for test_signal, be cast
  // unchecked); the daemon caught only DaemonError and exited.
  const std::string run = R"({"op":"run","model":"{}","out":"/tmp/x",)";
  for (const std::string& line :
       {std::string(R"({"op":5})"), std::string(R"({"op":null})"),
        std::string(R"({"op":"result","id":5})"),
        run + R"("id":5})", run + R"("overrides":[1]})",
        run + R"("overrides":{"/config/seed":7}})",
        std::string(R"({"op":"run","model":"{}","out":5})"),
        run + R"("retries":"many"})", run + R"("test_signal":-1})",
        run + R"("test_signal":65})", run + R"("test_signal":2.5})",
        run + R"("test_signal":1e30})", run + R"("test_signal":"x"})"}) {
    try {
      (void)parse_client_message(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const DaemonError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << line << " threw a non-DaemonError: " << e.what();
    }
  }
  EXPECT_EQ(parse_client_message(run + R"("test_signal":11})").run.test_signal,
            11);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A JSON value of a random type, biased toward the edge values the
/// protocol's counts and strings must refuse.
sdl::JsonValue random_value(std::uint64_t& state) {
  static const double kNumbers[] = {-1, 0, 2.5, 64, 65, 1e30, -1e30,
                                    4294967296.0, 18446744073709551616.0};
  switch (splitmix64(state) % 6) {
    case 0: return sdl::JsonValue(nullptr);
    case 1: return sdl::JsonValue(splitmix64(state) % 2 == 0);
    case 2: return sdl::JsonValue(kNumbers[splitmix64(state) % 9]);
    case 3: return sdl::JsonValue(std::to_string(splitmix64(state) % 100));
    case 4: return sdl::JsonValue(sdl::JsonArray{sdl::JsonValue(1)});
    default: return sdl::JsonValue(sdl::JsonObject{{"k", sdl::JsonValue(1)}});
  }
}

TEST(Daemon, MutatedRequestLinesReturnOrThrowDaemonError) {
  // Seeded mutations of valid request lines: a member's value replaced
  // by one of another type or range, a member added, or a byte changed.
  // Whatever the line, parsing returns or throws DaemonError.
  const std::vector<std::string> seeds = {
      run_request_to_line(sample_request()),
      R"({"op":"run","model":"{}","out":"/tmp/x","ranks":4,"end":"1ms",)"
      R"("seed":7,"timeout":12.5,"test_signal":0,"overrides":{"/a":"1"}})",
      R"({"op":"status"})", R"({"op":"drain"})",
      R"({"op":"result","id":"r7"})"};
  static const char* kKeys[] = {"op",      "id",      "model",  "out",
                                "overrides", "timeout", "retries", "backoff",
                                "ranks",   "end",     "seed",   "test_signal"};
  std::uint64_t state = 0x5eed2023;
  int parsed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string& seed = seeds[trial % seeds.size()];
    sdl::JsonValue doc = sdl::JsonValue::parse(seed);
    auto& members = doc.as_object();
    std::string line;
    switch (splitmix64(state) % 3) {
      case 0: {  // retype an existing member
        auto it = members.begin();
        std::advance(it, splitmix64(state) % members.size());
        it->second = random_value(state);
        line = doc.dump();
        break;
      }
      case 1:  // add or replace a known member
        members[kKeys[splitmix64(state) % 12]] = random_value(state);
        line = doc.dump();
        break;
      default:  // set one byte
        line = seed;
        line[splitmix64(state) % line.size()] =
            static_cast<char>(splitmix64(state) % 256);
        break;
    }
    try {
      (void)parse_client_message(line);
      ++parsed;
    } catch (const DaemonError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": " << line
                    << " threw a non-DaemonError: " << e.what();
    }
  }
  // The mutations leave some lines valid, so the accepting path runs too.
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace sst::daemon
