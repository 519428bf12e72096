// RequestLedger: the crash-consistent accepted/final record behind the
// daemon's exactly-once restart recovery.  Pins the durability contract:
// group-committed appends, round trips, accepted -> final overwrite,
// torn-tail tolerance, and hard failure on interior corruption or a
// foreign header.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "daemon/request_ledger.h"

namespace sst::daemon {
namespace {

namespace fs = std::filesystem;

class RequestLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sst_ledger_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "requests.jsonl").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void append_raw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << bytes;
  }

  fs::path dir_;
  std::string path_;
};

RequestRecord accepted(const std::string& id) {
  RequestRecord r;
  r.id = id;
  r.status = "accepted";
  r.out_dir = "/tmp/out/" + id;
  r.content_hash = 0x7afbfbcbca4b8f7aULL;
  return r;
}

TEST_F(RequestLedgerTest, MissingFileLoadsEmpty) {
  RequestLedger ledger(path_);
  ledger.load();
  EXPECT_TRUE(ledger.records().empty());
  EXPECT_TRUE(ledger.pending().empty());
}

TEST_F(RequestLedgerTest, RecordsRoundTripThroughDisk) {
  {
    RequestLedger ledger(path_);
    ledger.record(accepted("a"));
    RequestRecord done = accepted("b");
    done.status = "ok";
    done.attempts = 2;
    ledger.record(done);
    ledger.flush();
  }
  RequestLedger reloaded(path_);
  reloaded.load();
  ASSERT_EQ(reloaded.records().size(), 2u);
  const RequestRecord* a = reloaded.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, "accepted");
  EXPECT_EQ(a->out_dir, "/tmp/out/a");
  EXPECT_EQ(a->content_hash, 0x7afbfbcbca4b8f7aULL);
  const RequestRecord* b = reloaded.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->status, "ok");
  EXPECT_EQ(b->attempts, 2u);
  EXPECT_TRUE(b->final());
}

TEST_F(RequestLedgerTest, FinalStatusOverwritesAcceptedExactlyOnce) {
  RequestLedger ledger(path_);
  ledger.record(accepted("r"));
  EXPECT_EQ(ledger.pending().size(), 1u);

  RequestRecord final_rec = accepted("r");
  final_rec.status = "timeout";
  final_rec.exit_code = 3;
  final_rec.attempts = 3;
  ledger.record(final_rec);
  ledger.flush();

  RequestLedger reloaded(path_);
  reloaded.load();
  ASSERT_EQ(reloaded.records().size(), 1u);  // overwritten, not appended
  EXPECT_EQ(reloaded.find("r")->status, "timeout");
  EXPECT_EQ(reloaded.find("r")->exit_code, 3);
  EXPECT_TRUE(reloaded.pending().empty());
}

TEST_F(RequestLedgerTest, PendingListsOnlyAcceptedRecords) {
  RequestLedger ledger(path_);
  ledger.record(accepted("waiting1"));
  RequestRecord done = accepted("done");
  done.status = "ok";
  ledger.record(done);
  ledger.record(accepted("waiting2"));
  const auto pending = ledger.pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, "waiting1");
  EXPECT_EQ(pending[1].id, "waiting2");
}

TEST_F(RequestLedgerTest, ToleratesTornFinalLine) {
  {
    RequestLedger ledger(path_);
    ledger.record(accepted("intact"));
    ledger.flush();
  }
  // An appender killed mid-write leaves a partial record with no
  // newline; recovery must keep everything before it.
  append_raw("{\"id\":\"torn\",\"status\":\"acce");
  RequestLedger reloaded(path_);
  reloaded.load();
  ASSERT_EQ(reloaded.records().size(), 1u);
  EXPECT_NE(reloaded.find("intact"), nullptr);
  EXPECT_EQ(reloaded.find("torn"), nullptr);
}

TEST_F(RequestLedgerTest, ThrowsOnInteriorCorruption) {
  {
    RequestLedger ledger(path_);
    ledger.record(accepted("a"));
    ledger.record(accepted("b"));
    ledger.flush();
  }
  // Corrupt the record *before* the last one: that is real damage, not
  // an interrupted append, and must not be silently dropped.
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto pos = content.find("\"id\":\"a\"");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 4, "\"##:");
  std::ofstream(path_, std::ios::trunc | std::ios::binary) << content;

  RequestLedger reloaded(path_);
  EXPECT_THROW(reloaded.load(), DaemonError);
}

TEST_F(RequestLedgerTest, RejectsForeignOrMismatchedHeader) {
  std::ofstream(path_) << "{\"tool\":\"something-else\"}\n";
  RequestLedger foreign(path_);
  EXPECT_THROW(foreign.load(), DaemonError);

  std::ofstream(path_, std::ios::trunc)
      << "{\"daemon\":\"sstsimd\",\"version\":99}\n";
  RequestLedger future(path_);
  EXPECT_THROW(future.load(), DaemonError);
}

TEST_F(RequestLedgerTest, RejectsOutOfRangeIntegersAndBadHash) {
  // Each line still parses, but a field holds a value no record can
  // have: an out-of-range number used to reach an undefined cast, a
  // non-hex hash escaped as std::invalid_argument.
  const char* kBad[] = {
      R"({"id":"a","status":"ok","attempts":1e30})",
      R"({"id":"a","status":"ok","attempts":-1})",
      R"({"id":"a","status":"ok","exit":1e30})",
      R"({"id":"a","status":"ok","signal":-5})",
      R"({"id":"a","status":"ok","exit":2.5})",
      R"({"id":"a","status":"ok","hash":"xyz"})",
      R"({"id":"a","status":"ok","hash":""})",
      R"({"id":"a","status":"ok","hash":"-1"})",
      R"({"id":"a","status":"ok","hash":"1ffffffffffffffff"})",
  };
  for (const char* line : kBad) {
    std::ofstream(path_, std::ios::trunc)
        << "{\"daemon\":\"sstsimd\",\"version\":1}\n" << line << "\n";
    RequestLedger ledger(path_);
    try {
      ledger.load();
      ADD_FAILURE() << "accepted " << line;
    } catch (const DaemonError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ledger '" + path_ + "' field \""),
                std::string::npos)
          << msg;
    }
  }
  std::ofstream(path_, std::ios::trunc)
      << "{\"daemon\":\"sstsimd\",\"version\":1e30}\n";
  RequestLedger header(path_);
  EXPECT_THROW(header.load(), DaemonError);
}

TEST_F(RequestLedgerTest, RejectsNonStringTextFields) {
  // A record such as {"id":5,"status":"accepted"} used to stop sstsimd
  // with a bare "JSON value is not a string"; the error now names the
  // ledger and the field.
  const std::pair<const char*, const char*> kBad[] = {
      {R"({"id":5,"status":"accepted"})", "id"},
      {R"({"status":"accepted"})", "id"},
      {R"({"id":"a","status":1})", "status"},
      {R"({"id":"a","status":"ok","out":[]})", "out"},
      {R"({"id":"a","status":"ok","hash":7})", "hash"},
      {R"({"id":"a","status":"ok","error":false})", "error"},
  };
  for (const auto& [line, field] : kBad) {
    std::ofstream(path_, std::ios::trunc)
        << "{\"daemon\":\"sstsimd\",\"version\":1}\n" << line << "\n";
    RequestLedger ledger(path_);
    try {
      ledger.load();
      ADD_FAILURE() << "accepted " << line;
    } catch (const DaemonError& e) {
      EXPECT_NE(std::string(e.what()).find("ledger '" + path_ + "' field \"" +
                                           field + "\""),
                std::string::npos)
          << e.what();
    }
  }
  std::ofstream(path_, std::ios::trunc) << "{\"daemon\":5,\"version\":1}\n";
  RequestLedger header(path_);
  EXPECT_THROW(header.load(), DaemonError);
}

TEST_F(RequestLedgerTest, GroupCommitStagesUntilFlush) {
  RequestLedger ledger(path_);
  EXPECT_FALSE(ledger.dirty());
  ledger.record(accepted("a"));
  ledger.record(accepted("b"));
  EXPECT_TRUE(ledger.dirty());
  EXPECT_FALSE(fs::exists(path_));  // nothing durable before flush

  // A crash here would lose both — which is fine, because the daemon
  // only acknowledges a request *after* the flush covering it.
  {
    RequestLedger other(path_);
    other.load();
    EXPECT_TRUE(other.records().empty());
  }

  ledger.flush();
  EXPECT_FALSE(ledger.dirty());
  RequestLedger reloaded(path_);
  reloaded.load();
  EXPECT_EQ(reloaded.records().size(), 2u);

  // Appends stay append-only: no PID-tagged temp droppings in the dir.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

}  // namespace
}  // namespace sst::daemon
