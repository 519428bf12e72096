// Sweep ledger: crash-consistent append/load round trip and the header
// checks that keep a resumed sweep from mixing results across specs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "dse/ledger.h"

namespace sst::dse {
namespace {

namespace fs = std::filesystem;

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sst_ledger_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = (dir_ / "ledger.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string path_;
};

LedgerRecord make_record(std::uint64_t point, const std::string& status) {
  LedgerRecord r;
  r.point = point;
  r.status = status;
  r.exit_code = status == "ok" ? 0 : 3;
  r.attempts = 2;
  r.values = {"16KiB", "20ns"};
  return r;
}

TEST_F(LedgerTest, AppendLoadRoundTrip) {
  {
    Ledger ledger(path_);
    EXPECT_FALSE(ledger.load("demo", 4));  // absent file = empty ledger
    ledger.append(make_record(2, "ok"), "demo", 4);
    ledger.append(make_record(0, "timeout"), "demo", 4);
  }
  Ledger again(path_);
  EXPECT_TRUE(again.load("demo", 4));
  ASSERT_EQ(again.records().size(), 2u);
  EXPECT_TRUE(again.has(0));
  EXPECT_FALSE(again.has(1));
  const LedgerRecord* rec = again.record(2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, "ok");
  EXPECT_EQ(rec->attempts, 2u);
  EXPECT_EQ(rec->values, (std::vector<std::string>{"16KiB", "20ns"}));
  EXPECT_EQ(again.record(0)->status, "timeout");
  EXPECT_EQ(again.record(0)->exit_code, 3);
}

TEST_F(LedgerTest, ReRecordingReplacesTheRecord) {
  Ledger ledger(path_);
  ledger.append(make_record(1, "timeout"), "demo", 4);
  ledger.append(make_record(1, "ok"), "demo", 4);
  Ledger again(path_);
  EXPECT_TRUE(again.load("demo", 4));
  ASSERT_EQ(again.records().size(), 1u);
  EXPECT_EQ(again.record(1)->status, "ok");
}

TEST_F(LedgerTest, RejectsWrongSweepName) {
  {
    Ledger ledger(path_);
    ledger.append(make_record(0, "ok"), "demo", 4);
  }
  Ledger other(path_);
  try {
    other.load("different", 4);
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_NE(std::string(e.what()).find("belongs to sweep 'demo'"),
              std::string::npos);
  }
}

TEST_F(LedgerTest, RejectsWrongPointCount) {
  {
    Ledger ledger(path_);
    ledger.append(make_record(0, "ok"), "demo", 4);
  }
  Ledger other(path_);
  EXPECT_THROW(other.load("demo", 9), SweepError);
}

TEST_F(LedgerTest, ToleratesTornFinalLineButRejectsInteriorDamage) {
  {
    std::ofstream out(path_);
    out << "{\"sweep\":\"demo\",\"points\":4}\n"
        << "{\"point\":0,\"status\":\"ok\",\"values\":[]}\n"
        << "{\"point\":1,\"status\":\"ok\"";  // torn tail: appender killed
  }
  Ledger torn(path_);
  EXPECT_TRUE(torn.load("demo", 4));  // fragment dropped, prefix kept
  EXPECT_TRUE(torn.has(0));
  EXPECT_FALSE(torn.has(1));
  // The repair truncates the fragment, so a subsequent append lands on
  // a fresh line instead of gluing onto it.
  torn.append(make_record(1, "ok"), "demo", 4);
  Ledger again(path_);
  EXPECT_TRUE(again.load("demo", 4));
  EXPECT_TRUE(again.has(0));
  EXPECT_TRUE(again.has(1));

  {
    std::ofstream out(path_, std::ios::trunc);
    out << "{\"sweep\":\"demo\",\"points\":4}\n"
        << "{\"point\":0,\"status\":\"ok\"\n"  // interior: real corruption
        << "{\"point\":1,\"status\":\"ok\",\"values\":[]}\n";
  }
  Ledger damaged(path_);
  EXPECT_THROW(damaged.load("demo", 4), SweepError);
}

TEST_F(LedgerTest, RejectsMissingHeader) {
  {
    std::ofstream out(path_);
    out << "{\"point\":0,\"status\":\"ok\"}\n";
  }
  Ledger ledger(path_);
  EXPECT_THROW(ledger.load("demo", 4), SweepError);
}

TEST_F(LedgerTest, RejectsOutOfRangeIntegers) {
  // Each line still parses, but a field holds a number no record can
  // have; the cast it used to reach is undefined (float-cast-overflow).
  const char* kBad[] = {
      R"({"point":-1,"status":"ok"})",
      R"({"point":1.5,"status":"ok"})",
      R"({"point":0,"status":"ok","attempts":1e30})",
      R"({"point":0,"status":"ok","exit":-1})",
      R"({"point":0,"status":"ok","exit":256})",
      R"({"point":0,"status":"ok","signal":1e30})",
      R"({"point":0,"status":"ok","attempts":"x"})",
      R"({"status":"ok"})",
  };
  for (const char* line : kBad) {
    {
      std::ofstream out(path_, std::ios::trunc);
      out << "{\"sweep\":\"demo\",\"points\":4}\n" << line << "\n";
    }
    Ledger ledger(path_);
    try {
      (void)ledger.load("demo", 4);
      ADD_FAILURE() << "accepted " << line;
    } catch (const SweepError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ledger '" + path_ + "' field \""),
                std::string::npos)
          << msg;
    }
  }
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "{\"sweep\":\"demo\",\"points\":-4}\n";
  }
  Ledger header(path_);
  EXPECT_THROW((void)header.load("demo", 4), SweepError);
}

TEST_F(LedgerTest, RejectsNonStringTextFields) {
  // A string field holding a number used to fail with a bare "JSON value
  // is not a string"; the error now names the ledger and the field.
  const std::string header = R"({"sweep":"demo","points":4})";
  const std::pair<std::string, const char*> kBad[] = {
      {R"({"sweep":5,"points":4})", "sweep"},
      {header + "\n" + R"({"point":0,"status":5})", "status"},
      {header + "\n" + R"({"point":0,"status":"ok","values":[5]})", "values"},
      {header + "\n" + R"({"point":0,"status":"ok","values":"x"})", "values"},
  };
  for (const auto& [text, field] : kBad) {
    std::ofstream(path_, std::ios::trunc) << text << "\n";
    Ledger ledger(path_);
    try {
      (void)ledger.load("demo", 4);
      ADD_FAILURE() << "accepted " << text;
    } catch (const SweepError& e) {
      EXPECT_NE(std::string(e.what()).find("ledger '" + path_ + "' field \"" +
                                           field + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(LedgerTest, PublishLeavesNoTempFile) {
  Ledger ledger(path_);
  ledger.append(make_record(0, "ok"), "demo", 1);
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // just ledger.jsonl, no .tmp.* left behind
}

}  // namespace
}  // namespace sst::dse
