// Checkpoint file-layer contract: write/read round trip, rotation,
// validation (magic, version, truncation, checksum), and the
// load_checkpoint fallback policy that restart relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"

namespace sst::ckpt {
namespace {

namespace fs = std::filesystem;

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sst_ckpt_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointData make_data(std::uint64_t seq) {
    CheckpointData d;
    d.seq = seq;
    d.sim_time = seq * 1000;
    d.graph_json = R"({"components": [], "links": []})";
    d.state.resize(256 + seq);
    for (std::size_t i = 0; i < d.state.size(); ++i) {
      d.state[i] = static_cast<std::byte>((i * 7 + seq) & 0xFF);
    }
    return d;
  }

  std::string path_of(std::uint64_t seq) {
    return (dir_ / checkpoint_file_name(seq)).string();
  }

  // In-place byte patch, for corruption tests.
  void patch(const std::string& path, std::streamoff off, char value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(off);
    f.put(value);
  }

  fs::path dir_;
};

TEST_F(CheckpointFileTest, WriteReadRoundTrip) {
  const CheckpointData in = make_data(7);
  write_checkpoint_file(dir_.string(), in, 3);
  const CheckpointData out = read_checkpoint_file(path_of(7));
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.sim_time, in.sim_time);
  EXPECT_EQ(out.graph_json, in.graph_json);
  EXPECT_EQ(out.state, in.state);
}

TEST_F(CheckpointFileTest, RotationKeepsNewestK) {
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    write_checkpoint_file(dir_.string(), make_data(seq), 2);
  }
  EXPECT_FALSE(fs::exists(path_of(1)));
  EXPECT_FALSE(fs::exists(path_of(2)));
  EXPECT_FALSE(fs::exists(path_of(3)));
  EXPECT_TRUE(fs::exists(path_of(4)));
  EXPECT_TRUE(fs::exists(path_of(5)));
  // No temp-file litter from the atomic-rename protocol.
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_TRUE(e.path().filename().string().rfind("sim.ckpt.", 0) == 0)
        << e.path();
  }
}

TEST_F(CheckpointFileTest, TruncatedFileRejected) {
  write_checkpoint_file(dir_.string(), make_data(1), 3);
  const auto full = fs::file_size(path_of(1));
  fs::resize_file(path_of(1), full - 10);
  EXPECT_THROW((void)read_checkpoint_file(path_of(1)), CheckpointError);
  fs::resize_file(path_of(1), 20);  // shorter than the header
  EXPECT_THROW((void)read_checkpoint_file(path_of(1)), CheckpointError);
}

TEST_F(CheckpointFileTest, BadMagicRejected) {
  write_checkpoint_file(dir_.string(), make_data(1), 3);
  patch(path_of(1), 0, 'X');
  EXPECT_THROW((void)read_checkpoint_file(path_of(1)), CheckpointError);
}

TEST_F(CheckpointFileTest, VersionMismatchRejected) {
  write_checkpoint_file(dir_.string(), make_data(1), 3);
  patch(path_of(1), 8, 99);  // version field follows the 8-byte magic
  EXPECT_THROW((void)read_checkpoint_file(path_of(1)), CheckpointError);
}

TEST_F(CheckpointFileTest, PayloadBitFlipCaughtByChecksum) {
  write_checkpoint_file(dir_.string(), make_data(1), 3);
  // Flip one byte in the middle of the payload (past the 56-byte header).
  const auto size = fs::file_size(path_of(1));
  const std::streamoff off = 56 + static_cast<std::streamoff>(size - 56) / 2;
  std::ifstream in(path_of(1), std::ios::binary);
  in.seekg(off);
  const char orig = static_cast<char>(in.get());
  in.close();
  patch(path_of(1), off, static_cast<char>(orig ^ 0x40));
  EXPECT_THROW((void)read_checkpoint_file(path_of(1)), CheckpointError);
}

TEST_F(CheckpointFileTest, LoadPicksNewestFromDirectory) {
  write_checkpoint_file(dir_.string(), make_data(3), 9);
  write_checkpoint_file(dir_.string(), make_data(11), 9);
  write_checkpoint_file(dir_.string(), make_data(4), 9);
  std::string used;
  const CheckpointData out = load_checkpoint(dir_.string(), &used);
  EXPECT_EQ(out.seq, 11U);
  EXPECT_EQ(used, path_of(11));
}

// A name whose digits do not fit a u64 is not a snapshot name: loading
// and rotation skip it like any other stray file.
constexpr const char* kOverflowingName = "sim.ckpt.99999999999999999999999";

TEST_F(CheckpointFileTest, LoadPicksNewestPastOverflowingName) {
  std::ofstream(dir_ / kOverflowingName) << "stray";
  write_checkpoint_file(dir_.string(), make_data(3), 9);
  write_checkpoint_file(dir_.string(), make_data(5), 9);
  std::string used;
  const CheckpointData out = load_checkpoint(dir_.string(), &used);
  EXPECT_EQ(out.seq, 5U);
  EXPECT_EQ(used, path_of(5));
}

TEST_F(CheckpointFileTest, RotationIgnoresOverflowingName) {
  std::ofstream(dir_ / kOverflowingName) << "stray";
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    write_checkpoint_file(dir_.string(), make_data(seq), 2);
  }
  EXPECT_FALSE(fs::exists(path_of(2)));
  EXPECT_TRUE(fs::exists(path_of(3)));
  EXPECT_TRUE(fs::exists(path_of(4)));
  EXPECT_TRUE(fs::exists(dir_ / kOverflowingName));
}

TEST_F(CheckpointFileTest, LoadFallsBackPastCorruptNewest) {
  write_checkpoint_file(dir_.string(), make_data(1), 9);
  write_checkpoint_file(dir_.string(), make_data(2), 9);
  fs::resize_file(path_of(2), 30);  // corrupt the newest
  std::string used;
  const CheckpointData out = load_checkpoint(dir_.string(), &used);
  EXPECT_EQ(out.seq, 1U);
  EXPECT_EQ(used, path_of(1));
}

TEST_F(CheckpointFileTest, ExplicitCorruptFileFallsBackToSibling) {
  write_checkpoint_file(dir_.string(), make_data(1), 9);
  write_checkpoint_file(dir_.string(), make_data(2), 9);
  fs::resize_file(path_of(2), 30);
  std::string used;
  const CheckpointData out = load_checkpoint(path_of(2), &used);
  EXPECT_EQ(out.seq, 1U);
  EXPECT_EQ(used, path_of(1));
}

TEST_F(CheckpointFileTest, NoIntactSnapshotThrows) {
  write_checkpoint_file(dir_.string(), make_data(1), 9);
  fs::resize_file(path_of(1), 30);
  EXPECT_THROW((void)load_checkpoint(dir_.string()), CheckpointError);
  EXPECT_THROW((void)load_checkpoint(path_of(1)), CheckpointError);
  fs::remove(path_of(1));
  EXPECT_THROW((void)load_checkpoint(dir_.string()), CheckpointError);
  EXPECT_THROW((void)load_checkpoint((dir_ / "nope").string()),
               CheckpointError);
}

}  // namespace
}  // namespace sst::ckpt
