// Corruption sweeps over the binary readers: the MRSC point file, the
// MRSG segment file and the MRLB labeled output. Each file holds a few
// records; the sweeps cut it at every byte offset and flip every header
// byte with fixed and seeded masks. Every damaged read must either throw
// a std::runtime_error that names the file or return records that the
// bytes really hold (a prefix of the originals where the damage only
// shortened the file or its count), never read past them. The sanitizer
// presets run this suite too, so a read past a buffer aborts there.
// MRCK has its own sweep (CheckpointTest.TornWriteAtEveryByteOffset).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace fs = std::filesystem;

namespace {

class ReaderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_reader_fuzz_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The damaged copy's path; its name is what errors must carry.
  fs::path damaged() const { return dir_ / "damaged.bin"; }

  fs::path dir_;
};

const mg::PointSet kPoints = {
    {1, 0.5, -0.25, 1.0f},
    {42, -3.75, 0.001, 0.5f},
    {7, 12.0, 3.5, 2.0f},
};

/// Run `read` over `bytes` written to `path`. Returns false when it threw
/// a runtime_error naming the file (any other exception fails the test).
bool read_or_clean_error(const fs::path& path,
                         std::span<const std::uint8_t> bytes,
                         const std::function<void()>& read,
                         const std::string& context) {
  mio::write_file_atomic(path, bytes);
  try {
    read();
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path.filename().string()),
              std::string::npos)
        << context << ": " << e.what();
    return false;
  }
}

/// The masks every header byte is flipped with: one low bit, one high
/// bit, all bits and a seeded nonzero byte.
std::vector<std::uint8_t> masks_for(mrscan::util::Rng& rng) {
  return {0x01, 0x80, 0xff,
          static_cast<std::uint8_t>(1 + rng.next_below(255))};
}

/// True when `got` is a prefix of `kPoints`.
bool is_prefix(const mg::PointSet& got) {
  if (got.size() > kPoints.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == kPoints[i])) return false;
  }
  return true;
}

std::vector<std::uint8_t> point_file_bytes(const fs::path& dir) {
  const fs::path path = dir / "points.bin";
  mio::write_points_binary(path, kPoints);
  return mio::read_file_bytes(path);
}

}  // namespace

TEST_F(ReaderFuzz, PointFileTruncatedAtEveryByte) {
  const auto bytes = point_file_bytes(dir_);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = mio::read_points_binary(damaged()); },
        "cut=" + std::to_string(cut));
    // The header's count no longer fits any shorter file.
    EXPECT_EQ(read, cut == bytes.size()) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got, kPoints);
    }
  }
}

TEST_F(ReaderFuzz, PointFileHeaderByteFlips) {
  const auto bytes = point_file_bytes(dir_);
  mrscan::util::Rng rng(101);
  constexpr std::size_t kHeader = 16;  // magic, version, count
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      mg::PointSet got;
      const std::string context =
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask);
      const bool read = read_or_clean_error(
          damaged(), flipped,
          [&] { got = mio::read_points_binary(damaged()); }, context);
      // Only a smaller count loads, and then the leading records.
      EXPECT_TRUE(!read || (at >= 8 && got.size() < kPoints.size() &&
                            is_prefix(got)))
          << context;
    }
  }
}

namespace {

std::vector<std::uint8_t> segment_file_bytes(const fs::path& dir) {
  const fs::path path = mio::segment_file_path(dir, 0);
  mio::write_segment_file(path, mio::Segment{{kPoints[0], kPoints[1]},
                                             {kPoints[2]}});
  return mio::read_file_bytes(path);
}

}  // namespace

TEST_F(ReaderFuzz, SegmentFileTruncatedAtEveryByte) {
  const auto bytes = segment_file_bytes(dir_);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = mio::MappedSegment(damaged()).decode_all(); },
        "cut=" + std::to_string(cut));
    EXPECT_EQ(read, cut == bytes.size()) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got, kPoints);
    }
  }
}

TEST_F(ReaderFuzz, SegmentFileHeaderByteFlips) {
  const auto bytes = segment_file_bytes(dir_);
  mrscan::util::Rng rng(102);
  constexpr std::size_t kHeader = 24;  // magic, version, owned, shadow
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      // The record counts must match the file size exactly, so any
      // damaged header is rejected.
      EXPECT_FALSE(read_or_clean_error(
          damaged(), flipped,
          [&] { mio::MappedSegment(damaged()).decode_all(); },
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask)));
    }
  }
}

namespace {

std::vector<std::uint8_t> labeled_file_bytes(const fs::path& dir) {
  const fs::path path = dir / "out.labeled";
  mio::LabeledFileWriter writer(path);
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    writer.append(kPoints[i], static_cast<std::int64_t>(i) - 1);
  }
  writer.close();
  return mio::read_file_bytes(path);
}

/// Every record the reader yields, checked against what was written.
mg::PointSet read_labeled(const fs::path& path) {
  mio::LabeledFileReader reader(path);
  mg::PointSet got;
  mg::Point p;
  std::int64_t cluster = 0;
  while (reader.next(p, cluster)) {
    EXPECT_EQ(cluster, static_cast<std::int64_t>(got.size()) - 1);
    got.push_back(p);
  }
  EXPECT_EQ(got.size(), reader.records());
  return got;
}

}  // namespace

TEST_F(ReaderFuzz, LabeledFileTruncatedAtEveryByte) {
  const auto bytes = labeled_file_bytes(dir_);
  constexpr std::size_t kHeader = 8;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    mg::PointSet got;
    const bool read = read_or_clean_error(
        damaged(), std::span(bytes).first(cut),
        [&] { got = read_labeled(damaged()); }, "cut=" + std::to_string(cut));
    // No count in the header: a cut at a record boundary is a shorter
    // file, any other cut a torn one.
    const bool whole = cut >= kHeader &&
                       (cut - kHeader) % mio::kLabeledRecordSize == 0;
    EXPECT_EQ(read, whole) << "cut=" << cut;
    if (read) {
      EXPECT_EQ(got.size(), (cut - kHeader) / mio::kLabeledRecordSize);
      EXPECT_TRUE(is_prefix(got)) << "cut=" << cut;
    }
  }
}

TEST_F(ReaderFuzz, LabeledFileHeaderByteFlips) {
  const auto bytes = labeled_file_bytes(dir_);
  mrscan::util::Rng rng(103);
  constexpr std::size_t kHeader = 8;  // magic, version
  for (std::size_t at = 0; at < kHeader; ++at) {
    for (const std::uint8_t mask : masks_for(rng)) {
      auto flipped = bytes;
      flipped[at] ^= mask;
      EXPECT_FALSE(read_or_clean_error(
          damaged(), flipped, [&] { read_labeled(damaged()); },
          "byte " + std::to_string(at) + " ^ " + std::to_string(mask)));
    }
  }
}
