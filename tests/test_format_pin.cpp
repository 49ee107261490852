// The pinned byte formats: the MRSC point file, the MRSG segment file,
// the MRLB labeled output, the MRCK checkpoint manifest and a
// MergeSummary wire packet, each written from one small fixed input.
// Every test pins the result's size and a digest of its bytes; the
// digest (pin_digest.hpp) hashes each byte on its own, so it does not
// share code with the codec it checks. A change to any byte on disk or
// on the wire fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "fault/checkpoint.hpp"
#include "io/checked_file.hpp"
#include "io/labeled_file.hpp"
#include "io/mapped_segment.hpp"
#include "io/point_file.hpp"
#include "merge/summary.hpp"
#include "pin_digest.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace mf = mrscan::fault;
namespace mm = mrscan::merge;
namespace fs = std::filesystem;

namespace {

using mrscan::test::Digest;

class FormatPin : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_format_pin_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

/// Ids past 2^32, negative and fractional coordinates, weights other
/// than 1: every field's bytes differ from its neighbours'.
const mg::PointSet kPoints = {
    {1, 0.5, -0.25, 1.0f},
    {42, -3.75, 0.001, 0.5f},
    {0xfedcba9876543210ull, 123456.789, -98765.4321, 2.5f},
};

struct Pin {
  std::uint64_t size;
  std::uint64_t digest;
};

Pin pin_of(std::span<const std::uint8_t> bytes) {
  Digest d;
  d.add_bytes(bytes);
  return {bytes.size(), d.value()};
}

Pin pin_of_file(const fs::path& path) {
  return pin_of(mio::read_file_bytes(path));
}

}  // namespace

TEST_F(FormatPin, PointFile) {
  const fs::path path = dir_ / "points.mrsc";
  mio::write_points_binary(path, kPoints);
  const Pin pin = pin_of_file(path);
  EXPECT_EQ(pin.size, 100u);
  EXPECT_EQ(pin.digest, 0xeafb16299b34a707ull);
}

TEST_F(FormatPin, SegmentFile) {
  const fs::path path = mio::segment_file_path(dir_, 5);
  mio::Segment segment;
  segment.owned = {kPoints[0], kPoints[2]};
  segment.shadow = {kPoints[1]};
  mio::write_segment_file(path, segment);
  const Pin pin = pin_of_file(path);
  EXPECT_EQ(pin.size, 108u);
  EXPECT_EQ(pin.digest, 0xc569cf19ce0cce4bull);
}

TEST_F(FormatPin, LabeledFile) {
  const fs::path path = dir_ / "out.labeled";
  mio::LabeledFileWriter writer(path);
  writer.append(kPoints[0], -1);
  writer.append(kPoints[1], 0);
  writer.append(kPoints[2], 0x123456789ll);
  writer.close();
  const Pin pin = pin_of_file(path);
  EXPECT_EQ(pin.size, 116u);
  EXPECT_EQ(pin.digest, 0xd093d4f546e7e1a3ull);
}

TEST_F(FormatPin, CheckpointManifest) {
  const fs::path path = dir_ / "checkpoint.mrck";
  mf::CheckpointManifest manifest;
  manifest.fingerprint = 0x0123456789abcdefull;
  manifest.total_leaves = 9;
  manifest.entries.push_back({2, 0.375, 112, {1, 2, 3}, {0xa0, 0xa1}});
  manifest.entries.push_back({7, 1.0e-3, 0, {}, {0xff, 0x00, 0x7f, 0x80}});
  const std::size_t written = mf::save_checkpoint(path, manifest);
  const Pin pin = pin_of_file(path);
  EXPECT_EQ(written, pin.size);
  EXPECT_EQ(pin.size, 105u);
  EXPECT_EQ(pin.digest, 0x92bfcfc647bc123full);
}

TEST_F(FormatPin, SummaryPacket) {
  mm::MergeSummary summary;
  summary.clusters.resize(2);
  summary.clusters[0].owned_points = 17;
  summary.clusters[0].cells.push_back(
      {0x0000000500000003ull, false, {{1, 0.5, -0.25}, {42, -3.75, 0.001}},
       {{9, 1.5, 2.5}}});
  summary.clusters[0].cells.push_back({0xfffffffe00000001ull, true, {}, {}});
  summary.clusters[1].owned_points = 0;
  summary.clusters[1].cells.push_back(
      {7, true, {{0xfedcba9876543210ull, 123456.789, -98765.4321}}, {}});
  const Pin pin = pin_of(summary.to_packet().bytes());
  EXPECT_EQ(pin.size, 211u);
  EXPECT_EQ(pin.digest, 0x6e231a0576c358a4ull);
}
