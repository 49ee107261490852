#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/synthetic.hpp"
#include "io/point_file.hpp"

namespace mg = mrscan::geom;
namespace mio = mrscan::io;
namespace fs = std::filesystem;

namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mrscan_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

using PointFileTest = TempDir;

mg::PointSet sample_points(std::size_t n) {
  return mrscan::data::uniform_points(n, mg::BBox{-5.0, -5.0, 5.0, 5.0}, 99);
}

}  // namespace

TEST_F(PointFileTest, BinaryRoundTrip) {
  const auto pts = sample_points(1234);
  const auto path = dir_ / "pts.bin";
  mio::write_points_binary(path, pts);
  EXPECT_EQ(mio::read_points_binary(path), pts);
}

TEST_F(PointFileTest, BinaryEmptyFile) {
  const auto path = dir_ / "empty.bin";
  mio::write_points_binary(path, mg::PointSet{});
  EXPECT_TRUE(mio::read_points_binary(path).empty());
}

TEST_F(PointFileTest, BinaryRejectsGarbage) {
  const auto path = dir_ / "garbage.bin";
  std::ofstream(path) << "this is not a point file at all";
  EXPECT_THROW(mio::read_points_binary(path), std::runtime_error);
}

TEST_F(PointFileTest, MissingFileThrows) {
  EXPECT_THROW(mio::read_points_binary(dir_ / "nope.bin"),
               std::runtime_error);
  EXPECT_THROW(mio::read_points_text(dir_ / "nope.txt"), std::runtime_error);
}

TEST_F(PointFileTest, BinaryWriteToFullDeviceThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Two records stay in the stream's buffer until the final flush.
  try {
    mio::write_points_binary("/dev/full", sample_points(2));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
    EXPECT_NE(what.find("No space left on device"), std::string::npos)
        << what;
  }
}

TEST_F(PointFileTest, BinaryRejectsNonFiniteValuesNamingTheRecord) {
  struct Case {
    std::size_t record;
    void (*corrupt)(mg::Point&);
  };
  const Case cases[] = {
      {1, [](mg::Point& p) { p.x = std::nan(""); }},
      {2, [](mg::Point& p) { p.y = HUGE_VAL; }},
      {0, [](mg::Point& p) { p.weight = std::nanf(""); }},
  };
  const auto path = dir_ / "nonfinite.bin";
  for (const Case& c : cases) {
    auto pts = sample_points(3);
    c.corrupt(pts[c.record]);
    mio::write_points_binary(path, pts);
    try {
      mio::read_points_binary(path);
      ADD_FAILURE() << "expected a throw for record " << c.record;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite coordinate or weight at record " +
                          std::to_string(c.record)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("nonfinite.bin"), std::string::npos) << what;
    }
  }
}

TEST_F(PointFileTest, TextRoundTrip) {
  const auto pts = sample_points(200);
  const auto path = dir_ / "pts.txt";
  {
    std::ofstream out(path);
    out.precision(17);
    for (const mg::Point& p : pts) {
      out << p.id << ' ' << p.x << ' ' << p.y << ' ' << p.weight << '\n';
    }
  }
  EXPECT_EQ(mio::read_points_text(path), pts);
}

TEST_F(PointFileTest, TextSkipsCommentsAndOptionalWeight) {
  const auto path = dir_ / "hand.txt";
  std::ofstream(path) << "# header comment\n"
                      << "7 1.5 -2.5 0.5\n"
                      << "\n"
                      << "8 3.0 4.0\n";
  const auto pts = mio::read_points_text(path);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].id, 7u);
  EXPECT_FLOAT_EQ(pts[0].weight, 0.5f);
  EXPECT_EQ(pts[1].id, 8u);
  EXPECT_FLOAT_EQ(pts[1].weight, 1.0f);
}

TEST_F(PointFileTest, TextAcceptsSignsExponentsAndCrLf) {
  const auto path = dir_ / "forms.txt";
  std::ofstream(path) << "+7 +1.5 -2.5e1 +5e-1\r\n"
                      << "\t8   .25 -0\t\n";
  const auto pts = mio::read_points_text(path);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0], (mg::Point{7, 1.5, -25.0, 0.5f}));
  EXPECT_EQ(pts[1], (mg::Point{8, 0.25, 0.0, 1.0f}));
}

namespace {

/// The error read_points_text throws for a file holding `contents`, or
/// "" when the file loads.
std::string text_read_error(const fs::path& path,
                            const std::string& contents) {
  std::ofstream(path) << contents;
  try {
    mio::read_points_text(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST_F(PointFileTest, TextRejectsNonNumericWeight) {
  const auto path = dir_ / "bad.txt";
  for (const char* line : {"7 1.5 -2.5 abc\n", "1 2 3 nan\n",
                           "1 2 3 inf\n", "1 2 3 1e39\n"}) {
    EXPECT_NE(text_read_error(path, line)
                  .find("malformed text record at line 1"),
              std::string::npos)
        << line;
  }
}

TEST_F(PointFileTest, TextRejectsTrailingField) {
  const auto path = dir_ / "bad.txt";
  for (const char* line : {"8 3 4 0.5 99\n", "8 3 4 0.5 #\n"}) {
    EXPECT_NE(text_read_error(path, line)
                  .find("malformed text record at line 1"),
              std::string::npos)
        << line;
  }
}

TEST_F(PointFileTest, TextRejectsNegativeIdAndTrailingCharacters) {
  const auto path = dir_ / "bad.txt";
  for (const char* line : {"-5 1 2 0.25x\n", "-5 1 2 0.25\n",
                           "5 1 2 0.25x\n", "5.5 1 2\n", "5 1 2x\n",
                           "+-5 1 2\n"}) {
    EXPECT_NE(text_read_error(path, line)
                  .find("malformed text record at line 1"),
              std::string::npos)
        << line;
  }
}

TEST_F(PointFileTest, TextRejectsNonFiniteAndOutOfRangeCoordinates) {
  const auto path = dir_ / "bad.txt";
  for (const char* line : {"1 nan 2\n", "1 2 -nan\n", "1 inf 2\n",
                           "1 2 -infinity\n", "1 1e999 2\n",
                           "1 2 -1e999\n", "1 1e-400 2\n"}) {
    EXPECT_NE(text_read_error(path, line)
                  .find("malformed text record at line 1"),
              std::string::npos)
        << line;
  }
}

TEST_F(PointFileTest, TextErrorNamesTheOneBasedLine) {
  const auto path = dir_ / "bad.txt";
  const std::string what =
      text_read_error(path, "# header\n\n1 2 3\n2 3 4 abc\n");
  EXPECT_NE(what.find("malformed text record at line 4"), std::string::npos)
      << what;
  EXPECT_NE(what.find("bad.txt"), std::string::npos) << what;
  EXPECT_NE(text_read_error(path, "1 2\n").find("at line 1"),
            std::string::npos);
  EXPECT_NE(text_read_error(path, "1 2 3\n   \n").find("at line 2"),
            std::string::npos);
}
