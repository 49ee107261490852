#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "data/synthetic.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;
namespace msw = mrscan::sweep;
namespace mm = mrscan::merge;
namespace fs = std::filesystem;

TEST(Sweep, GlobalIdsCountTheRootClusters) {
  mm::MergeSummary root;
  root.clusters.resize(3);
  const auto assignment = msw::assign_global_ids(root);
  EXPECT_EQ(assignment.cluster_count, 3u);
}

TEST(Sweep, EmptyRootSummary) {
  const auto assignment = msw::assign_global_ids(mm::MergeSummary{});
  EXPECT_EQ(assignment.cluster_count, 0u);
}

TEST(Sweep, LabelOwnedPointsMapsLocalToGlobal) {
  mg::PointSet pts{{10, 0, 0, 1}, {11, 1, 0, 1}, {12, 2, 0, 1}};
  md::Labeling labels;
  labels.cluster = {0, md::kNoise, 1};
  labels.core = {1, 0, 1};
  const std::vector<std::int64_t> global{42, 7};
  const auto records = msw::label_owned_points(pts, labels, global);
  ASSERT_EQ(records.size(), 2u);  // noise dropped
  EXPECT_EQ(records[0].point.id, 10u);
  EXPECT_EQ(records[0].cluster, 42);
  EXPECT_EQ(records[1].point.id, 12u);
  EXPECT_EQ(records[1].cluster, 7);
}

TEST(Sweep, KeepNoiseOptionRetainsNoisePoints) {
  mg::PointSet pts{{10, 0, 0, 1}, {11, 1, 0, 1}};
  md::Labeling labels;
  labels.cluster = {md::kNoise, 0};
  labels.core = {0, 1};
  const std::vector<std::int64_t> global{3};
  const auto records =
      msw::label_owned_points(pts, labels, global, /*keep_noise=*/true);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].cluster, md::kNoise);
  EXPECT_EQ(records[1].cluster, 3);
}

TEST(Sweep, LabelOutOfRangeThrows) {
  mg::PointSet pts{{1, 0, 0, 1}};
  md::Labeling labels;
  labels.cluster = {5};
  labels.core = {1};
  const std::vector<std::int64_t> global{0};  // only cluster 0 mapped
  EXPECT_THROW(msw::label_owned_points(pts, labels, global),
               std::invalid_argument);
}

namespace {

/// The labeled text writer's byte contract, rendered by the stream
/// formatting it must equal: decimal integers, and x, y and the weight
/// (which the stream widens to double) at precision 17, i.e. "%.17g".
std::string stream_rendering(std::span<const msw::LabeledPoint> records) {
  std::ostringstream out;
  out.precision(17);
  for (const msw::LabeledPoint& r : records) {
    out << r.point.id << ' ' << r.point.x << ' ' << r.point.y << ' '
        << r.point.weight << ' ' << r.cluster << '\n';
  }
  return out.str();
}

std::string file_contents(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

}  // namespace

TEST(Sweep, LabeledTextMatchesStreamFormatting) {
  using dlim = std::numeric_limits<double>;
  // The integral values bound the integer fast path: 2^53 + 2 is past
  // the doubles that hold every integer, 99999999999999984 is the largest
  // double below 1e17, and the next double above 1e17 takes an exponent.
  const std::vector<double> specials{
      0.0,   -0.0,   dlim::denorm_min(),  dlim::max(),
      1e16,  1e17,   dlim::infinity(),    -dlim::infinity(),
      dlim::quiet_NaN(), std::copysign(dlim::quiet_NaN(), -1.0),
      -1.0,  -42.0,  0x1p53,  0x1p53 + 2.0,
      99999999999999984.0, -99999999999999984.0,
      std::nextafter(1e17, dlim::infinity())};
  const std::vector<std::int64_t> clusters{
      std::numeric_limits<std::int64_t>::min(), -1, 0,
      std::numeric_limits<std::int64_t>::max()};
  const std::vector<float> weights{1.0f, 0.3f, 1e-40f,
                                   std::numeric_limits<float>::max()};
  mrscan::util::Rng rng(14);
  const auto bit_pattern = [&rng] {
    const std::uint64_t bits = rng.next_u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
  };
  // ~4 MiB of text: the writer's 1 MiB block fills several times.
  std::vector<msw::LabeledPoint> records(48'000);
  for (std::size_t i = 0; i < records.size(); ++i) {
    msw::LabeledPoint& r = records[i];
    r.point.id = i % 4 == 0   ? 0
                 : i % 4 == 1 ? std::numeric_limits<std::uint64_t>::max()
                              : rng.next_u64();
    r.point.x = i % 2 == 0 ? specials[(i / 2) % specials.size()]
                           : bit_pattern();
    r.point.y = i % 3 == 0   ? specials[(i / 3) % specials.size()]
                : i % 3 == 1 ? bit_pattern()
                             : rng.uniform(-180.0, 180.0);
    r.point.weight = weights[i % weights.size()];
    r.cluster = i % 5 < clusters.size()
                    ? clusters[i % 5]
                    : static_cast<std::int64_t>(rng.next_u64());
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_sweep_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path path = dir / "out.txt";
  msw::write_labeled_text(path, records);
  const std::string written = file_contents(path);
  fs::remove_all(dir);
  const std::string expected = stream_rendering(records);
  ASSERT_GT(expected.size(), std::size_t{3} << 20);
  const std::size_t first_diff =
      std::mismatch(written.begin(), written.end(), expected.begin(),
                    expected.end())
          .first -
      written.begin();
  EXPECT_EQ(first_diff, expected.size())
      << "expected from there: " << expected.substr(first_diff, 80);
  EXPECT_EQ(written.size(), expected.size());

  // An empty span writes an empty file.
  fs::create_directories(dir);
  msw::write_labeled_text(path, {});
  EXPECT_TRUE(file_contents(path).empty());
  fs::remove_all(dir);
}

TEST(Sweep, LabeledTextBytesDoNotDependOnThreads) {
  // Around one slice of the writer (7,133 records), and several slices
  // with a short tail, so some workers wait for their turn to append.
  mrscan::util::Rng rng(31);
  std::vector<msw::LabeledPoint> all(5 * 7'133 + 3);
  for (msw::LabeledPoint& r : all) {
    r.point.id = rng.next_u64();
    r.point.x = rng.uniform(-180.0, 180.0);
    r.point.y = rng.uniform(-90.0, 90.0);
    r.point.weight = static_cast<float>(rng.uniform(0.0, 2.0));
    r.cluster = static_cast<std::int64_t>(rng.next_u64() % 100'000) - 1;
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("mrscan_sweep_threads_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path path = dir / "out.txt";
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{7'132},
        std::size_t{7'133}, std::size_t{7'134}, all.size()}) {
    const auto records = std::span(all).first(count);
    const std::string expected = stream_rendering(records);
    for (const std::size_t threads : {1, 2, 3, 4, 8}) {
      msw::write_labeled_text(path, records, threads);
      EXPECT_TRUE(file_contents(path) == expected)
          << count << " records at " << threads << " threads";
    }
  }
  fs::remove_all(dir);
}

TEST(Sweep, LabeledTextWriteToFullDeviceThrows) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Two records stay in the stream's buffer until the final flush.
  const std::vector<msw::LabeledPoint> records{{{1, 0.5, -0.5, 1.0f}, 0},
                                               {{2, 1.5, 2.5, 0.25f}, 7}};
  // 30k records span five slices; the first slice's write fails. At four
  // threads the other workers are formatting or waiting for their turn;
  // they must stop, so the call returns with that one error.
  const std::vector<msw::LabeledPoint> many(30'000, records[0]);
  const auto expect_full_device_error =
      [](std::span<const msw::LabeledPoint> batch, std::size_t threads) {
        try {
          msw::write_labeled_text("/dev/full", batch, threads);
          FAIL() << "expected a throw for " << batch.size() << " records";
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("/dev/full"), std::string::npos) << what;
          EXPECT_NE(what.find("No space left on device"), std::string::npos)
              << what;
        }
      };
  expect_full_device_error(records, 0);
  expect_full_device_error(many, 0);
  expect_full_device_error(many, 4);
}

TEST(Sweep, LabelsInInputOrderAlignsById) {
  mg::PointSet pts{{5, 0, 0, 1}, {6, 1, 1, 1}, {7, 2, 2, 1}};
  std::vector<msw::LabeledPoint> records{{{7, 2, 2, 1}, 1},
                                         {{5, 0, 0, 1}, 0}};
  const auto labels = msw::labels_in_input_order(pts, records);
  EXPECT_EQ(labels,
            (std::vector<md::ClusterId>{0, md::kNoise, 1}));
}
