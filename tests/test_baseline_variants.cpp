// Parameterized equivalence sweep: every DBSCAN implementation in the repo
// must agree with the reference sequential DBSCAN across datasets and
// parameters — identical core flags and core-partition structure, and
// near-perfect DBDC quality (border ties may differ, as in any DBSCAN).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "data/sdss.hpp"
#include "data/synthetic.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "quality/dbdc.hpp"

namespace mg = mrscan::geom;
namespace md = mrscan::dbscan;

namespace {

enum class Data { kUniform, kBlobs, kTwitter, kSdss };

struct Case {
  Data data;
  std::uint64_t seed;
  double eps;
  std::size_t min_pts;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const char* names[] = {"Uniform", "Blobs", "Twitter", "Sdss"};
  return std::string(names[static_cast<int>(info.param.data)]) + "_seed" +
         std::to_string(info.param.seed) + "_minpts" +
         std::to_string(info.param.min_pts);
}

mg::PointSet make_data(const Case& c) {
  switch (c.data) {
    case Data::kUniform:
      return mrscan::data::uniform_points(
          1200, mg::BBox{0.0, 0.0, 8.0, 8.0}, c.seed);
    case Data::kBlobs: {
      std::vector<mrscan::data::Blob> blobs{{0.0, 0.0, 0.3, 400},
                                            {6.0, 6.0, 0.4, 400},
                                            {0.0, 6.0, 0.2, 200}};
      return mrscan::data::gaussian_blobs(
          blobs, 150, mg::BBox{-3.0, -3.0, 9.0, 9.0}, c.seed);
    }
    case Data::kTwitter: {
      mrscan::data::TwitterConfig tw;
      tw.num_points = 3000;
      tw.seed = c.seed;
      return mrscan::data::generate_twitter(tw);
    }
    case Data::kSdss: {
      mrscan::data::SdssConfig sdss;
      sdss.num_points = 3000;
      sdss.seed = c.seed;
      return mrscan::data::generate_sdss(sdss);
    }
  }
  return {};
}

/// Core points must form identical groupings (bijection between labels).
void expect_core_partition_equal(const md::Labeling& a,
                                 const md::Labeling& b) {
  ASSERT_EQ(a.core, b.core);
  std::map<md::ClusterId, md::ClusterId> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a.core[i]) continue;
    auto [fit, f_new] = fwd.emplace(a.cluster[i], b.cluster[i]);
    ASSERT_EQ(fit->second, b.cluster[i]) << "core split at " << i;
    auto [bit, b_new] = bwd.emplace(b.cluster[i], a.cluster[i]);
    ASSERT_EQ(bit->second, a.cluster[i]) << "core merge at " << i;
  }
}

class DbscanEquivalence : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    points_ = make_data(GetParam());
    params_ = {GetParam().eps, GetParam().min_pts};
    reference_ = md::dbscan_sequential(points_, params_);
  }
  mg::PointSet points_;
  md::DbscanParams params_;
  md::Labeling reference_;
};

}  // namespace

TEST_P(DbscanEquivalence, MrScanGpuMatches) {
  mrscan::gpu::MrScanGpuConfig config;
  config.params = params_;
  mrscan::gpu::VirtualDevice device;
  const auto got = mrscan::gpu::mrscan_gpu_dbscan(points_, config, device);
  expect_core_partition_equal(reference_, got.labels);
  EXPECT_GT(mrscan::quality::dbdc_quality(reference_.cluster,
                                          got.labels.cluster),
            0.995);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DbscanEquivalence,
    ::testing::Values(
        Case{Data::kUniform, 1, 0.45, 4}, Case{Data::kUniform, 2, 0.45, 8},
        Case{Data::kUniform, 3, 0.6, 16}, Case{Data::kBlobs, 1, 0.3, 4},
        Case{Data::kBlobs, 2, 0.3, 10}, Case{Data::kBlobs, 3, 0.25, 20},
        Case{Data::kTwitter, 1, 0.5, 4}, Case{Data::kTwitter, 2, 0.5, 12},
        Case{Data::kSdss, 1, 0.00015, 5}, Case{Data::kSdss, 2, 0.0003, 8}),
    case_name);
