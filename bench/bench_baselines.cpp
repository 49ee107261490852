// Baseline comparison (§2.2 context): wall-clock time of the DBSCAN
// implementations in this repository on identical data —
//   * sequential DBSCAN (the quality reference, ELKI's role),
//   * CUDA-DClust on the virtual device,
//   * Mr. Scan's GPGPU DBSCAN (single leaf),
//   * the full Mr. Scan pipeline (partition + cluster + merge + sweep).
#include <cstdio>

#include "common/experiment.hpp"
#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "dbscan/sequential.hpp"
#include "gpu/cuda_dclust.hpp"
#include "gpu/mrscan_gpu.hpp"
#include "util/timer.hpp"

int main() {
  using namespace mrscan;
  const auto scale = bench::BenchScale::from_env();
  bench::print_header("Baselines: wall-clock seconds on identical data");
  std::printf("%10s | %10s %12s %12s %12s\n", "points", "sequential",
              "cuda-dclust", "mrscan-gpu", "pipeline");

  for (std::uint64_t n = scale.quality_points / 4;
       n <= scale.quality_points; n *= 2) {
    data::TwitterConfig tw;
    tw.num_points = n;
    const auto points = data::generate_twitter(tw);
    const dbscan::DbscanParams params{0.1, 40};

    util::Timer t1;
    const auto seq = dbscan::dbscan_sequential(points, params);
    const double seq_s = t1.seconds();

    util::Timer t2;
    gpu::CudaDClustConfig dc_config;
    dc_config.params = params;
    gpu::VirtualDevice dc_dev;
    const auto dc = gpu::cuda_dclust(points, dc_config, dc_dev);
    const double dc_s = t2.seconds();

    util::Timer t3;
    gpu::MrScanGpuConfig ms_config;
    ms_config.params = params;
    gpu::VirtualDevice ms_dev;
    const auto ms = gpu::mrscan_gpu_dbscan(points, ms_config, ms_dev);
    const double ms_s = t3.seconds();

    util::Timer t4;
    core::MrScanConfig pipe_config;
    pipe_config.params = params;
    pipe_config.leaves = 8;
    const core::MrScan pipeline(pipe_config);
    const auto pipe = pipeline.run(points);
    const double pipe_s = t4.seconds();

    // Sanity: every implementation found the same number of clusters.
    if (seq.cluster_count() != ms.labels.cluster_count() ||
        seq.cluster_count() != pipe.cluster_count) {
      std::printf("WARNING: cluster counts disagree (%zu seq, %zu gpu, %zu "
                  "pipeline)\n",
                  seq.cluster_count(), ms.labels.cluster_count(),
                  pipe.cluster_count);
    }
    (void)dc;

    std::printf("%10llu | %10.3f %12.3f %12.3f %12.3f\n",
                static_cast<unsigned long long>(n), seq_s, dc_s, ms_s,
                pipe_s);
  }
  return 0;
}
