// Observability subsystem battery.
//
// The contracts under test (ISSUE 4 / DESIGN §9):
//   * registry merges are deterministic: concurrent sharded writes yield
//     the same snapshot — and the same JSON bytes — as sequential ones;
//   * spans carry the right clock domain and sort deterministically;
//   * the exporters produce exactly the documented JSON shapes;
//   * tracing a fault-injected multi-threaded pipeline run changes
//     NOTHING about the clustering: output records, cluster count, and
//     fault counters are identical, while the trace covers all four
//     phases, the partition phase's layers and the leaf-recovery re-read,
//     and the sim.* gauges equal MrScanResult::PhaseBreakdown exactly;
//   * a traced run records exactly the series an untraced one does, with
//     equal values except the host-measured wall.* gauges.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mrscan.hpp"
#include "data/twitter.hpp"
#include "fault/plan.hpp"
#include "io/checked_file.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "util/thread_pool.hpp"

namespace mc = mrscan::core;
namespace mo = mrscan::obs;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CountersGaugesHistogramsMerge) {
  mo::Registry reg;
  reg.add("c", 3);
  reg.add("c", 4);
  reg.set("g", 1.5);
  reg.set_max("m", 2.0);
  reg.set_max("m", 1.0);  // lower value must not win
  reg.observe("h", 1.0);
  reg.observe("h", 3.0);

  const mo::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 1.5);
  EXPECT_DOUBLE_EQ(snap.gauge("m"), 2.0);
  const mo::MetricSample* h = snap.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, mo::MetricKind::kHistogram);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->value, 4.0);
  EXPECT_DOUBLE_EQ(h->min, 1.0);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
  // Snapshot is name-sorted.
  std::vector<std::string> names;
  for (const auto& s : snap.samples) names.push_back(s.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ObsRegistry, ZeroDeltaCreatesTheCounter) {
  mo::Registry reg;
  reg.add("present", 0);
  const mo::MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("present"), nullptr);
  EXPECT_EQ(snap.counter("present"), 0u);
  EXPECT_EQ(snap.find("absent"), nullptr);
  EXPECT_EQ(snap.counter("absent", 42u), 42u);
}

TEST(ObsRegistry, ConcurrentWritesMatchSequentialAndAreByteStable) {
  const std::size_t kTasks = 256;

  // Sequential reference.
  mo::Registry seq;
  for (std::size_t i = 0; i < kTasks; ++i) {
    seq.add("tasks");
    seq.add("bytes", i);
    seq.observe("size", static_cast<double>(i % 7));
    seq.set_max("peak", static_cast<double>(i));
  }
  const std::string seq_json = mo::metrics_json(seq.snapshot());

  // The same writes fanned out over a pool, twice; all merge rules are
  // commutative, so both snapshots must render to the same bytes.
  for (int round = 0; round < 2; ++round) {
    mo::Registry par;
    mrscan::util::ThreadPool pool(4);
    pool.parallel_for(0, kTasks, [&](std::size_t i) {
      par.add("tasks");
      par.add("bytes", i);
      par.observe("size", static_cast<double>(i % 7));
      par.set_max("peak", static_cast<double>(i));
    });
    EXPECT_EQ(mo::metrics_json(par.snapshot()), seq_json) << round;
  }
}

TEST(ObsRegistry, KindMismatchIsRejected) {
  mo::Registry reg;
  reg.add("metric");
  EXPECT_THROW(reg.set("metric", 1.0), std::exception);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  mo::Tracer tracer(false);
  tracer.sim_span("a", "net", 0, 0.0, 1.0);
  tracer.wall_span("b", "phase", 0.0, 1.0);
  { mo::Tracer::WallScope scope(tracer, "c", "leaf"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(ObsTracer, SimSpansCarryEventQueueTime) {
  // Spans placed from inside a discrete-event simulation must carry the
  // virtual clock, not wall time.
  mrscan::sim::EventQueue queue;
  mo::Tracer tracer(true);
  queue.schedule_at(2.5, [&] {
    tracer.sim_span("op", "net", 7, queue.now(), queue.now() + 0.5);
  });
  queue.run();

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].clock, mo::SpanClock::kSim);
  EXPECT_DOUBLE_EQ(spans[0].begin, 2.5);
  EXPECT_DOUBLE_EQ(spans[0].end, 3.0);
  EXPECT_EQ(spans[0].track, 7u);
}

TEST(ObsTracer, SpansSortByClockThenBeginThenSeq) {
  mo::Tracer tracer(true);
  tracer.sim_span("sim-late", "net", 0, 5.0, 6.0);
  tracer.wall_span("wall", "phase", 0.0, 1.0);
  tracer.sim_span("sim-early", "net", 0, 1.0, 2.0);
  tracer.sim_span("sim-tie-2", "net", 0, 3.0, 4.0);
  tracer.sim_span("sim-tie-1", "net", 1, 3.0, 4.0);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].name, "wall");  // wall clock sorts first
  EXPECT_EQ(spans[1].name, "sim-early");
  EXPECT_EQ(spans[2].name, "sim-tie-2");  // equal begin: recording order
  EXPECT_EQ(spans[3].name, "sim-tie-1");
  EXPECT_EQ(spans[4].name, "sim-late");
}

TEST(ObsTracer, WallScopeMeasuresNonNegativeInterval) {
  mo::Tracer tracer(true);
  { mo::Tracer::WallScope scope(tracer, "scoped", "leaf"); }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].clock, mo::SpanClock::kWall);
  EXPECT_GE(spans[0].end, spans[0].begin);
  EXPECT_GE(spans[0].begin, 0.0);  // relative to the tracer's epoch
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExport, MetricsJsonGolden) {
  mo::Registry reg;
  reg.add("b.counter", 3);
  reg.set("a.gauge", 0.5);
  reg.observe("c.hist", 2.0);
  EXPECT_EQ(mo::metrics_json(reg.snapshot()),
            "{\"schema\":\"mrscan-metrics-v1\",\"metrics\":["
            "{\"name\":\"a.gauge\",\"kind\":\"gauge\",\"value\":0.5},"
            "{\"name\":\"b.counter\",\"kind\":\"counter\",\"value\":3},"
            "{\"name\":\"c.hist\",\"kind\":\"histogram\",\"count\":1,"
            "\"sum\":2,\"min\":2,\"max\":2}"
            "]}\n");
}

TEST(ObsExport, ChromeTraceJsonGolden) {
  mo::Tracer tracer(true);
  tracer.sim_span("filter \"q\"", "net", 3, 1.0, 1.5);
  EXPECT_EQ(mo::chrome_trace_json(tracer),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"host wall clock\"}},"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"titan virtual clock\"}},"
            "{\"name\":\"filter \\\"q\\\"\",\"cat\":\"net\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":3,\"ts\":1e+06,\"dur\":5e+05}"
            "]}\n");
}

TEST(ObsExport, WriteTextFileReportsAFailedFlush) {
  // A short file stays in the stream's buffer until close(); a full disk
  // must fail the write there, not vanish in the destructor.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(mo::write_text_file("/dev/full", "{}\n"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Pipeline differential: tracing changes nothing.
// ---------------------------------------------------------------------------

namespace {

mrscan::geom::PointSet obs_points() {
  mrscan::data::TwitterConfig tw;
  tw.num_points = 8000;
  tw.seed = 11;
  return mrscan::data::generate_twitter(tw);
}

mc::MrScanConfig obs_config() {
  mc::MrScanConfig config;
  config.params = {0.1, 20};
  config.leaves = 4;
  config.fanout = 4;
  config.partition_nodes = 2;
  config.host_threads = 4;
  // The acceptance scenario: a killed leaf recovered via partition
  // re-read, under host concurrency.
  config.fault_plan.kill(1, /*before_cluster=*/false);
  config.fault_plan.retry.leaf_timeout_s = 2.0;
  return config;
}

/// `snap` without its host-measured wall.* gauges, which vary run to
/// run by design.
mo::MetricsSnapshot without_wall(mo::MetricsSnapshot snap) {
  std::erase_if(snap.samples, [](const mo::MetricSample& s) {
    return s.name.rfind("wall.", 0) == 0;
  });
  return snap;
}

bool has_span(const std::vector<mo::TraceSpan>& spans,
              const std::string& needle) {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const mo::TraceSpan& s) {
                       return s.name.find(needle) != std::string::npos;
                     });
}

}  // namespace

TEST(ObsPipeline, TracingLeavesFaultInjectedOutputByteIdentical) {
  const auto points = obs_points();

  auto cfg_off = obs_config();
  const auto off = mc::MrScan(cfg_off).run(points);
  ASSERT_EQ(off.merge_net.leaves_recovered, 1u);

  auto cfg_on = obs_config();
  cfg_on.trace = true;
  const auto on = mc::MrScan(cfg_on).run(points);

  // (a) byte-identical clustering output.
  EXPECT_EQ(on.cluster_count, off.cluster_count);
  EXPECT_TRUE(on.output == off.output);
  // Counters and simulated times agree too.
  EXPECT_EQ(on.merges_detected, off.merges_detected);
  EXPECT_EQ(on.merge_net.leaves_recovered, off.merge_net.leaves_recovered);
  EXPECT_EQ(on.merge_net.packets_dropped, off.merge_net.packets_dropped);
  EXPECT_EQ(on.merge_net.retries, off.merge_net.retries);
  EXPECT_EQ(on.merge_net.timeouts, off.merge_net.timeouts);
  EXPECT_DOUBLE_EQ(on.merge_net.recovery_seconds,
                   off.merge_net.recovery_seconds);
  EXPECT_DOUBLE_EQ(on.sim.total(), off.sim.total());
  EXPECT_DOUBLE_EQ(on.gpu_dbscan_seconds, off.gpu_dbscan_seconds);

  // (b) the trace covers all four phases plus the recovery re-read.
  ASSERT_NE(on.obs, nullptr);
  EXPECT_TRUE(on.obs->tracing());
  const auto spans = on.obs->tracer().spans();
  for (const char* phase : {"phase:partition", "phase:cluster",
                            "phase:merge", "phase:sweep"}) {
    EXPECT_TRUE(has_span(spans, phase)) << phase;
  }
  EXPECT_TRUE(has_span(spans, "reread leaf 1 partition"));
  EXPECT_TRUE(has_span(spans, "recluster leaf 1"));
  // The partition phase's layers and the run's own: leaves, the merge
  // filter and the sweep. A resident run maps, spills, appends and
  // checkpoints nothing.
  for (const char* layer :
       {"partition.histogram", "partition.plan", "partition.materialize",
        "cluster leaf 0", "gpu.dbscan", "merge.summary", "merge.merge",
        "sweep.assign", "sweep.label"}) {
    EXPECT_TRUE(has_span(spans, layer)) << layer;
  }
  for (const char* layer : {"partition.spill", "io.map", "io.spill_labels",
                            "io.append", "fault.checkpoint"}) {
    EXPECT_FALSE(has_span(spans, layer)) << layer;
  }

  // The disabled run recorded no spans at all.
  ASSERT_NE(off.obs, nullptr);
  EXPECT_FALSE(off.obs->tracing());
  EXPECT_TRUE(off.obs->tracer().spans().empty());

  // (c) the registry holds the run's numbers: the sim.* gauges equal
  // PhaseBreakdown exactly, the fault.* counters equal merge_net's
  // fields, and every phase has a positive wall.* gauge.
  const mo::MetricsSnapshot snap = on.obs->metrics().snapshot();
  EXPECT_EQ(snap.gauge("sim.startup"), on.sim.startup);
  EXPECT_EQ(snap.gauge("sim.partition"), on.sim.partition);
  EXPECT_EQ(snap.gauge("sim.cluster_merge"), on.sim.cluster_merge);
  EXPECT_EQ(snap.gauge("sim.sweep"), on.sim.sweep);
  EXPECT_EQ(snap.gauge("sim.total"), on.sim.total());
  EXPECT_EQ(snap.counter("fault.leaves_recovered"),
            on.merge_net.leaves_recovered);
  EXPECT_EQ(snap.counter("fault.packets_dropped"),
            on.merge_net.packets_dropped);
  EXPECT_EQ(snap.counter("fault.retries"), on.merge_net.retries);
  EXPECT_EQ(snap.counter("fault.timeouts"), on.merge_net.timeouts);
  EXPECT_EQ(snap.gauge("fault.recovery_seconds"),
            on.merge_net.recovery_seconds);
  EXPECT_EQ(snap.counter("merge.merges_detected"), on.merges_detected);
  EXPECT_EQ(snap.gauge("gpu.device_seconds_max"), on.gpu_dbscan_seconds);
  EXPECT_GT(snap.counter("net.merge.packets_up"), 0u);
  EXPECT_GT(snap.counter("net.partition.packets_up"), 0u);
  EXPECT_GT(snap.counter("partition.parts"), 0u);
  for (const char* phase : {"partition", "cluster", "merge", "sweep"}) {
    const double wall = snap.gauge(std::string("wall.") + phase);
    EXPECT_GT(wall, 0.0) << phase;
    EXPECT_EQ(on.obs->wall_seconds(phase), wall) << phase;
  }
}

TEST(ObsPipeline, TracedAndUntracedRunsRecordTheSameSeries) {
  // Tracing adds spans and nothing else: both runs record the same
  // series, and every value but the host-measured wall.* gauges agrees.
  const auto points = obs_points();
  auto cfg = obs_config();
  const auto off = mc::MrScan(cfg).run(points);
  cfg.trace = true;
  const auto on = mc::MrScan(cfg).run(points);

  const mo::MetricsSnapshot untraced = off.obs->metrics().snapshot();
  const mo::MetricsSnapshot traced = on.obs->metrics().snapshot();
  const auto names = [](const mo::MetricsSnapshot& snap) {
    std::vector<std::string> out;
    for (const mo::MetricSample& s : snap.samples) out.push_back(s.name);
    return out;
  };
  EXPECT_EQ(names(traced), names(untraced));
  EXPECT_EQ(mo::metrics_json(without_wall(traced)),
            mo::metrics_json(without_wall(untraced)));
}

TEST(ObsPipeline, OutOfCoreTraceShowsThePartitionSpill) {
  const auto points = obs_points();
  auto cfg = obs_config();
  cfg.fault_plan = {};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mrscan_obs_ooc_" + std::to_string(::getpid()));
  cfg.ooc.enabled = true;
  cfg.ooc.dir = dir / "off";
  const auto off = mc::MrScan(cfg).run(points);
  cfg.trace = true;
  cfg.ooc.dir = dir / "on";
  const auto result = mc::MrScan(cfg).run(points);
  // Tracing changes neither the streamed bytes nor a simulated second.
  EXPECT_EQ(mrscan::io::read_file_bytes(result.output_path),
            mrscan::io::read_file_bytes(off.output_path));
  EXPECT_EQ(result.sim.total(), off.sim.total());
  std::filesystem::remove_all(dir);
  ASSERT_NE(result.obs, nullptr);
  const auto spans = result.obs->tracer().spans();
  for (const char* layer :
       {"partition.histogram", "partition.plan", "partition.materialize",
        "partition.spill", "cluster leaf 0", "io.map", "gpu.dbscan",
        "merge.summary", "io.spill_labels", "fault.checkpoint",
        "merge.merge", "sweep.assign", "sweep.label", "io.append"}) {
    EXPECT_TRUE(has_span(spans, layer)) << layer;
  }
}

TEST(ObsPipeline, DisabledRunStillPopulatesRegistry) {
  // Tracing is off by default, but the registry (not the tracer) is
  // always live: it is where a run's statistics are kept.
  const auto points = obs_points();
  auto cfg = obs_config();
  cfg.fault_plan = {};
  const auto result = mc::MrScan(cfg).run(points);

  ASSERT_NE(result.obs, nullptr);
  EXPECT_FALSE(result.obs->tracing());
  const mo::MetricsSnapshot snap = result.obs->metrics().snapshot();
  EXPECT_EQ(snap.gauge("sim.total"), result.sim.total());
  EXPECT_EQ(snap.counter("fault.leaves_recovered"), 0u);
  // The one-line summary renders every phase.
  const std::string summary = result.obs->phase_summary();
  for (const char* phase : {"partition", "cluster", "merge", "sweep"}) {
    EXPECT_NE(summary.find(phase), std::string::npos) << summary;
  }
}

TEST(ObsPipeline, MetricsJsonIsByteStableAcrossIdenticalRuns) {
  const auto points = obs_points();
  std::string first;
  for (int round = 0; round < 2; ++round) {
    auto cfg = obs_config();
    cfg.trace = true;
    const auto result = mc::MrScan(cfg).run(points);
    // Everything but the wall seconds must render identically.
    const std::string json =
        mo::metrics_json(without_wall(result.obs->metrics().snapshot()));
    if (round == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
}

TEST(ObsPipeline, SweepNetworkStatsCoverOnlyTheSweep) {
  // net.sweep.* describes the scatter alone: its largest packet is one of
  // the id maps it sent down, not the merge phase's largest summary, and
  // nothing travelled upstream.
  const auto points = obs_points();
  auto cfg = obs_config();
  cfg.fault_plan = {};
  const auto result = mc::MrScan(cfg).run(points);
  const mo::MetricsSnapshot snap = result.obs->metrics().snapshot();

  const double max_packet = snap.gauge("net.sweep.max_packet_bytes");
  EXPECT_GT(max_packet, 0.0);
  EXPECT_LE(max_packet,
            static_cast<double>(snap.counter("net.sweep.bytes_down")));
  EXPECT_LT(max_packet, snap.gauge("net.merge.max_packet_bytes"));
  EXPECT_EQ(snap.counter("net.sweep.packets_up"), 0u);
  EXPECT_EQ(snap.counter("net.sweep.bytes_up"), 0u);
  EXPECT_EQ(snap.counter("net.sweep.packets_down"),
            result.sweep_net.packets_down);
}
