#!/usr/bin/env bash
# scripts/check.sh — run the full correctness-tooling matrix and fail on
# any report:
#
#   1. mrscan_analyze     semantic contract checker (determinism,
#                         concurrency, accounting, layering) over
#                         src/ bench/ examples/ tests/; findings JSON
#                         is written to build/analyze_findings.json
#   2. default preset     build + full test suite (tier-1 bar)
#   3. obs smoke          traced pipeline run; both JSON artifacts are
#                         schema-validated by tools/obs/check_obs_json.py
#   4. serve smoke        mrscan_cli --serve demo-stream replay; the
#                         serve.* metrics snapshot is schema-validated by
#                         tools/obs/check_obs_json.py --serve
#   5. ooc smoke          out-of-core mrscan_cli run (byte-identical to
#                         the resident reference) plus a kill/resume
#                         cycle; the ooc.* metrics snapshot is
#                         schema-validated by
#                         tools/obs/check_obs_json.py --ooc
#   6. bench smoke        short bench_micro_index + bench_micro_pipeline
#                         + bench_serve + bench_ooc runs with
#                         MRSCAN_BENCH_METRICS_DIR set; every emitted
#                         BENCH_*.json is schema-validated by
#                         tools/obs/check_obs_json.py --bench and
#                         compared with the committed snapshot by
#                         tools/bench/compare.py
#   7. e2e smoke          1-second e2ebench runs of twitter-16L,
#                         sdss-256L-ooc and serve-twitter-100k (seed 1);
#                         each must report "correct": true, which pins
#                         the batch runs' labeled text output bytes, the
#                         serve run's epoch-128 snapshot, and every
#                         run's sim_s to e2ebench/reference.json
#   8. release preset     Release (-O3) build of every target with
#                         MRSCAN_WERROR=ON and no tests: the warnings GCC
#                         only issues at -O3, which the RelWithDebInfo
#                         presets never see, fail the check
#   9. asan-ubsan preset  full suite under ASan+UBSan with
#                         MRSCAN_CHECK_INVARIANTS=ON and MRSCAN_WERROR=ON
#  10. tsan preset        full suite (incl. the `stress`-labeled tests)
#                         under TSan, same options
#  11. tidy preset        clang-tidy over every TU (skipped with a notice
#                         when clang-tidy is not installed)
#
# Usage: scripts/check.sh [--quick] [--no-stress] [--coverage] [--jobs N]
#   --quick      analyze + default preset + smokes 3-6 only (the fast
#                pre-commit loop; no e2e smoke, release build, sanitizers
#                or tidy)
#   --no-stress  skip the `stress`-labeled tests in every preset (the
#                push/PR CI path; a scheduled job runs them)
#   --coverage   also build + test the `coverage` preset and gate line
#                coverage of every src/<module>/ directory at 80% with
#                tools/coverage/check_coverage.py; the summary JSON lands
#                in build-coverage/coverage_summary.json (CI uploads it)
#   --jobs N     parallelism for builds and ctest (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)
QUICK=0
NO_STRESS=0
COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --no-stress) NO_STRESS=1 ;;
    --coverage) COVERAGE=1 ;;
    --jobs) ;; # value handled below
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    [0-9]*) JOBS="$arg" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

bold() { printf '\n\033[1m== %s ==\033[0m\n' "$*"; }
FAILURES=()

run_step() {
  local name="$1"; shift
  bold "$name"
  if "$@"; then
    echo "-- $name: OK"
  else
    echo "-- $name: FAILED" >&2
    FAILURES+=("$name")
  fi
}

run_preset() {
  local preset="$1"
  run_step "configure:$preset" cmake --preset "$preset"
  run_step "build:$preset" cmake --build --preset "$preset" -j "$JOBS"
  local ctest_args=(--preset "$preset" -j "$JOBS")
  if [[ "$NO_STRESS" -eq 1 ]]; then
    ctest_args+=(-LE stress)
  fi
  # The tsan preset drives the phase loops with 4 host workers so the
  # race detector sees real concurrency and the differential battery
  # enforces the bit-identical-output determinism contract under it.
  if [[ "$preset" == "tsan" ]]; then
    run_step "test:$preset" \
      env "MRSCAN_HOST_THREADS=${MRSCAN_HOST_THREADS:-4}" \
      ctest "${ctest_args[@]}"
  else
    run_step "test:$preset" ctest "${ctest_args[@]}"
  fi
}

# The analyzer consumes build/compile_commands.json when a configure has
# already exported one; on a fresh checkout it falls back to scanning
# src/, so running it before the configure step is fine.
mkdir -p build
run_step "analyze" python3 tools/analyze/mrscan_analyze.py \
  --json build/analyze_findings.json

run_preset default

# Observability smoke: a traced demo run must produce a Perfetto-loadable
# Chrome trace and a valid metrics snapshot (and still cluster correctly).
obs_smoke() {
  ./build/examples/mrscan_cli --demo 5000 --eps 0.1 --minpts 40 \
    --host-threads 4 --output build/obs_smoke.clusters \
    --trace-out build/obs_trace.json --metrics-out build/obs_metrics.json \
    && python3 tools/obs/check_obs_json.py build/obs_trace.json \
         build/obs_metrics.json
}
run_step "obs-smoke" obs_smoke

# Serving-mode smoke: replay a seeded demo mutation stream through the
# long-lived ClusterService, then validate the serve.* metric series
# (epoch counter, live-set gauges, epoch/query latency histograms).
serve_smoke() {
  ./build/examples/mrscan_cli --serve --serve-demo 300 \
    --serve-initial 2000 --serve-epoch-every 50 --eps 0.05 --minpts 5 \
    --host-threads 4 --output build/serve_smoke.clusters \
    --metrics-out build/serve_metrics.json \
    && python3 tools/obs/check_obs_json.py --serve build/serve_metrics.json
}
run_step "serve-smoke" serve_smoke

# Out-of-core smoke: the streamed run must produce byte-identical cluster
# output to the resident reference and a valid ooc.* metrics snapshot;
# then a kill/resume cycle — the aborted run exits 3 right after a
# checkpoint, its segment files are deleted, and the resumed run restores
# the finished leaves and still matches the reference (DESIGN §15).
ooc_smoke() {
  local dir=build/ooc_smoke
  rm -rf "$dir" && mkdir -p "$dir" || return 1
  ./build/examples/mrscan_cli --demo 4000 --eps 0.1 --minpts 20 \
    --leaves 8 --host-threads 4 \
    --output "$dir/resident.clusters" >/dev/null || return 1
  ./build/examples/mrscan_cli --demo 4000 --eps 0.1 --minpts 20 \
    --leaves 8 --host-threads 4 --ooc-dir "$dir/spool" --working-set 2 \
    --output "$dir/ooc.clusters" \
    --metrics-out "$dir/ooc_metrics.json" >/dev/null || return 1
  python3 tools/obs/check_obs_json.py --ooc "$dir/ooc_metrics.json" \
    || return 1
  cmp "$dir/resident.clusters" "$dir/ooc.clusters" || return 1
  local rc=0
  ./build/examples/mrscan_cli --demo 4000 --eps 0.1 --minpts 20 \
    --leaves 8 --host-threads 4 --ooc-dir "$dir/spool2" --working-set 2 \
    --ooc-abort-after 3 --output "$dir/aborted.clusters" \
    >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 3 ]]; then
    echo "ooc-smoke: expected abort exit code 3, got $rc" >&2
    return 1
  fi
  # Segment files are scratch: the resume rewrites every one of them.
  local segs=("$dir"/spool2/seg_*.seg)
  if [[ ! -e "${segs[0]}" ]]; then
    echo "ooc-smoke: the aborted run left no segment files" >&2
    return 1
  fi
  rm -- "${segs[@]}" || return 1
  # A label spill is a plain write that its checkpoint entry's digest
  # vouches for: one that changed on disk at the same size (here, leaf
  # 0's first clustered label set to noise) must be re-clustered.
  python3 - "$dir/spool2/labels_0.lbl" <<'EOF' || return 1
import struct, sys
path = sys.argv[1]
labels = bytearray(open(path, "rb").read())
for at in range(0, len(labels) - 7, 8):
    if struct.unpack_from("<q", labels, at)[0] >= 0:
        struct.pack_into("<q", labels, at, -1)
        open(path, "wb").write(labels)
        sys.exit(0)
sys.exit("ooc-smoke: labels_0.lbl holds no clustered label")
EOF
  ./build/examples/mrscan_cli --demo 4000 --eps 0.1 --minpts 20 \
    --leaves 8 --host-threads 4 --ooc-dir "$dir/spool2" --working-set 2 \
    --resume --output "$dir/resumed.clusters" >/dev/null || return 1
  cmp "$dir/resident.clusters" "$dir/resumed.clusters"
}
run_step "ooc-smoke" ooc_smoke

# Bench smoke: the micro benches must run, export BENCH_*.json metric
# files, and those files must validate. Tiny min_time / fixture sizes.
# (--benchmark_min_time takes a plain double with this google-benchmark
# version, not "0.05s".) Each validated snapshot is then compared with
# the committed BENCH_*.json of the same name: counters and deterministic
# gauges must match exactly and no metric may disappear; timing gauges
# are printed only. `python3 tools/bench/compare.py --record FILE...`
# rewrites the committed snapshots after an intended change. The
# exception is BENCH_ooc_scale.json, whose committed copy carries the
# full 8,192-leaf numbers from a dedicated bench_ooc run; the smoke only
# validates that a tiny run still exports a clean file.
bench_smoke() {
  local dir=build/bench_metrics
  rm -rf "$dir" && mkdir -p "$dir" \
    && env MRSCAN_BENCH_METRICS_DIR="$dir" \
         ./build/bench/bench_micro_index \
         --benchmark_filter='BM_(KDTree|BVH|GridBuild)' --benchmark_min_time=0.05 \
    && env MRSCAN_BENCH_METRICS_DIR="$dir" MRSCAN_BENCH_MICRO_POINTS=20000 \
         ./build/bench/bench_micro_pipeline \
         --benchmark_filter='BM_(WriteLabeledText|ClusterPhase(HostThreads|CellGraph)/1)' \
         --benchmark_min_time=0.05 \
    && env MRSCAN_BENCH_METRICS_DIR="$dir" MRSCAN_BENCH_SERVE_INITIAL=4000 \
         MRSCAN_BENCH_SERVE_MUTATIONS=64 \
         ./build/bench/bench_serve \
         --benchmark_filter='BM_Serve(Epoch/(8|64)$|Live/)' \
         --benchmark_min_time=0.05 \
    && env MRSCAN_BENCH_METRICS_DIR="$dir" MRSCAN_BENCH_OOC_LEAVES=16 \
         MRSCAN_BENCH_OOC_POINTS_PER_LEAF=100 MRSCAN_BENCH_OOC_FAT_LEAVES=8 \
         MRSCAN_BENCH_OOC_FAT_POINTS_PER_LEAF=500 \
         ./build/bench/bench_ooc \
    && python3 tools/obs/check_obs_json.py --bench "$dir"/BENCH_*.json \
    && rm "$dir"/BENCH_ooc_scale.json \
    && python3 tools/bench/compare.py "$dir"/BENCH_*.json
}
run_step "bench-smoke" bench_smoke

# Coverage gate: instrumented build + full suite, then the line-coverage
# check over every module under src/. Composes with --quick (the CI
# coverage job runs `--quick --coverage`).
if [[ "$COVERAGE" -eq 1 ]]; then
  run_preset coverage
  run_step "coverage-gate" python3 tools/coverage/check_coverage.py \
    --build-dir build-coverage --threshold 80 \
    --summary build-coverage/coverage_summary.json
fi

# End-to-end smoke: short benchmark runs at the seed whose reference is
# recorded; a "correct": false result means the output bytes, the
# clustering, the serve snapshot or sim_s moved (e2ebench/README.md).
e2e_smoke() {
  local workload result
  for workload in twitter-16L sdss-256L-ooc serve-twitter-100k; do
    result=$(python3 e2ebench/run.py --workload "$workload" --seed 1 \
               --seconds 1 | tail -n 1) || return 1
    python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
      "$result" || { echo "e2e-smoke: $workload: $result" >&2; return 1; }
  done
}

if [[ "$QUICK" -eq 0 ]]; then
  run_step "e2e-smoke" e2e_smoke
  run_step "configure:release" cmake --preset release
  run_step "build:release" cmake --build --preset release -j "$JOBS"
  run_preset asan-ubsan
  run_preset tsan

  if command -v clang-tidy >/dev/null 2>&1; then
    run_step "configure:tidy" cmake --preset tidy
    run_step "build:tidy" cmake --build --preset tidy -j "$JOBS"
  else
    bold "tidy"
    echo "-- clang-tidy not installed; skipping the tidy preset" \
         "(install clang-tidy to enable)"
  fi
fi

bold "summary"
if [[ "${#FAILURES[@]}" -gt 0 ]]; then
  echo "check.sh: FAILED steps: ${FAILURES[*]}" >&2
  exit 1
fi
echo "check.sh: all steps passed"
