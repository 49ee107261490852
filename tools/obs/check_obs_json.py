#!/usr/bin/env python3
"""check_obs_json — schema validation for the obs subsystem's exports.

Validates the two JSON artifacts a traced pipeline run produces:

  * the Chrome trace-event file (--trace-out): a {"traceEvents": [...]}
    document loadable by chrome://tracing and Perfetto, with "X" complete
    events for every span and "M" metadata events naming the two clock
    domains; all four pipeline phases (partition, cluster, merge, sweep)
    must appear as "phase:*" spans;
  * the metrics snapshot (--metrics-out): schema "mrscan-metrics-v1",
    name-sorted unique metrics of kind counter / gauge / histogram,
    including the sim.* phase gauges, the wall.* phase gauges, and the
    always-present fault.* counters.

A third mode validates bench metric exports (the BENCH_*.json files the
benches write under MRSCAN_BENCH_METRICS_DIR): the same metrics schema,
but instead of the pipeline's sim.*/fault.* sets each file must carry at
least one "bench.*" metric (micro benches export registries with no
pipeline run behind them).

A fourth mode validates a serving-mode snapshot (mrscan_cli --serve
--metrics-out): the same metrics schema, with the serve.* series the
ClusterService maintains — the serve.epochs counter, the serve.points /
serve.clusters gauges, and the serve.epoch.seconds / serve.query.seconds
latency histograms.

A fifth mode validates an out-of-core run's snapshot (mrscan_cli
--ooc-dir --metrics-out): everything the pipeline mode requires (an OOC
run still executes all four phases) plus the ooc.* counters (chunks,
leaves_clustered, leaves_restored, checkpoint_writes, checkpoint_bytes,
mapped_bytes, output_records) and the ooc.working_set gauge.

Usage:
  check_obs_json.py TRACE_JSON METRICS_JSON
  check_obs_json.py --bench BENCH_JSON [BENCH_JSON ...]
  check_obs_json.py --serve METRICS_JSON [METRICS_JSON ...]
  check_obs_json.py --ooc METRICS_JSON [METRICS_JSON ...]

Exit status is 0 when every file validates, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

PHASES = ("partition", "cluster", "merge", "sweep")
REQUIRED_GAUGES = tuple(f"sim.{n}" for n in (
    "startup", "partition", "cluster_merge", "sweep", "total")) + tuple(
    f"wall.{p}" for p in PHASES)
REQUIRED_COUNTERS = tuple(f"fault.{n}" for n in (
    "leaves_recovered", "packets_dropped", "retries", "timeouts"))
SERVE_COUNTERS = ("serve.epochs",)
SERVE_GAUGES = ("serve.points", "serve.clusters")
SERVE_HISTOGRAMS = ("serve.epoch.seconds", "serve.query.seconds")
OOC_COUNTERS = tuple(f"ooc.{n}" for n in (
    "chunks", "leaves_clustered", "leaves_restored", "checkpoint_writes",
    "checkpoint_bytes", "mapped_bytes", "output_records"))
OOC_GAUGES = ("ooc.working_set",)
VALID_KINDS = ("counter", "gauge", "histogram")

ERRORS: list[str] = []


def err(message: str) -> None:
    ERRORS.append(message)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        err(f"{path}: not a trace-event document (no traceEvents)")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list):
        err(f"{path}: traceEvents is not a list")
        return

    metadata_pids = set()
    span_names = set()
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            err(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            metadata_pids.add(ev.get("pid"))
            continue
        if ph != "X":
            err(f"{where}: ph must be 'X' or 'M', got {ph!r}")
            continue
        for key in ("name", "cat", "pid", "tid", "ts", "dur"):
            if key not in ev:
                err(f"{where}: complete event missing {key!r}")
        if ev.get("pid") not in (0, 1):
            err(f"{where}: pid must be 0 (wall) or 1 (sim)")
        if not is_number(ev.get("ts")) or not is_number(ev.get("dur")):
            err(f"{where}: ts/dur must be numbers")
        elif ev["ts"] < 0 or ev["dur"] < 0:
            err(f"{where}: negative ts/dur")
        span_names.add(ev.get("name"))

    for pid in (0, 1):
        if pid not in metadata_pids:
            err(f"{path}: missing process_name metadata for pid {pid}")
    for phase in PHASES:
        if f"phase:{phase}" not in span_names:
            err(f"{path}: no 'phase:{phase}' span — a traced pipeline run "
                f"must cover all four phases")


def check_metrics(path: str, mode: str = "pipeline") -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("schema") != "mrscan-metrics-v1":
        err(f"{path}: schema must be 'mrscan-metrics-v1'")
        return
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        err(f"{path}: metrics is not a list")
        return

    names = []
    kinds = {}
    for i, m in enumerate(metrics):
        where = f"{path}: metrics[{i}]"
        if not isinstance(m, dict):
            err(f"{where}: not an object")
            continue
        name, kind = m.get("name"), m.get("kind")
        if not isinstance(name, str) or not name:
            err(f"{where}: missing name")
            continue
        names.append(name)
        kinds[name] = kind
        if kind not in VALID_KINDS:
            err(f"{where} ({name}): kind must be one of {VALID_KINDS}")
            continue
        if kind == "counter":
            if not isinstance(m.get("value"), int) or m["value"] < 0:
                err(f"{where} ({name}): counter value must be a "
                    f"non-negative integer")
        elif kind == "gauge":
            if not is_number(m.get("value")):
                err(f"{where} ({name}): gauge value must be a number")
        else:  # histogram
            for key in ("count", "sum", "min", "max"):
                if not is_number(m.get(key)):
                    err(f"{where} ({name}): histogram missing numeric "
                        f"{key!r}")

    if names != sorted(names):
        err(f"{path}: metrics are not sorted by name")
    if len(names) != len(set(names)):
        err(f"{path}: duplicate metric names")
    if mode == "bench":
        if not any(name.startswith("bench.") for name in names):
            err(f"{path}: bench export carries no 'bench.*' metric")
        return
    if mode == "serve":
        for name, kind in (
                [(n, "counter") for n in SERVE_COUNTERS]
                + [(n, "gauge") for n in SERVE_GAUGES]
                + [(n, "histogram") for n in SERVE_HISTOGRAMS]):
            if kinds.get(name) != kind:
                err(f"{path}: required serve {kind} {name!r} missing or "
                    f"wrong kind")
        return
    for name in REQUIRED_GAUGES:
        if kinds.get(name) != "gauge":
            err(f"{path}: required gauge {name!r} missing or wrong kind")
    for name in REQUIRED_COUNTERS:
        if kinds.get(name) != "counter":
            err(f"{path}: required counter {name!r} missing or wrong kind")
    if mode == "ooc":
        for name in OOC_COUNTERS:
            if kinds.get(name) != "counter":
                err(f"{path}: required ooc counter {name!r} missing or "
                    f"wrong kind")
        for name in OOC_GAUGES:
            if kinds.get(name) != "gauge":
                err(f"{path}: required ooc gauge {name!r} missing or "
                    f"wrong kind")


def usage() -> int:
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: check_obs_json.py TRACE_JSON METRICS_JSON\n"
          "       check_obs_json.py --bench BENCH_JSON [BENCH_JSON ...]\n"
          "       check_obs_json.py --serve METRICS_JSON [METRICS_JSON ...]\n"
          "       check_obs_json.py --ooc METRICS_JSON [METRICS_JSON ...]",
          file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("--bench", "--serve", "--ooc"):
        mode = argv[0][2:]
        paths = argv[1:]
        if not paths:
            return usage()
        checks = [(path, lambda p, m=mode: check_metrics(p, mode=m))
                  for path in paths]
    elif len(argv) == 2:
        checks = list(zip(argv, (check_trace, check_metrics)))
    else:
        return usage()
    for path, check in checks:
        try:
            check(path)
        except (OSError, json.JSONDecodeError) as e:
            err(f"{path}: {e}")
    for message in ERRORS:
        print(message)
    tag = "FAILED" if ERRORS else "OK"
    print(f"check_obs_json: {tag} — {len(ERRORS)} problem(s)")
    return 1 if ERRORS else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
