#!/usr/bin/env python3
"""Check fresh bench snapshots against the committed BENCH_*.json files.

Usage:
  compare.py [--record] FRESH_JSON [FRESH_JSON ...]

Each FRESH_JSON (a mrscan-metrics-v1 snapshot a bench wrote under
MRSCAN_BENCH_METRICS_DIR) is compared with the committed snapshot of the
same file name at the repository root.

  * Every counter must match exactly.
  * Every deterministic gauge must match exactly: sim.*, net.*,
    partition.*_seconds, fault.recovery_seconds, gpu.device_seconds_max,
    and the serve bench's live_points, recluster_points_per_epoch and
    live*.epochs gauges. These come from the Titan cost model and the
    clustering itself, not from the host clock.
  * Timing gauges (wall.*, bench.cluster_phase_s, bench.micro_index.*,
    *.epoch_ms, bench.serve.batch*.epochs) are printed, not gated: they
    move with the host.
  * No committed metric may disappear, and no gauge may be left
    unclassified. A metric that only the fresh snapshot has is reported;
    it is gated once it is recorded.

--record rewrites the committed snapshots with the fresh ones instead of
comparing. Exit status: 0 when everything matches (or was recorded), 1 on
any mismatch, 2 on bad usage.
"""

from __future__ import annotations

import fnmatch
import json
import os
import shutil
import sys

DETERMINISTIC_GAUGES = (
    "sim.*",
    "net.*",
    "partition.*_seconds",
    "fault.recovery_seconds",
    "gpu.device_seconds_max",
    "bench.serve.*.live_points",
    "bench.serve.*.recluster_points_per_epoch",
    "bench.serve.live*.epochs",
)

TIMING_GAUGES = (
    "wall.*",
    "bench.cluster_phase_s",
    "bench.micro_index.*",
    "*.epoch_ms",
    "bench.serve.batch*.epochs",
)


def matches(name: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def load(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "mrscan-metrics-v1":
        raise ValueError(f"{path}: not a mrscan-metrics-v1 snapshot")
    return {m["name"]: m for m in doc["metrics"]}


def gated(metric: dict) -> bool | None:
    """True: must match exactly. False: timing, printed only.
    None: a gauge neither list classifies."""
    if metric["kind"] == "counter":
        return True
    if matches(metric["name"], TIMING_GAUGES):
        return False
    if metric["kind"] == "gauge" and matches(metric["name"],
                                             DETERMINISTIC_GAUGES):
        return True
    return None


def compare(fresh_path: str, committed_path: str) -> int:
    """Print the comparison of one snapshot; return its failure count."""
    fresh = load(fresh_path)
    committed = load(committed_path)
    name = os.path.basename(fresh_path)
    failures = 0
    exact = 0
    for metric_name in sorted(committed.keys() | fresh.keys()):
        old = committed.get(metric_name)
        new = fresh.get(metric_name)
        if new is None:
            print(f"  FAIL  {metric_name}: missing from the fresh snapshot")
            failures += 1
            continue
        if old is None:
            print(f"  new   {metric_name} = {new.get('value')} "
                  "(not gated until recorded)")
            continue
        rule = gated(old)
        if rule is None:
            print(f"  FAIL  {metric_name}: {old['kind']} is neither a "
                  "deterministic nor a timing metric; classify it here")
            failures += 1
        elif old["kind"] != new["kind"]:
            print(f"  FAIL  {metric_name}: kind {old['kind']} -> "
                  f"{new['kind']}")
            failures += 1
        elif not rule:
            print(f"  time  {metric_name}: {old.get('value')} -> "
                  f"{new.get('value')}")
        elif old.get("value") != new.get("value"):
            print(f"  FAIL  {metric_name}: {old.get('value')} -> "
                  f"{new.get('value')}")
            failures += 1
        else:
            exact += 1
    status = "OK" if failures == 0 else f"{failures} FAILED"
    print(f"{name}: {exact} exact matches, {status}")
    return failures


def main(argv: list[str]) -> int:
    committed_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "..", "..")
    record = "--record" in argv
    fresh_paths = [arg for arg in argv if arg != "--record"]
    if not fresh_paths or any(arg.startswith("-") for arg in fresh_paths):
        print(__doc__, file=sys.stderr)
        return 2

    failures = 0
    for fresh_path in fresh_paths:
        committed_path = os.path.join(committed_dir,
                                      os.path.basename(fresh_path))
        if record:
            load(fresh_path)  # never record a file that is not a snapshot
            shutil.copyfile(fresh_path, committed_path)
            print(f"recorded {os.path.basename(fresh_path)}")
            continue
        if not os.path.exists(committed_path):
            print(f"FAIL {os.path.basename(fresh_path)}: no committed "
                  "snapshot (run with --record to add it)")
            failures += 1
            continue
        failures += compare(fresh_path, committed_path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
