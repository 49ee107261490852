#!/usr/bin/env python3
"""End-to-end, layer-resolved benchmark of the Mr. Scan pipeline.

Run from the repository root:

    python3 e2ebench/run.py --workload twitter-16L --seed 1 --seconds 30 --trace 0

Builds the `e2ebench` binary from source (CMake, Release) under
.bench_build/e2ebench, looks up or computes the reference the run's output
must match, runs the workload and forwards the binary's output. The last
stdout line is the JSON result. See e2ebench/README.md.

    python3 e2ebench/run.py --record

re-records e2ebench/reference.json (the default seed's expected output)
after an intended change to the clustering output or the Titan model.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "e2ebench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
WORKLOADS = ["twitter-16L", "twitter-1024L", "sdss-256L-ooc",
             "serve-twitter-100k"]
# The whole invocation must end within 180 s; keep a margin for cleanup.
RUN_BUDGET_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build incrementally; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        sys.exit(1)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                sys.exit(1)


def parse_observed(text):
    """'k=v k=v' -> dict (the binary's reference/observed line format)."""
    out = {}
    for token in text.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def expectation(workload, seed, deadline):
    """Reference values the run must reproduce, as e2ebench flags."""
    if seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text())[workload]
    elif workload.startswith("serve"):
        # Serve checks itself against a cold batch run in-process.
        return []
    else:
        # Computed once per dataset and seed, untimed, then cached.
        cache = BUILD / "refs" / f"{workload.split('-')[0]}-{seed}.txt"
        if not cache.is_file():
            proc = subprocess.run(
                [str(BINARY), "reference", "--workload", workload,
                 "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                log("reference run failed")
                sys.exit(1)
            cache.parent.mkdir(parents=True, exist_ok=True)
            cache.write_text(proc.stdout)
        ref = parse_observed(cache.read_text())
    flags = []
    for key in ("canonical", "raw", "clusters", "records"):
        if key in ref:
            flags += [f"--expect-{key}", str(ref[key])]
    if "sim_s" in ref:
        flags += ["--expect-sim", str(ref["sim_s"])]
    return flags


def run_bench(args, deadline, check=True):
    """Run one workload; return (exit code, stdout). With check=False the
    run gets no reference (used to record one)."""
    work = ROOT / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if check:
        cmd += expectation(args.workload, args.seed, deadline)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded its time budget")
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def record():
    """Re-record reference.json from one short run per workload."""
    reference = {}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED,
                                  seconds=4, trace=0)
        code, stdout = run_bench(args, time.monotonic() + RUN_BUDGET_S,
                                  check=False)
        observed = [line for line in stdout.splitlines()
                    if line.startswith("observed:")]
        if code != 0 or not observed:
            log(f"{workload}: recording run failed")
            return 1
        ref = parse_observed(observed[0][len("observed:"):])
        reference[workload] = {
            key: (int(value) if key in ("clusters", "records") else
                  float(value) if key == "sim_s" else value)
            for key, value in ref.items()}
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json and exit")
    args = parser.parse_args()
    start = time.monotonic()
    build()
    # A first run that had to compile gets its run budget after the build.
    deadline = max(start + RUN_BUDGET_S, time.monotonic() + 150)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        if args.workload == "all":
            print(f"== {name}", flush=True)
            deadline = time.monotonic() + RUN_BUDGET_S
        one = argparse.Namespace(**{**vars(args), "workload": name})
        status, stdout = run_bench(one, deadline)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        code = code or status
    return code


if __name__ == "__main__":
    sys.exit(main())
