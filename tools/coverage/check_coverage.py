#!/usr/bin/env python3
"""Line-coverage gate over the gcov JSON output (no gcovr dependency).

Usage:
    check_coverage.py --build-dir build-coverage \
        [--threshold 80] [--summary out.json] [--path src/gpu ...]

By default every module directory under src/ is gated, so a new module
is gated from its first commit.

Walks the build tree for .gcda files (produced by a test run of a
--coverage build), batches them through `gcov --json-format --stdout`,
merges per-source-line execution counts across all object files, and
computes line coverage for each gated path prefix (repo-relative).
Writes a machine-readable summary and exits non-zero when any gated
prefix is below the threshold — the CI coverage job's failure signal.

Counts merge by max across translation units: a line is covered when any
TU executed it (the same convention gcovr uses).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys


def module_paths(repo_root: pathlib.Path) -> tuple[str, ...]:
    """Every module directory under src/, repo-relative."""
    return tuple(f"src/{d.name}" for d in sorted((repo_root / "src").iterdir())
                 if d.is_dir())


def run_gcov(gcda: list[pathlib.Path], build_dir: pathlib.Path) -> list[dict]:
    """gcov a batch of .gcda files, returning the parsed JSON reports."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout"] + [str(p) for p in gcda],
        cwd=build_dir, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"gcov failed with exit code {out.returncode}")
    reports = []
    for line in out.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return reports


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build-coverage",
                    type=pathlib.Path)
    ap.add_argument("--repo-root", default=pathlib.Path(__file__).
                    resolve().parents[2], type=pathlib.Path)
    ap.add_argument("--threshold", default=80.0, type=float,
                    help="minimum line coverage percent per gated path")
    ap.add_argument("--summary", type=pathlib.Path,
                    help="write a JSON summary here")
    ap.add_argument("--path", action="append", dest="paths",
                    help="repo-relative prefix to gate (repeatable; "
                         "default: every src/<module>/ directory)")
    args = ap.parse_args()
    repo_root = args.repo_root.resolve()
    paths = tuple(args.paths) if args.paths else module_paths(repo_root)
    build_dir = args.build_dir.resolve()

    gcda = sorted(build_dir.rglob("*.gcda"))
    if not gcda:
        sys.stderr.write(
            f"no .gcda files under {build_dir}; configure with the "
            "'coverage' preset and run ctest first\n")
        return 2

    # line hits per source file: {repo-relative path: {line: max count}}
    hits: dict[str, dict[int, int]] = {}
    batch = 64  # keep the gcov command line bounded
    for i in range(0, len(gcda), batch):
        for report in run_gcov(gcda[i:i + batch], build_dir):
            for f in report.get("files", []):
                src = pathlib.Path(f.get("file", ""))
                if not src.is_absolute():
                    src = (build_dir / src).resolve()
                try:
                    rel = str(src.resolve().relative_to(repo_root))
                except ValueError:
                    continue  # system / third-party header
                lines = hits.setdefault(rel, {})
                for ln in f.get("lines", []):
                    n = ln.get("line_number")
                    if n is None:
                        continue
                    lines[n] = max(lines.get(n, 0), ln.get("count", 0))

    summary = {"threshold": args.threshold, "paths": {}, "files": {}}
    failed = []
    for prefix in paths:
        total = covered = 0
        for rel, lines in sorted(hits.items()):
            if not rel.startswith(prefix.rstrip("/") + "/"):
                continue
            file_total = len(lines)
            file_covered = sum(1 for c in lines.values() if c > 0)
            total += file_total
            covered += file_covered
            pct = 100.0 * file_covered / file_total if file_total else 100.0
            summary["files"][rel] = {
                "lines": file_total, "covered": file_covered,
                "percent": round(pct, 2)}
        pct = 100.0 * covered / total if total else 0.0
        summary["paths"][prefix] = {
            "lines": total, "covered": covered, "percent": round(pct, 2)}
        status = "OK" if total and pct >= args.threshold else "FAIL"
        print(f"{status:4} {prefix:<16} {covered}/{total} lines "
              f"({pct:.2f}%, threshold {args.threshold:.0f}%)")
        if status == "FAIL":
            failed.append(prefix)

    if args.summary:
        args.summary.parent.mkdir(parents=True, exist_ok=True)
        args.summary.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"summary: {args.summary}")

    if failed:
        sys.stderr.write(
            "coverage below threshold for: " + ", ".join(failed) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
