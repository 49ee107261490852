"""Hygiene rules folded in from tools/lint/mrscan_lint.py.

Same semantics as the old lint, now running on the lexer's stripped
view (so raw strings are handled) with the analyzer's unified
suppression machinery layered on top by the engine.
"""

from __future__ import annotations

import re

from ..context import FileContext

# Directories whose .cpp files are public pipeline entry points and must
# validate their inputs.
REQUIRE_DIRS = ("partition", "dbscan", "gpu", "mrnet", "sweep")

PRINTF_EXEMPT = re.compile(r"util/(assert|audit)\.hpp$")

RAW_RAND = re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\(")
NAKED_NEW = re.compile(r"(?<![\w.])new\b(?!\s*\()")
NAKED_DELETE = re.compile(r"(?<![\w.])delete\b(?!\s*;| *\))")
EQUALS_DELETE = re.compile(r"=\s*delete\b")
PRINTF_FAMILY = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?"
    r"(v?f?printf|sprintf|snprintf|puts|fputs|putchar|fputc)\s*\(")
MANUAL_LOCK = re.compile(r"[\w\])]\s*(?:\.|->)\s*(?:un)?lock\s*\(\s*\)")
# RAII wrappers expose .lock()/.unlock() too (e.g. unique_lock around a
# condition-variable wait); those are deliberate and named accordingly.
RAII_LOCK_VAR = re.compile(r"\b(?:lk|lock|guard)\s*(?:\.|->)\s*(?:un)?lock\b")

PHASE_DIRS = ("core", "partition", "merge", "sweep")
SEQUENTIAL_SEGMENT_LOOP = re.compile(
    r"(?<![\w.])for\s*\([^)]*\bsegments\.size\s*\(\)")

CLOCK_EXEMPT_DIRS = ("util", "obs")
RAW_CHRONO = re.compile(r"\bstd\s*::\s*chrono\b")

# Raw OS file access belongs in src/io/ (checked_file and friends), where
# every failure path carries errno context. The lookbehind rejects member
# calls (stream.open / file->open) and identifier suffixes (reopen).
RAW_IO_EXEMPT_PREFIX = "src/io/"
RAW_IO = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*)?"
    r"(?:fopen|fdopen|freopen|open|openat|creat|mmap|munmap|"
    r"fread|fwrite|pread|pwrite)\s*\(")

RAND_EXEMPT_DIRS = ("src/util/rng.hpp", "src/util/rng.cpp")
RANDOM_DEVICE = re.compile(r"\bstd\s*::\s*random_device\b")
# Default-constructed standard engines: seeded from an unspecified state.
ARGLESS_ENGINE = re.compile(
    r"\bstd\s*::\s*(mt19937(_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(24|48)(_base)?|knuth_b)\b\s*\w+\s*(;|\{\s*\}|\(\s*\))")


def _in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(f"/{d}/" in f"/{rel}" for d in dirs)


def check_hygiene(ctx: FileContext) -> None:
    rel = ctx.rel
    is_src = ctx.root_kind == "src"
    for lineno in range(1, len(ctx.stripped)):
        line = ctx.stripped[lineno]
        if not line:
            continue
        if is_src and NAKED_NEW.search(line):
            ctx.report(lineno, "no-naked-new",
                       "naked new expression; use containers or make_unique")
        if is_src and NAKED_DELETE.search(EQUALS_DELETE.sub("", line)):
            ctx.report(lineno, "no-naked-new",
                       "naked delete expression; use owning types instead")
        if (is_src and not PRINTF_EXEMPT.search(rel)
                and PRINTF_FAMILY.search(line)):
            ctx.report(lineno, "no-printf-library",
                       "printf-family call in library code; report through "
                       "exceptions")
        if is_src:
            m = MANUAL_LOCK.search(line)
            if m and not RAII_LOCK_VAR.search(line):
                ctx.report(lineno, "no-manual-lock",
                           "manual mutex lock/unlock; use std::lock_guard "
                           "or std::unique_lock")
        if (is_src and _in_dirs(rel, PHASE_DIRS)
                and SEQUENTIAL_SEGMENT_LOOP.search(line)):
            ctx.report(lineno, "pool-phase-loops",
                       "sequential per-segment loop in phase code; use "
                       "util::ThreadPool::parallel_for or annotate with "
                       "// pool-phase-loops-ok: <reason>")
        if (is_src and not _in_dirs(rel, CLOCK_EXEMPT_DIRS)
                and RAW_CHRONO.search(line)):
            ctx.report(lineno, "no-raw-clock",
                       "raw std::chrono in library code; use util::Timer / "
                       "the obs tracer, or annotate with "
                       "// no-raw-clock-ok: <reason>")

    if (is_src and ctx.path.suffix == ".cpp" and _in_dirs(rel, REQUIRE_DIRS)):
        body = "\n".join(ctx.stripped)
        if not re.search(r"\bMRSCAN_REQUIRE(_MSG)?\s*\(", body):
            ctx.report(1, "require-validation",
                       "pipeline entry points must validate inputs with "
                       "MRSCAN_REQUIRE (or carry a require-validation-ok-"
                       "file suppression explaining why there is nothing "
                       "to validate)")


def check_raw_io(ctx: FileContext) -> None:
    """raw-io (hygiene family): raw open/fopen/mmap & co. outside src/io/.
    The checked io helpers (io::fail, read_file_bytes, write_file_atomic,
    MappedSegment) wrap every OS call with errno context and RAII cleanup;
    callers elsewhere go through them so failures never surface as bare
    return codes."""
    if ctx.rel.startswith(RAW_IO_EXEMPT_PREFIX):
        return
    for lineno in range(1, len(ctx.stripped)):
        line = ctx.stripped[lineno]
        if not line:
            continue
        if RAW_IO.search(line):
            ctx.report(lineno, "raw-io",
                       "raw OS file call outside src/io/; route file access "
                       "through the checked io helpers so every failure "
                       "carries errno context")


def check_raw_rand(ctx: FileContext) -> None:
    """no-raw-rand (determinism family): the C generator, plus the new
    std::random_device / argless-engine forms (nondeterministic or
    unspecified seeding). util/rng owns the one blessed generator;
    src/data is the designated place for seeded data synthesis."""
    rel = ctx.rel
    if rel in RAND_EXEMPT_DIRS or rel.startswith("src/data/"):
        return
    for lineno in range(1, len(ctx.stripped)):
        line = ctx.stripped[lineno]
        if not line:
            continue
        if RAW_RAND.search(line):
            ctx.report(lineno, "no-raw-rand",
                       "use mrscan::util::Rng instead of the C generator")
        if RANDOM_DEVICE.search(line):
            ctx.report(lineno, "no-raw-rand",
                       "std::random_device is nondeterministic; runs must "
                       "reproduce from a seed (util::Rng)")
        if ARGLESS_ENGINE.search(line):
            ctx.report(lineno, "no-raw-rand",
                       "default-seeded standard engine; seed explicitly "
                       "via util::Rng so the run reproduces")
