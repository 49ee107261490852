"""Rule registry for mrscan_analyze.

Four families plus the hygiene rules folded in from the old
tools/lint/mrscan_lint.py. Every rule has a line suppression
`// <rule>-ok: <reason>` (same line or the line above) and a file
suppression `// <rule>-ok-file: <reason>`; the legacy spellings
`// sequential-ok:`, `// raw-clock-ok:` and
`// mrscan-lint: allow(<rule>)` / `allow-file(<rule>)` remain accepted
so PR-1..5 annotations keep working.
"""

from __future__ import annotations

# rule name -> (family, description, roots it applies to)
RULES: dict[str, tuple[str, str, tuple[str, ...]]] = {
    # -- determinism ------------------------------------------------------
    "det-unordered-iter": (
        "determinism",
        "iteration over std::unordered_{map,set} in pipeline code feeds "
        "output records / metric snapshots / merge ordering; iterate a "
        "sorted copy or annotate why the use is order-independent",
        ("src",)),
    "no-raw-rand": (
        "determinism",
        "rand()/srand, std::random_device, and argless PRNG seeding are "
        "banned outside util/rng and src/data: runs must reproduce from "
        "a seed",
        ("src", "tests", "bench", "examples")),
    "no-raw-clock": (
        "determinism",
        "std::chrono banned outside util/ and obs/; use util::Timer / the "
        "obs tracer so every measurement reaches the exporters",
        ("src",)),
    "pool-phase-loops": (
        "determinism",
        "sequential per-segment for loops in phase code must use "
        "util::ThreadPool::parallel_for or explain themselves",
        ("src",)),
    # -- concurrency ------------------------------------------------------
    "par-ref-capture": (
        "concurrency",
        "a lambda passed to ThreadPool::submit/parallel_for writes a "
        "by-reference-captured local that is not an own-index slot, an "
        "atomic, or lock-guarded ('write only your own index slot')",
        ("src", "tests", "bench", "examples")),
    "scratch-scope": (
        "concurrency",
        "an index::QueryScratch declared outside a pool task but used "
        "inside it would be shared across workers; each task owns its "
        "scratch (DESIGN §10)",
        ("src", "tests", "bench", "examples")),
    # -- accounting -------------------------------------------------------
    "metric-name-table": (
        "accounting",
        "obs metric name literals must come from the central table "
        "(src/obs/names.hpp); a typo'd literal silently creates a new "
        "series",
        ("src", "bench", "examples")),
    "sim-ops-charge": (
        "accounting",
        "Lustre/ALPS cost-model seconds are never discarded: every "
        "lustre_*_seconds / alps_startup_seconds return is accumulated",
        ("src", "bench", "examples", "tests")),
    # -- layering ---------------------------------------------------------
    "layer-dag": (
        "layering",
        "module includes must follow the DAG in DESIGN §11 (geometry/util "
        "include nothing above them; only core may tie mrnet+gpu+merge "
        "together)",
        ("src",)),
    "include-cycle": (
        "layering",
        "include cycles are rejected",
        ("src",)),
    # -- hygiene (folded from tools/lint/mrscan_lint.py) ------------------
    "require-validation": (
        "hygiene",
        "pipeline .cpp files (partition/dbscan/gpu/mrnet/sweep) must "
        "validate inputs with MRSCAN_REQUIRE at public entry points",
        ("src",)),
    "no-naked-new": (
        "hygiene",
        "no naked new/delete expressions; ownership lives in containers "
        "and smart pointers",
        ("src",)),
    "no-printf-library": (
        "hygiene",
        "printf family banned outside util/logging|assert; diagnostics "
        "flow through util::log_error or exceptions",
        ("src",)),
    "no-manual-lock": (
        "hygiene",
        "no manual mutex lock()/unlock(); use RAII guards",
        ("src",)),
    "raw-io": (
        "hygiene",
        "raw open/fopen/mmap & co. outside src/io/ — route file access "
        "through the checked io helpers so errors carry errno context",
        ("src", "bench", "examples")),
}

# Legacy suppression spellings (PR 3/PR 4 annotations) mapped to rules.
LEGACY_SUPPRESSION_ALIASES: dict[str, str] = {
    "sequential-ok": "pool-phase-loops",
    "raw-clock-ok": "no-raw-clock",
}


def rule_families() -> dict[str, list[str]]:
    fams: dict[str, list[str]] = {}
    for rule, (family, _desc, _roots) in RULES.items():
        fams.setdefault(family, []).append(rule)
    return fams
