"""Layering family: the module DAG and include-cycle rejection.

The allowed dependency table below IS the architecture (documented in
DESIGN §11): an edge `A -> B` means "a file in src/A/ may include a
header from src/B/". geometry and util are the floor and include
nothing above themselves; core is the apex and the only module allowed
to tie mrnet, gpu and merge together. Adding a module or an edge is a
deliberate act: extend this table and DESIGN §11 in the same commit.

Checked from the include graph (compile_commands.json-seeded when the
build exported one, scanning src/ otherwise) rather than from text, so
transitively-reachable headers are covered too.
"""

from __future__ import annotations

from ..findings import Finding
from ..includes import IncludeGraph, module_of

# module -> modules it may include (itself is always allowed).
ALLOWED_DEPS: dict[str, tuple[str, ...]] = {
    "util": (),
    "geometry": (),
    "obs": ("util",),
    "cluster": ("geometry", "util"),
    "index": ("geometry", "util"),
    "io": ("geometry", "util"),
    "data": ("geometry", "index", "util"),
    "dbscan": ("cluster", "geometry", "index", "util"),
    "gpu": ("cluster", "dbscan", "geometry", "index", "util"),
    "sim": ("gpu", "util"),
    # fault -> io: checkpoint manifests are written through the checked
    # atomic-write helpers (fault/checkpoint.cpp, DESIGN §15).
    "fault": ("io", "sim", "util"),
    "mrnet": ("fault", "obs", "sim", "util"),
    # merge -> index: the leaf summary walks the leaf's points by cell
    # through index::Grid, the one immutable point-by-cell index.
    "merge": ("cluster", "dbscan", "geometry", "index", "mrnet", "util"),
    # sweep -> io: the labeled text writer fails through io::fail, which
    # adds strerror(errno) context to every file failure (DESIGN §15).
    "sweep": ("dbscan", "geometry", "io", "merge", "util"),
    "quality": ("dbscan", "geometry", "sweep", "util"),
    "partition": ("geometry", "index", "io", "mrnet", "obs", "sim",
                  "util"),
    "core": ("cluster", "data", "dbscan", "fault", "geometry", "gpu",
             "index", "io", "merge", "mrnet", "obs", "partition",
             "quality", "sim", "sweep", "util"),
    # The serving layer reuses the batch pipeline's cell-graph machinery
    # (cluster) but never the pipeline driver itself; nothing below ever
    # includes serve.
    "serve": ("cluster", "dbscan", "fault", "geometry", "obs", "sim",
              "util"),
}

# Only this module may depend on all three of mrnet, gpu and merge —
# the paper's tree network, device kernels, and reduction logic meet
# only at the pipeline driver.
_APEX_ONLY = frozenset(("mrnet", "gpu", "merge"))
_APEX_MODULE = "core"


def check_layering(graph: IncludeGraph) -> list[Finding]:
    findings: list[Finding] = []
    module_edges: dict[str, set[str]] = {}

    for edge in graph.edges:
        src_mod = module_of(edge.source)
        dst_mod = module_of(edge.target)
        if src_mod is None or dst_mod is None or src_mod == dst_mod:
            continue
        module_edges.setdefault(src_mod, set()).add(dst_mod)
        if src_mod not in ALLOWED_DEPS:
            findings.append(Finding(
                rule="layer-dag", file=edge.source, line=edge.line,
                message=f"module '{src_mod}' is not in the dependency "
                        "table; register it in "
                        "tools/analyze/mrscan_analyze/rules/layering.py "
                        "and DESIGN §11",
                snippet=f'#include "{edge.spelling}"'))
            continue
        if dst_mod not in ALLOWED_DEPS.get(src_mod, ()):
            findings.append(Finding(
                rule="layer-dag", file=edge.source, line=edge.line,
                message=f"include edge {src_mod} -> {dst_mod} violates "
                        "the module DAG (DESIGN §11); depend downward "
                        "or move the shared code below both modules",
                snippet=f'#include "{edge.spelling}"'))

    for mod, deps in sorted(module_edges.items()):
        if mod != _APEX_MODULE and _APEX_ONLY <= deps:
            findings.append(Finding(
                rule="layer-dag", file=f"src/{mod}", line=1,
                message=f"module '{mod}' includes all of mrnet+gpu+merge; "
                        f"only '{_APEX_MODULE}' may tie the tree network, "
                        "device kernels and reduction together "
                        "(DESIGN §11)",
                snippet=""))

    for cycle in graph.find_cycles():
        findings.append(Finding(
            rule="include-cycle", file=cycle[0], line=1,
            message="include cycle: " + " -> ".join(cycle + [cycle[0]]),
            snippet=""))
    return findings
