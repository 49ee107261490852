"""Accounting family: metric names and sim-cost/ops pairing.

metric-name-table — every string literal handed to an obs::Registry /
obs::MetricsSnapshot name parameter must come from the central table
(src/obs/names.hpp). Today a typo'd name silently creates a brand-new
series the dashboards and MrScanResult readers never see; with the
table, the analyzer catches it. Dynamic names are built from declared
`…Prefix` entries (first literal in the argument must be a prefix),
and arguments spelled via `names::` constants pass by construction.

sim-ops-charge — the cost model only stays honest if every modelled
second is kept: the Lustre/ALPS second models' return values must never
be discarded (a dropped return is simulated time that vanishes from
every report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..context import FileContext
from ..lexer import IDENT, PUNCT, STRING, tokenize, match_paren

_REGISTRY_METHODS = frozenset((
    "add", "set", "set_max", "observe", "counter_value", "gauge_value"))
_SNAPSHOT_METHODS = frozenset(("counter", "gauge", "find"))
_RECEIVER_FALLBACK_NAMES = frozenset((
    "reg", "registry", "registry_", "snap", "snapshot", "snapshot_"))

_COST_MODEL_FNS = frozenset((
    "lustre_read_seconds", "lustre_write_seconds", "alps_startup_seconds"))


@dataclass
class MetricNameTable:
    exact: set[str] = field(default_factory=set)
    prefixes: set[str] = field(default_factory=set)
    source: str = ""

    @staticmethod
    def load(names_hpp: Path) -> "MetricNameTable | None":
        if not names_hpp.is_file():
            return None
        table = MetricNameTable(source=str(names_hpp))
        toks = [t for t in tokenize(
            names_hpp.read_text(encoding="utf-8", errors="replace"))
            if t.kind in (IDENT, PUNCT, STRING)]
        for i, t in enumerate(toks):
            # pattern: <ident k...> = "literal"
            if (t.kind == IDENT and t.text.startswith("k")
                    and i + 2 < len(toks)
                    and toks[i + 1].kind == PUNCT
                    and toks[i + 1].text == "="
                    and toks[i + 2].kind == STRING):
                value = toks[i + 2].text.strip('"')
                if t.text.endswith("Prefix") or value.endswith("."):
                    table.prefixes.add(value)
                else:
                    table.exact.add(value)
        return table


def _unquote(text: str) -> str:
    return text[1:-1] if len(text) >= 2 and text.startswith('"') else text


def _first_arg_range(code, open_paren: int) -> tuple[int, int]:
    """Token index range [start, end) of the first call argument."""
    close = match_paren(code, open_paren)
    depth = 0
    for k in range(open_paren + 1, close):
        t = code[k]
        if t.kind != PUNCT:
            continue
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "," and depth == 0:
            return open_paren + 1, k
    return open_paren + 1, close


def check_metric_names(ctx: FileContext, table: MetricNameTable) -> None:
    if ctx.rel.endswith("obs/names.hpp"):
        return  # the table itself
    code = ctx.code
    n = len(code)
    registry_vars = {d.name for d in ctx.declarations(
        lambda t: "Registry" in t)}
    snapshot_vars = {d.name for d in ctx.declarations(
        lambda t: "MetricsSnapshot" in t)}

    def receiver_kind(i: int) -> str | None:
        """Classify the receiver of the method call at code[i] ('.' or
        '->' precedes). Returns 'registry', 'snapshot', or None."""
        if i < 2:
            return None
        sep = code[i - 1]
        if sep.kind != PUNCT or sep.text not in (".", "->"):
            return None
        recv = code[i - 2]
        if recv.kind == PUNCT and recv.text == ")":
            # Chained call: ... metrics() . add / ... snapshot() . find
            k = i - 2
            depth = 0
            while k >= 0:
                t = code[k]
                if t.kind == PUNCT and t.text == ")":
                    depth += 1
                elif t.kind == PUNCT and t.text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k >= 1 and code[k - 1].kind == IDENT:
                chain = code[k - 1].text
                if chain == "metrics":
                    return "registry"
                if chain == "snapshot":
                    return "snapshot"
            return None
        if recv.kind != IDENT:
            return None
        if recv.text in registry_vars:
            return "registry"
        if recv.text in snapshot_vars:
            return "snapshot"
        if recv.text in _RECEIVER_FALLBACK_NAMES:
            # Heuristic for members declared in another TU (obs.cpp's
            # registry_); method-name filtering below keeps this tight.
            return "snapshot" if recv.text.startswith("snap") else "registry"
        return None

    for i, t in enumerate(code):
        if t.kind != IDENT:
            continue
        kind = receiver_kind(i)
        if kind is None:
            continue
        if kind == "registry" and t.text not in _REGISTRY_METHODS:
            continue
        if kind == "snapshot" and t.text not in _SNAPSHOT_METHODS:
            continue
        if i + 1 >= n or code[i + 1].kind != PUNCT \
                or code[i + 1].text != "(":
            continue
        start, end = _first_arg_range(code, i + 1)
        if start >= end:
            continue
        arg = code[start:end]
        # `names::`-qualified arguments are table-backed by construction.
        if any(arg[k].kind == IDENT and arg[k].text == "names"
               and k + 1 < len(arg) and arg[k + 1].kind == PUNCT
               and arg[k + 1].text == "::" for k in range(len(arg))):
            continue
        literals = [a for a in arg if a.kind == STRING]
        if not literals:
            continue  # fully dynamic; nothing checkable statically
        first = _unquote(literals[0].text)
        if len(arg) == 1:
            if first in table.exact:
                continue
            near = ""
            if any(first.startswith(p) for p in table.prefixes):
                near = " (matches a declared prefix — if this name is " \
                    "dynamic only by family, build it from the prefix " \
                    "constant)"
            ctx.report(
                t.line, "metric-name-table",
                f"metric name \"{first}\" is not in the central name "
                f"table (src/obs/names.hpp){near}; add it there or fix "
                "the typo")
        else:
            if first in table.prefixes:
                continue
            ctx.report(
                t.line, "metric-name-table",
                f"dynamic metric name starts with \"{first}\", which is "
                "not a declared …Prefix entry in src/obs/names.hpp")


def check_sim_ops_charge(ctx: FileContext) -> None:
    code = ctx.code
    n = len(code)
    # Cost-model seconds must not be discarded.
    for i, t in enumerate(code):
        if t.kind != IDENT or t.text not in _COST_MODEL_FNS:
            continue
        if i + 1 >= n or code[i + 1].kind != PUNCT \
                or code[i + 1].text != "(":
            continue
        # Walk back over `sim ::` qualification to the statement head.
        k = i
        while k >= 2 and code[k - 1].kind == PUNCT \
                and code[k - 1].text == "::" and code[k - 2].kind == IDENT:
            k -= 2
        if k == 0:
            at_statement_head = True
        else:
            prev = code[k - 1]
            at_statement_head = prev.kind == PUNCT and prev.text in (
                ";", "{", "}")
        if at_statement_head:
            ctx.report(
                t.line, "sim-ops-charge",
                f"return value of {t.text}() is discarded; cost-model "
                "seconds must be accumulated into the run's sim "
                "accounting")
