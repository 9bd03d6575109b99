"""Spans for the traced run, recorded from the benchmark's own files.

A Tracer replaces each public function in TARGETS with a wrapper that
records a span: [name, start, end, parent index, command id, counts].
The wrapper is bound wherever a mhaar module holds the original object,
so names other modules import (mhaar.search.automorphism_group,
mhaar.report.automorphism_group, ...) and aliases are traced too.
Counts come from the wrapped function's arguments and return value.

layer_metrics() reduces the spans of one pass to the per-layer metrics.
A span's self time is its duration minus the time its child spans
cover.  A layer's time and counts come from its outermost spans, the
ones with no ancestor in the same layer, so nested calls (rank inside
rank) are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

NAME, START, END, PARENT, CMD, COUNTS = range(6)


def _aut_counts(args, result):
    return {"vertices": args[0].n, "nodes": result.nodes,
            "generators": len(result.generators)}


def _search_counts(args, result):
    return {"examined": result.examined, "profiles": result.profiles,
            "total_space": result.total_space or 0}


def _cert_counts(args, result):
    return {"cert_bytes": len(json.dumps(result, indent=2)) + 1}


# (module, attribute, counts from (args, result)); "Class.method" patches
# the class attribute
TARGETS = [
    ("mhaar.cli", "main", None),
    ("mhaar.groups", "parse_group_spec", None),
    ("mhaar.groups", "Group.__init__", None),
    ("mhaar.groups", "minimal_generating_set", None),
    ("mhaar.groups", "minimal_generating_size", None),
    ("mhaar.constructions", "synthesize", None),
    ("mhaar.catalog", "build_entry", None),
    ("mhaar.catalog", "asymmetric_regular_graph", None),
    ("mhaar.catalog", "matrix_from_graph", None),
    ("mhaar.lift", "lift_base", None),
    ("mhaar.cayley", "build_graph", None),
    ("mhaar.cayley", "load_matrix", None),
    ("mhaar.autos", "automorphism_group", _aut_counts),
    ("mhaar.autos", "is_m_hgr", None),
    ("mhaar.autos", "is_m_pgsr", None),
    ("mhaar.autos", "brute_force_aut_order", None),
    ("mhaar.search", "decide_existence", _search_counts),
    ("mhaar.report", "make_certificate", _cert_counts),
    ("mhaar.report", "search_certificate", _cert_counts),
    ("mhaar.report", "nonexistence_certificate", _cert_counts),
    ("mhaar.report", "certificate_json", None),
    ("mhaar.report", "write_certificate", None),
    ("mhaar.report", "reverify", None),
    ("mhaar.formats", "to_graph6", None),
    ("mhaar.formats", "from_graph6", None),
    ("mhaar.formats", "from_edgelist", None),
]


class Tracer:
    """Wraps functions, keeps their spans in memory, and can undo the wrapping."""

    def __init__(self, cmd: int = 0):
        self.cmd = cmd
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.cmd, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever a loaded mhaar module binds it."""
        importlib.import_module("mhaar")
        for module_name, attr, counts in targets:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.wrap(name, getattr(cls, meth), counts))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, counts)
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("mhaar"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def restore(self) -> None:
        """Put back every original object, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- reduction -------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


class _Pass:
    """Queries over the spans of one pass (all commands, indices global)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)
        # names of each span's ancestors; a parent precedes its children
        self.anc: list[frozenset] = []
        lineage: dict[int, frozenset] = {}
        for s in spans:
            p = s[PARENT]
            if p is None:
                self.anc.append(frozenset())
            else:
                if p not in lineage:
                    lineage[p] = self.anc[p] | {spans[p][NAME]}
                self.anc.append(lineage[p])

    def has_ancestor(self, i: int, names: frozenset) -> bool:
        return not self.anc[i].isdisjoint(names)

    def outer(self, *names: str) -> list[int]:
        """Indices of spans in `names` with no ancestor in `names`."""
        ns = frozenset(names)
        return [i for i, s in enumerate(self.spans)
                if s[NAME] in ns and not self.has_ancestor(i, ns)]

    def total(self, *names: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self.outer(*names))

    def calls(self, *names: str) -> int:
        return len(self.outer(*names))

    def self_sum(self, *names: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s[NAME] in names)

    def count(self, key: str, *names: str) -> int:
        return sum((self.spans[i][COUNTS] or {}).get(key, 0)
                   for i in self.outer(*names))

    def total_under(self, names: tuple, under: tuple) -> float:
        """Time of `names` spans that run inside an `under` span."""
        up = frozenset(under)
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self.outer(*names) if self.has_ancestor(i, up))


AUT = "autos.automorphism_group"
RANK = ("groups.minimal_generating_set", "groups.minimal_generating_size")
CERTS = ("report.make_certificate", "report.search_certificate",
         "report.nonexistence_certificate")
# where a witness `synthesize --certificate` computes its evidence
EVIDENCE = ("autos.is_m_hgr", "report.certificate_json", "report.write_certificate")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _evidence_runs(p: _Pass) -> float:
    """Median engine runs per witness `synthesize --certificate` command."""
    runs: dict[int, int] = {}
    for s in p.spans:
        if s[NAME] == "report.write_certificate":
            runs[s[CMD]] = 0
    ev = frozenset(EVIDENCE)
    for i, s in enumerate(p.spans):
        if s[NAME] == AUT and s[CMD] in runs and p.has_ancestor(i, ev):
            runs[s[CMD]] += 1
    return float(statistics.median(runs.values())) if runs else 0.0


# (metric, unit, better, value from a _Pass); see README.md for the
# end-to-end metric and workload each one should move
LAYER_METRICS = [
    ("groups.rank_s", "s", "lower", lambda p: p.total(*RANK)),
    ("groups.rank_calls", "count", "lower", lambda p: p.calls(*RANK)),
    ("groups.parse_s", "s", "lower", lambda p: p.total("groups.parse_group_spec")),
    ("groups.group_init_s", "s", "lower",
     lambda p: p.total("groups.Group.__init__")),
    ("groups.group_init_calls", "count", "lower",
     lambda p: p.calls("groups.Group.__init__")),
    ("constructions.synthesize_self_s", "s", "lower",
     lambda p: p.self_sum("constructions.synthesize")),
    ("catalog.build_entry_s", "s", "lower", lambda p: p.total("catalog.build_entry")),
    ("catalog.template_s", "s", "lower",
     lambda p: p.total("catalog.asymmetric_regular_graph", "catalog.matrix_from_graph")),
    ("lift.lift_base_self_s", "s", "lower", lambda p: p.self_sum("lift.lift_base")),
    ("lift.lift_base_calls", "count", "lower", lambda p: p.calls("lift.lift_base")),
    ("cayley.build_graph_s", "s", "lower", lambda p: p.total("cayley.build_graph")),
    ("cayley.build_graph_calls", "count", "lower",
     lambda p: p.calls("cayley.build_graph")),
    ("cayley.load_matrix_s", "s", "lower", lambda p: p.total("cayley.load_matrix")),
    ("autos.aut_s", "s", "lower", lambda p: p.total(AUT)),
    ("autos.aut_calls", "count", "lower", lambda p: p.calls(AUT)),
    ("autos.aut_vertices", "count", "lower", lambda p: p.count("vertices", AUT)),
    ("autos.nodes", "count", "lower", lambda p: p.count("nodes", AUT)),
    ("autos.generators", "count", "lower", lambda p: p.count("generators", AUT)),
    ("autos.ms_per_call", "ms", "lower",
     lambda p: 1000 * _ratio(p.total(AUT), p.calls(AUT))),
    ("autos.verdict_self_s", "s", "lower",
     lambda p: p.self_sum("autos.is_m_hgr", "autos.is_m_pgsr")),
    ("autos.brute_force_s", "s", "lower",
     lambda p: p.total("autos.brute_force_aut_order")),
    ("autos.evidence_runs_per_witness", "count", "lower", _evidence_runs),
    ("search.decide_self_s", "s", "lower",
     lambda p: p.self_sum("search.decide_existence")),
    ("search.examined", "count", "lower",
     lambda p: p.count("examined", "search.decide_existence")),
    ("search.profiles", "count", "lower",
     lambda p: p.count("profiles", "search.decide_existence")),
    ("search.total_space", "count", "lower",
     lambda p: p.count("total_space", "search.decide_existence")),
    ("search.candidates_per_s", "1/s", "higher",
     lambda p: _ratio(p.count("examined", "search.decide_existence"),
                      p.total("search.decide_existence"))),
    ("search.engine_share", "ratio", "lower",
     lambda p: _ratio(p.total_under((AUT,), ("search.decide_existence",)),
                      p.total("search.decide_existence"))),
    ("report.make_certificate_self_s", "s", "lower",
     lambda p: p.self_sum("report.make_certificate")),
    ("report.make_certificate_calls", "count", "lower",
     lambda p: p.calls("report.make_certificate")),
    ("report.reverify_self_s", "s", "lower", lambda p: p.self_sum("report.reverify")),
    ("report.reverify_calls", "count", "lower", lambda p: p.calls("report.reverify")),
    ("report.cert_bytes", "bytes", "lower", lambda p: p.count("cert_bytes", *CERTS)),
    ("formats.to_graph6_s", "s", "lower", lambda p: p.total("formats.to_graph6")),
    ("formats.parse_s", "s", "lower",
     lambda p: p.total("formats.from_graph6", "formats.from_edgelist")),
    ("cli.self_s", "s", "lower", lambda p: p.self_sum("cli.main")),
]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    p = _Pass(spans)
    return {name: float(fn(p)) for name, _, _, fn in LAYER_METRICS}
