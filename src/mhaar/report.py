"""Self-contained verification certificates for every verdict.

A witness certificate bundles the group table, the connection matrix,
and every property the toolkit claims about the derived graph, so a
third party can re-check the claim with nothing but this package (or
their own tools, via the graph6 field).  Nonexistence verdicts get
certificates too: classified ones carry the clause that rules the pair
out, search ones carry the enumeration statistics, and reverify
re-derives both.  reverify recomputes every claimed field from the raw
table and reports the first field whose stored value disagrees, which
also catches hand-edited files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .autos import AutResult, automorphism_group
from .cayley import CayleyError, ConnectionMatrix, build_graph
from .formats import to_graph6
from .groups import Group, GroupError

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

_WITNESS_KINDS = ("hgr", "pgsr")
_KINDS = _WITNESS_KINDS + ("nonexistence-search", "nonexistence-classified")


@dataclass
class CertificateCheck:
    ok: bool
    field: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "certificate verifies"
        return f"certificate fails at {self.field!r}: {self.detail}"


def _matrix_payload(cm: ConnectionMatrix) -> list[dict]:
    return [{"i": i, "j": j, "elems": sorted(elems)}
            for i, j, elems in cm.upper_items()]


def _orbits_are_parts(aut: AutResult, m: int, n: int) -> bool:
    parts = sorted(tuple(range(i * n, (i + 1) * n)) for i in range(m))
    return sorted(tuple(sorted(o)) for o in aut.orbits) == parts


def _group_payload(g: Group) -> dict:
    return {
        "descriptor": g.descriptor,
        "order": g.order,
        "table": [list(row) for row in g.table],
    }


def make_certificate(cm: ConnectionMatrix, kind: str = "hgr",
                     route: Optional[str] = None) -> dict:
    """Witness certificate for a connection matrix; keys in a fixed order.

    kind selects the claim: "hgr" asserts a regular diagonal-free
    matrix, "pgsr" only a diagonal-free one; both assert |Aut| equal to
    the group order with the parts as the vertex orbits.  The claim is
    checked here, so an invalid witness cannot be certified.
    """
    if kind not in _WITNESS_KINDS:
        raise ValueError(f"kind must be one of {_WITNESS_KINDS}, got {kind!r}")
    g = cm.group
    graph = build_graph(cm)
    aut = automorphism_group(graph)
    orbits_ok = _orbits_are_parts(aut, cm.m, g.order)
    problems = []
    if not cm.diagonal_empty():
        problems.append("matrix has nonempty diagonal blocks")
    if kind == "hgr" and not cm.is_regular():
        problems.append(f"matrix is not regular: valencies {cm.valencies()}")
    if aut.order != g.order:
        problems.append(f"|Aut| = {aut.order} but |G| = {g.order}")
    elif not orbits_ok:
        problems.append("vertex orbits do not coincide with the parts")
    if problems:
        raise ValueError("refusing to certify: " + "; ".join(problems))
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "kind": kind,
        "group": _group_payload(g),
        "m": cm.m,
        "route": route,
        "matrix": _matrix_payload(cm),
        "evidence": {
            "aut_order": aut.order,
            "group_order": g.order,
            "vertices": graph.n,
            "edges": graph.edge_count(),
            "valencies": list(cm.valencies()),
            "regular": cm.is_regular(),
            "diagonal_empty": cm.diagonal_empty(),
            "connected": graph.is_connected(),
            "orbits_are_parts": orbits_ok,
        },
        "aut_generators": [list(p) for p in aut.generators],
        "graph6": to_graph6(graph),
    }


def nonexistence_certificate(group: Group, m: int, clause: str,
                             route: Optional[str] = None) -> dict:
    from .constructions import nonexistence_clause
    actual = nonexistence_clause(group, m)
    if actual != clause:
        raise ValueError(
            f"refusing to certify: clause {clause!r} claimed for "
            f"{group.label}, m={m}, but the classification says {actual!r}")
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "kind": "nonexistence-classified",
        "group": _group_payload(group),
        "m": m,
        "route": route,
        "evidence": {"clause": clause, "group_order": group.order},
    }


def search_certificate(report, group: Group) -> dict:
    """Certificate from a SearchReport: witness or exhausted nonexistence."""
    if report.witness is not None:
        return make_certificate(report.witness, "hgr",
                                route=f"exhaustive search ({report.mode} mode)")
    if not report.exhausted:
        raise ValueError("refusing to certify: search stopped early "
                         "without a witness, so nonexistence is not proven")
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "kind": "nonexistence-search",
        "group": _group_payload(group),
        "m": report.m,
        "route": f"exhaustive search ({report.mode} mode)",
        "evidence": {
            "mode": report.mode,
            "profiles": report.profiles,
            "total_space": report.total_space,
            "examined": report.examined,
            "witnesses": report.witnesses,
            "group_order": group.order,
        },
    }


def emit(outcome, kind: str = "hgr", group: Optional[Group] = None) -> dict:
    """Certificate for any toolkit verdict.

    Accepts a ConnectionMatrix (claim picked by `kind`), a
    SynthesisResult (witness or classified nonexistence), or a
    SearchReport (witness or searched nonexistence; needs `group`).
    """
    if isinstance(outcome, ConnectionMatrix):
        return make_certificate(outcome, kind)
    if hasattr(outcome, "route") and hasattr(outcome, "exists"):
        if outcome.exists:
            return make_certificate(outcome.matrix, "hgr", route=outcome.route)
        return nonexistence_certificate(outcome.group, outcome.m,
                                        outcome.clause, route=outcome.route)
    if hasattr(outcome, "examined"):
        if group is None:
            raise ValueError("a SearchReport certificate needs the group")
        return search_certificate(outcome, group)
    raise TypeError(f"cannot certify a {type(outcome).__name__}")


def certificate_json(outcome, **kw) -> str:
    return json.dumps(emit(outcome, **kw), indent=2) + "\n"


def write_certificate(outcome, path: str, **kw) -> str:
    """Write the certificate of `outcome` to path and return its JSON text.

    A str outcome is taken as certificate text already built by
    certificate_json, so a caller that printed it writes the same bytes
    without recomputing the evidence.
    """
    text = outcome if isinstance(outcome, str) else certificate_json(outcome, **kw)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_certificate(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    if not isinstance(cert, dict):
        raise ValueError("certificate file does not hold a JSON object")
    return cert


def _reverify_witness(cert: dict, group: Group, kind: str) -> CertificateCheck:
    try:
        cm = ConnectionMatrix(
            group, cert["m"],
            [(e["i"], e["j"], e["elems"]) for e in cert["matrix"]])
    except (CayleyError, KeyError, TypeError) as e:
        return CertificateCheck(False, "matrix", str(e))
    graph = build_graph(cm)
    aut = automorphism_group(graph)
    recomputed = {
        "aut_order": aut.order,
        "group_order": group.order,
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "valencies": list(cm.valencies()),
        "regular": cm.is_regular(),
        "diagonal_empty": cm.diagonal_empty(),
        "connected": graph.is_connected(),
        "orbits_are_parts": _orbits_are_parts(aut, cm.m, group.order),
    }
    evidence = cert["evidence"]
    for field, value in recomputed.items():
        if field not in evidence:
            return CertificateCheck(False, f"evidence.{field}", "field missing")
        if evidence[field] != value:
            return CertificateCheck(
                False, f"evidence.{field}",
                f"claimed {evidence[field]!r}, recomputed {value!r}")
    if cert["graph6"] != to_graph6(graph):
        return CertificateCheck(False, "graph6", "claimed encoding differs "
                                "from the rebuilt graph")
    for idx, perm in enumerate(cert["aut_generators"]):
        if (not isinstance(perm, list) or sorted(perm) != list(range(graph.n))
                or any(not graph.has_edge(perm[u], perm[v])
                       for u, v in graph.edges())):
            return CertificateCheck(
                False, "aut_generators",
                f"entry {idx} is not an automorphism of the graph")
    # the claim itself, not just internal consistency
    if not cm.diagonal_empty():
        return CertificateCheck(
            False, "evidence.diagonal_empty", "matrix has diagonal entries")
    if kind == "hgr" and not cm.is_regular():
        return CertificateCheck(
            False, "evidence.regular",
            f"kind hgr needs a regular matrix, valencies are {cm.valencies()}")
    if aut.order != group.order:
        return CertificateCheck(
            False, "evidence.aut_order",
            f"|Aut| = {aut.order} differs from |G| = {group.order}")
    if not recomputed["orbits_are_parts"]:
        return CertificateCheck(
            False, "evidence.orbits_are_parts",
            "vertex orbits do not coincide with the parts")
    return CertificateCheck(True)


def _reverify_classified(cert: dict, group: Group) -> CertificateCheck:
    from .constructions import nonexistence_clause
    claimed = cert["evidence"].get("clause")
    actual = nonexistence_clause(group, cert["m"])
    if actual is None:
        return CertificateCheck(
            False, "evidence.clause",
            f"classification does not exclude {group.label}, m={cert['m']}")
    if claimed != actual:
        return CertificateCheck(
            False, "evidence.clause",
            f"claimed {claimed!r}, classification says {actual!r}")
    return CertificateCheck(True)


def _reverify_search(cert: dict, group: Group) -> CertificateCheck:
    from .search import decide_existence
    evidence = cert["evidence"]
    mode = evidence.get("mode", "normalized")
    rerun_mode = mode if mode in ("normalized", "exhaustive") else "normalized"
    report = decide_existence(group, cert["m"], mode=rerun_mode,
                              early_exit=False)
    if report.exists:
        return CertificateCheck(
            False, "kind",
            f"search finds a witness for {group.label}, m={cert['m']}")
    recomputed = {
        "mode": report.mode,
        "profiles": report.profiles,
        "total_space": report.total_space,
        "examined": report.examined,
        "witnesses": report.witnesses,
        "group_order": group.order,
    }
    for field, value in recomputed.items():
        if field not in evidence:
            return CertificateCheck(False, f"evidence.{field}", "field missing")
        if evidence[field] != value:
            return CertificateCheck(
                False, f"evidence.{field}",
                f"claimed {evidence[field]!r}, recomputed {value!r}")
    return CertificateCheck(True)


def reverify(cert: Union[dict, str]) -> CertificateCheck:
    """Recompute every claimed field; report the first disagreement.

    Accepts the dict or its JSON text.  The group table, the matrix
    entries, and the (kind, m) claim are the only trusted inputs;
    everything else is rederived.  Nonexistence-search certificates are
    re-verified by re-running the full enumeration, which costs what
    the original search cost.
    """
    if isinstance(cert, str):
        try:
            cert = json.loads(cert)
        except json.JSONDecodeError as e:
            return CertificateCheck(False, "json", str(e))
    if not isinstance(cert, dict):
        return CertificateCheck(False, "json", "certificate is not an object")
    try:
        if cert["schema"] != SCHEMA_VERSION:
            return CertificateCheck(
                False, "schema",
                f"unsupported schema {cert['schema']!r}, expected {SCHEMA_VERSION}")
        kind = cert["kind"]
        if kind not in _KINDS:
            return CertificateCheck(False, "kind", f"unknown kind {kind!r}")
        gspec = cert["group"]
        try:
            group = Group(gspec["table"], descriptor=gspec.get("descriptor"))
        except (GroupError, KeyError, TypeError) as e:
            return CertificateCheck(False, "group.table", str(e))
        if gspec.get("order") != group.order:
            return CertificateCheck(
                False, "group.order",
                f"claimed {gspec.get('order')}, table has {group.order}")
        if kind in _WITNESS_KINDS:
            return _reverify_witness(cert, group, kind)
        if kind == "nonexistence-classified":
            return _reverify_classified(cert, group)
        return _reverify_search(cert, group)
    except KeyError as e:
        return CertificateCheck(False, str(e.args[0]), "field missing")
