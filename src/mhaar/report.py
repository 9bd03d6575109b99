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
from typing import NamedTuple, Optional, Union

from . import __version__
from .autos import (CLAIM_KINDS, Evidence, automorphism_group,  # noqa: F401
                    check_claim, evidence)
from .cayley import CayleyError, ConnectionMatrix
from .formats import to_graph6
from .groups import Group, GroupError, read_json

# automorphism_group is unused here, but the tracing test in
# perfbench/test_perfbench.py expects this module to bind it

SCHEMA_VERSION = 1

_KINDS = CLAIM_KINDS + ("nonexistence-search", "nonexistence-classified")


class CertificateCheck(NamedTuple):
    ok: bool
    field: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "certificate verifies"
        return f"certificate fails at {self.field!r}: {self.detail}"


def _header(kind: str, group: Group, m: int, route: Optional[str]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": kind,
        "group": {
            "descriptor": group.descriptor,
            "order": group.order,
            "table": [list(row) for row in group.table],
        },
        "m": m,
        "route": route,
    }


def make_certificate(cm: Union[ConnectionMatrix, Evidence], kind: str = "hgr",
                     route: Optional[str] = None) -> dict:
    """Witness certificate for a connection matrix; keys in a fixed order.

    kind selects the claim (see autos.check_claim), which is checked
    here, so an invalid witness cannot be certified.  cm may also be
    the Evidence an earlier check computed for the matrix, as a verified
    SynthesisResult carries; the engine then does not run again.
    """
    verdict = check_claim(cm, kind)
    if not verdict:
        raise ValueError(f"refusing to certify: {verdict.reason}")
    ev = verdict.evidence
    return {
        **_header(kind, ev.matrix.group, ev.matrix.m, route),
        "matrix": ev.matrix.entries(),
        "evidence": dict(ev.fields),
        "aut_generators": [list(p) for p in ev.aut.generators],
        "graph6": to_graph6(ev.graph),
    }


def nonexistence_certificate(group: Group, m: int, clause: str,
                             route: Optional[str] = None) -> dict:
    from .constructions import nonexistence_clause
    actual = nonexistence_clause(group, m)
    if actual != clause:
        raise ValueError(
            f"refusing to certify: clause {clause!r} claimed for "
            f"{group.label}, m={m}, but the classification says {actual!r}")
    return {**_header("nonexistence-classified", group, m, route),
            "evidence": {"clause": clause, "group_order": group.order}}


def _search_evidence(report) -> dict:
    return {
        "mode": report.mode,
        "profiles": report.profiles,
        "total_space": report.total_space,
        "examined": report.examined,
        "witnesses": report.witnesses,
        "group_order": report.group.order,
    }


def search_certificate(report) -> dict:
    """Certificate from a SearchReport: witness or exhausted nonexistence."""
    route = f"exhaustive search ({report.mode} mode)"
    if report.witness is not None:
        return make_certificate(report.witness, "hgr", route=route)
    if not report.exhausted:
        raise ValueError("refusing to certify: search stopped early "
                         "without a witness, so nonexistence is not proven")
    return {**_header("nonexistence-search", report.group, report.m, route),
            "evidence": _search_evidence(report)}


def emit(outcome) -> dict:
    """Certificate for a toolkit verdict, made from the outcome alone.

    Accepts a SynthesisResult (witness or classified nonexistence) or a
    SearchReport (witness or searched nonexistence); each carries its
    group.  A bare ConnectionMatrix goes to make_certificate, which
    names its claim.
    """
    if hasattr(outcome, "route") and hasattr(outcome, "exists"):
        if outcome.exists:
            # a verified result carries the evidence its check computed
            witness = outcome.verdict.evidence if outcome.verdict else outcome.matrix
            return make_certificate(witness, "hgr", route=outcome.route)
        return nonexistence_certificate(outcome.group, outcome.m,
                                        outcome.clause, route=outcome.route)
    if hasattr(outcome, "examined"):
        return search_certificate(outcome)
    raise TypeError(f"cannot certify a {type(outcome).__name__}")


def certificate_json(outcome) -> str:
    return json.dumps(emit(outcome), indent=2) + "\n"


def write_certificate(text: str, path: str) -> None:
    """Write certificate text, as certificate_json returns it, to path.

    The caller builds the text once, so printing it and writing it give
    the same bytes without recomputing the evidence.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_certificate(path: str) -> dict:
    cert = read_json(path)
    if not isinstance(cert, dict):
        raise ValueError("certificate file does not hold a JSON object")
    return cert


def _compare(claimed: dict, recomputed: dict) -> CertificateCheck:
    """The first evidence field whose claimed value is not the recomputed one."""
    for field, value in recomputed.items():
        if field not in claimed:
            return CertificateCheck(False, f"evidence.{field}", "field missing")
        if claimed[field] != value:
            return CertificateCheck(
                False, f"evidence.{field}",
                f"claimed {claimed[field]!r}, recomputed {value!r}")
    return CertificateCheck(True)


def _reverify_witness(cert: dict, group: Group, kind: str) -> CertificateCheck:
    try:
        cm = ConnectionMatrix.from_entries(group, cert["m"], cert["matrix"])
    except CayleyError as e:
        return CertificateCheck(False, "matrix", str(e))
    ev = evidence(cm)
    check = _compare(cert["evidence"], ev.fields)
    if not check:
        return check
    if cert["graph6"] != to_graph6(ev.graph):
        return CertificateCheck(False, "graph6", "claimed encoding differs "
                                "from the rebuilt graph")
    generators = cert["aut_generators"]
    if not isinstance(generators, list):
        return CertificateCheck(False, "aut_generators", "not a list")
    for idx, perm in enumerate(generators):
        if (not isinstance(perm, list) or not all(type(x) is int for x in perm)
                or sorted(perm) != list(range(ev.graph.n))
                or any(not ev.graph.has_edge(perm[u], perm[v])
                       for u, v in ev.graph.edges())):
            return CertificateCheck(
                False, "aut_generators",
                f"entry {idx} is not an automorphism of the graph")
    # the claim itself, not just internal consistency
    verdict = check_claim(ev, kind)
    if not verdict:
        return CertificateCheck(False, verdict.field, verdict.reason)
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
    from .search import decide_existence, space_size
    claimed = cert["evidence"]
    mode = claimed.get("mode", "normalized")
    rerun_mode = mode if mode in ("normalized", "exhaustive") else "normalized"
    if group.order > 1:  # C1's scan claims no sizes; a forged one needs no rerun
        profiles, total = space_size(group, cert["m"], rerun_mode)
        check = _compare(claimed, {"profiles": profiles, "total_space": total})
        if not check:
            return check
    # a witness fails the claim, so the rerun may stop at the first one
    report = decide_existence(group, cert["m"], mode=rerun_mode)
    if report.exists:
        return CertificateCheck(
            False, "kind",
            f"search finds a witness for {group.label}, m={cert['m']}")
    return _compare(claimed, _search_evidence(report))


def reverify(cert: Union[dict, str]) -> CertificateCheck:
    """Recompute every claimed field; report the first disagreement.

    Accepts the dict or its JSON text.  The group table, the matrix
    entries, and the (kind, m) claim are the only trusted inputs;
    everything else is rederived.  Nonexistence-search certificates are
    re-verified by re-running the full enumeration, which costs what
    the original search cost; a rerun that finds a witness stops there.
    """
    if isinstance(cert, str):
        try:
            cert = json.loads(cert)
        except (json.JSONDecodeError, RecursionError) as e:
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
        try:
            group = Group.from_json(cert["group"])
        except GroupError as e:
            return CertificateCheck(
                False, "group" if e.field is None else f"group.{e.field}", str(e))
        if not isinstance(cert["evidence"], dict):
            return CertificateCheck(False, "evidence", "not a JSON object")
        # the classification covers m >= 3 only
        least = 3 if kind == "nonexistence-classified" else 2
        m = cert["m"]
        if type(m) is not int or m < least:
            return CertificateCheck(False, "m", f"must be an integer >= {least}, "
                                    f"got {m!r}")
        if kind in CLAIM_KINDS:
            return _reverify_witness(cert, group, kind)
        if kind == "nonexistence-classified":
            return _reverify_classified(cert, group)
        return _reverify_search(cert, group)
    except KeyError as e:
        return CertificateCheck(False, str(e.args[0]), "field missing")
