"""Certificates: emission, serialization, and adversarial re-verification."""

import copy
import hashlib
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhaar
import mhaar.autos
import mhaar.cayley
import mhaar.search
from mhaar.autos import automorphism_group
from mhaar.catalog import build_entry, entries
from mhaar.cayley import CayleyError, ConnectionMatrix, build_graph
from mhaar.cli import EXIT_CAPACITY, main
from mhaar.constructions import synthesize
from mhaar.formats import to_graph6
from mhaar.groups import CapacityError, Group, cyclic, dihedral, parse_group_spec
from mhaar.report import (
    SCHEMA_VERSION,
    CertificateCheck,
    certificate_json,
    emit,
    load_certificate,
    make_certificate,
    nonexistence_certificate,
    reverify,
    search_certificate,
    write_certificate,
)
from mhaar.search import SearchReport, decide_existence, space_size


KEY_ORDER = ["schema", "tool_version", "kind", "group", "m", "route",
             "matrix", "evidence", "aut_generators", "graph6"]


@pytest.fixture(scope="module")
def c6_witness():
    return build_entry(entries(tag="C6", m=3, kind="hgr")[0])


@pytest.fixture(scope="module")
def c6_cert(c6_witness):
    return make_certificate(c6_witness, "hgr", route="unit test")


# -- emission ------------------------------------------------------------------


def test_witness_certificate_shape(c6_cert):
    assert list(c6_cert.keys()) == KEY_ORDER
    assert c6_cert["schema"] == SCHEMA_VERSION == 1
    assert c6_cert["tool_version"] == mhaar.__version__ == "0.1.0"
    assert c6_cert["kind"] == "hgr"
    assert c6_cert["route"] == "unit test"
    assert c6_cert["group"]["descriptor"] == "C6"
    assert c6_cert["group"]["order"] == 6
    assert len(c6_cert["group"]["table"]) == 6
    ev = c6_cert["evidence"]
    assert ev["aut_order"] == 6 and ev["group_order"] == 6
    assert ev["vertices"] == 18 and ev["valencies"] == [4, 4, 4]
    assert ev["regular"] and ev["diagonal_empty"] and ev["connected"]
    assert ev["orbits_are_parts"]
    assert ev["edges"] == 18 * 4 // 2
    assert isinstance(c6_cert["graph6"], str)
    for perm in c6_cert["aut_generators"]:
        assert sorted(perm) == list(range(18))


def test_certificate_matrix_is_the_entry_list(c6_witness, c6_cert):
    assert c6_cert["matrix"] == c6_witness.entries()
    assert ConnectionMatrix.from_entries(c6_witness.group, 3,
                                         c6_cert["matrix"]) == c6_witness


def test_pgsr_certificate():
    base = build_entry(entries(tag="C6", m=3, kind="pgsr")[0])
    cert = make_certificate(base, "pgsr")
    assert cert["kind"] == "pgsr"
    assert not cert["evidence"]["regular"]
    assert reverify(cert).ok
    # the same matrix cannot be certified under the stricter claim
    with pytest.raises(ValueError, match="part 2 has valency 3, part 1 has 4"):
        make_certificate(base, "hgr")


def test_refuses_invalid_witnesses():
    g = cyclic(2)
    square = ConnectionMatrix(g, 2, {(1, 2): [0, 1]})  # |Aut| = 8
    with pytest.raises(ValueError,
                       match="automorphism group has order 8, group has order 2"):
        make_certificate(square, "hgr")
    with pytest.raises(ValueError, match="kind must be one of"):
        make_certificate(square, "haar")
    withdiag = ConnectionMatrix(cyclic(3), 2, {(1, 2): [0], (1, 1): [1, 2]})
    with pytest.raises(ValueError, match="diagonal"):
        make_certificate(withdiag, "pgsr")


def test_nonexistence_certificate_checks_the_clause():
    cert = nonexistence_certificate(dihedral(6), 3, "a")
    assert cert["kind"] == "nonexistence-classified"
    assert cert["evidence"] == {"clause": "a", "group_order": 6}
    assert reverify(cert).ok
    with pytest.raises(ValueError, match="classification says 'a'"):
        nonexistence_certificate(dihedral(6), 3, "b")
    with pytest.raises(ValueError, match="classification says None"):
        nonexistence_certificate(cyclic(6), 3, "a")


def test_search_certificate_nonexistence():
    report = decide_existence(cyclic(2), 3)
    cert = search_certificate(report)
    assert cert["kind"] == "nonexistence-search"
    assert cert["route"] == "exhaustive search (normalized mode)"
    assert cert["evidence"]["examined"] == 4
    assert reverify(cert).ok


def test_search_certificate_witness():
    report = decide_existence(cyclic(6), 3)
    cert = search_certificate(report)
    assert cert["kind"] == "hgr"
    assert "exhaustive search" in cert["route"]
    assert reverify(cert).ok


def test_search_certificate_refuses_early_stop():
    partial = SearchReport(cyclic(2), 3, "normalized", False, 3, 4, 2, 0,
                           None, False, 0.0)
    with pytest.raises(ValueError, match="stopped early"):
        search_certificate(partial)


# the certificate text of one outcome per route: catalog, generic recipes of
# rank 2 and 5, chain extension, the order-1 and order-2 templates, both
# classified negatives, and a searched nonexistence and witness
CERTIFICATE_DIGEST = "2cd9a45b9fb3705fdc132d76a44a0ae8ec7999bc620317db0fcd2eb107722e6a"


def test_certificates_are_pinned():
    sha = hashlib.sha256()
    for spec, m in [("C6", 3), ("Q8", 3), ("C2^5", 4), ("D8xC3", 6), ("A4", 5),
                    ("X27", 12), ("C2", 10), ("C1", 12), ("D6", 3), ("C2", 5)]:
        sha.update(certificate_json(synthesize(parse_group_spec(spec), m)).encode())
    for spec, m in [("C2^2", 3), ("C6", 3)]:
        g = parse_group_spec(spec)
        sha.update(certificate_json(decide_existence(g, m)).encode())
    assert sha.hexdigest() == CERTIFICATE_DIGEST


# -- emit dispatch --------------------------------------------------------------


def test_emit_dispatch():
    r = synthesize(cyclic(6), 3)
    cert = emit(r)
    assert cert["kind"] == "hgr" and cert["route"].startswith("catalog entry")
    neg = synthesize(cyclic(5), 3)
    cert = emit(neg)
    assert cert["kind"] == "nonexistence-classified"
    report = decide_existence(cyclic(2), 3)
    assert emit(report)["kind"] == "nonexistence-search"
    with pytest.raises(TypeError, match="cannot certify a str"):
        emit("witness")


def test_witness_certificate_runs_the_engine_once(monkeypatch):
    # the verification inside synthesize already computed the evidence
    original = mhaar.autos.automorphism_group
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("mhaar")
                and getattr(mod, "automorphism_group", None) is original):
            monkeypatch.setattr(mod, "automorphism_group", counting)
    text = certificate_json(synthesize(cyclic(6), 3))
    assert json.loads(text)["evidence"]["aut_order"] == 6
    assert len(calls) == 1


def test_json_and_file_round_trip(tmp_path):
    text = certificate_json(synthesize(cyclic(6), 3))
    assert text.endswith("\n")
    assert reverify(text).ok  # JSON string input
    path = tmp_path / "cert.json"
    write_certificate(text, str(path))
    assert path.read_text() == text
    loaded = load_certificate(str(path))
    assert loaded == json.loads(text)
    assert reverify(loaded).ok


def test_load_certificate_rejects_non_objects(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="JSON object"):
        load_certificate(str(path))


# -- adversarial re-verification -------------------------------------------------


def tampered(cert, **changes):
    out = copy.deepcopy(cert)
    for dotted, value in changes.items():
        holder = out
        *path, last = dotted.split("__")
        for key in path:
            holder = holder[key]
        if value is None:
            del holder[last]
        else:
            holder[last] = value
    return out


def test_reverify_catches_evidence_tampering(c6_cert):
    for dotted, bad, field in [
            ("evidence__aut_order", 12, "evidence.aut_order"),
            ("evidence__edges", 99, "evidence.edges"),
            ("evidence__valencies", [4, 4, 5], "evidence.valencies"),
            ("evidence__connected", False, "evidence.connected"),
            ("evidence__orbits_are_parts", False, "evidence.orbits_are_parts"),
            ("graph6", "A_", "graph6"),
            ("schema", 2, "schema"),
            ("kind", "haar", "kind"),
            ("group__order", 7, "group.order"),
    ]:
        check = reverify(tampered(c6_cert, **{dotted: bad}))
        assert not check.ok
        assert check.field == field, (dotted, check)
        assert "certificate fails at" in str(check)


def test_reverify_checks_the_claim_of_the_kind():
    # consistent evidence, but a pgsr matrix is not regular
    base = build_entry(entries(tag="C6", m=3, kind="pgsr")[0])
    check = reverify(tampered(make_certificate(base, "pgsr"), kind="hgr"))
    assert not check.ok and check.field == "evidence.regular"


def test_reverify_rejects_honest_evidence_of_excess_symmetry():
    # C2, m=2, full block: the 4-cycle, every field recorded truthfully
    g = cyclic(2)
    graph = build_graph(ConnectionMatrix(g, 2, {(1, 2): [0, 1]}))
    aut = automorphism_group(graph)
    assert aut.order == 8
    cert = {
        "schema": SCHEMA_VERSION, "tool_version": mhaar.__version__, "kind": "hgr",
        "group": {"descriptor": "C2", "order": 2,
                  "table": [list(row) for row in g.table]},
        "m": 2, "route": None,
        "matrix": [{"i": 1, "j": 2, "elems": [0, 1]}],
        "evidence": {"aut_order": 8, "group_order": 2, "vertices": 4,
                     "edges": 4, "valencies": [2, 2], "regular": True,
                     "diagonal_empty": True, "connected": True,
                     "orbits_are_parts": False},
        "aut_generators": [list(p) for p in aut.generators],
        "graph6": to_graph6(graph),
    }
    check = reverify(cert)
    assert not check.ok and check.field == "evidence.aut_order"


def test_reverify_checks_the_vertex_cap_before_building(monkeypatch, tmp_path):
    # m * |G| = 4,000,000 vertices: refused before one row of the graph exists
    cert = tampered(make_certificate(build_entry(entries(tag="C2", m=6, kind="hgr")[0])), m=2_000_000, matrix=[])

    def refuse(cm):
        raise AssertionError(f"built a graph for m={cm.m}")

    monkeypatch.setattr(mhaar.cayley, "build_graph", refuse)
    with pytest.raises(CapacityError, match="4000000 vertices"):
        reverify(cert)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert))
    assert main(["reverify", str(path)]) == EXIT_CAPACITY


def test_reverify_catches_matrix_tampering(c6_cert):
    bad = copy.deepcopy(c6_cert)
    elems = bad["matrix"][0]["elems"]
    elems[-1] = (elems[-1] + 1) % 6 if (elems[-1] + 1) % 6 not in elems else 5
    check = reverify(bad)
    assert not check.ok
    assert check.field.startswith("evidence.") or check.field == "graph6"


def test_reverify_catches_generator_tampering(c6_cert):
    bad = copy.deepcopy(c6_cert)
    perm = bad["aut_generators"][0]
    perm[0], perm[1] = perm[1], perm[0]
    check = reverify(bad)
    assert not check.ok
    assert check.field == "aut_generators"


def test_reverify_reads_booleans_as_malformed(c6_cert):
    # true == 1 in Python, so only the integer type rule tells them apart
    bad = copy.deepcopy(c6_cert)
    bad["matrix"][2]["elems"] = [True, 5]
    check = reverify(bad)
    assert (check.ok, check.field) == (False, "matrix")
    as_bools = [[bool(x) if x < 2 else x for x in perm]
                for perm in c6_cert["aut_generators"]]
    check = reverify(tampered(c6_cert, aut_generators=as_bools))
    assert (check.ok, check.field) == (False, "aut_generators")


@pytest.mark.parametrize("elems, field", [
    ([1, 5], "evidence.edges"),  # a valid diagonal block: another graph
    ([0], "matrix"),  # the identity would be a loop
    ([1], "matrix"),  # 1^-1 = 5 is missing
])
def test_reverify_reads_a_diagonal_entry_as_a_diagonal_block(c6_cert, elems, field):
    matrix = c6_cert["matrix"] + [{"i": 1, "j": 1, "elems": elems}]
    assert reverify(tampered(c6_cert, matrix=matrix)).field == field


JUNK = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=2), st.none(),
    st.integers(-1, 7), st.integers(-10 ** 20, 10 ** 20),
    st.lists(st.integers(-1, 7), max_size=3),
    st.lists(st.lists(st.integers(0, 5), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from("ij"), st.integers(0, 3), max_size=2))
EDITS = ["value", "element", "drop", "duplicate", "swap", "diagonal",
         "append", "entry", "matrix"]


def edit_matrix(data, matrix):
    """One hostile edit of a certificate's matrix entries, drawn from data."""
    how = data.draw(st.sampled_from(EDITS))
    if how == "matrix":
        return data.draw(JUNK)
    if not isinstance(matrix, list):
        return matrix
    if how == "append":
        matrix.append({"i": data.draw(st.integers(0, 4)), "j": data.draw(st.integers(0, 4)),
                       "elems": data.draw(st.lists(st.integers(0, 6), max_size=4))})
        return matrix
    if not matrix:
        return matrix
    k = data.draw(st.integers(0, len(matrix) - 1))
    entry = matrix[k]
    if how == "duplicate":
        matrix.append(copy.deepcopy(entry))
    elif how == "entry":
        matrix[k] = data.draw(JUNK)
    elif not isinstance(entry, dict):
        pass
    elif how == "value":
        entry[data.draw(st.sampled_from(["i", "j", "elems"]))] = data.draw(JUNK)
    elif how == "drop":
        entry.pop(data.draw(st.sampled_from(["i", "j", "elems"])), None)
    elif how == "swap":  # below the diagonal
        entry["i"], entry["j"] = entry.get("j"), entry.get("i")
    elif how == "diagonal":
        entry["j"] = entry.get("i")
    elif isinstance(entry.get("elems"), list) and entry["elems"]:
        elems = entry["elems"]
        elems[data.draw(st.integers(0, len(elems) - 1))] = data.draw(JUNK)
    return matrix


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_reverify_fails_at_matrix_exactly_when_the_entry_reader_refuses(c6_cert, data):
    # 18 vertices are under the vertex cap, so no CapacityError either
    matrix = copy.deepcopy(c6_cert["matrix"])
    for _ in range(data.draw(st.integers(1, 3))):
        matrix = edit_matrix(data, matrix)
    group = Group.from_json(c6_cert["group"])
    try:
        ConnectionMatrix.from_entries(group, 3, copy.deepcopy(matrix))
        refused = False
    except CayleyError:
        refused = True
    cert = copy.deepcopy(c6_cert)
    cert["matrix"] = matrix
    assert (reverify(cert).field == "matrix") == refused


def test_reverify_catches_missing_fields(c6_cert):
    check = reverify(tampered(c6_cert, evidence__aut_order=None))
    assert not check.ok and check.field == "evidence.aut_order"
    assert check.detail == "field missing"
    check = reverify(tampered(c6_cert, graph6=None))
    assert not check.ok and check.field == "graph6"
    assert check.detail == "field missing"
    check = reverify(tampered(c6_cert, m=None))
    assert not check.ok and check.field == "m"
    assert check.detail == "field missing"


def test_reverify_rejects_broken_group_tables(c6_cert):
    bad = copy.deepcopy(c6_cert)
    bad["group"]["table"][0][0] = 3  # row 0 is no longer a permutation
    check = reverify(bad)
    assert not check.ok and check.field == "group.table"


def test_reverify_classified_tampering():
    cert = nonexistence_certificate(dihedral(6), 3, "a")
    check = reverify(tampered(cert, m=4))
    assert not check.ok and check.field == "evidence.clause"
    assert "does not exclude" in check.detail
    check = reverify(tampered(cert, evidence__clause="b"))
    assert not check.ok and check.field == "evidence.clause"


def test_reverify_search_tampering():
    cert = search_certificate(decide_existence(cyclic(2), 3))
    check = reverify(tampered(cert, evidence__examined=17))
    assert not check.ok and check.field == "evidence.examined"
    # claiming searched nonexistence for a pair that has witnesses, with
    # the pair's own sizes, so that only the rerun can refute it
    profiles, total = space_size(cyclic(6), 3)
    lying = tampered(cert, group__table=cyclic(6).to_json()["table"],
                     group__order=6, evidence__group_order=6,
                     evidence__profiles=profiles, evidence__total_space=total)
    check = reverify(lying)
    assert not check.ok and check.field == "kind"
    assert "finds a witness" in check.detail


def no_rerun(*args, **kwargs):
    raise AssertionError("the search was rerun")


def test_reverify_counts_the_claimed_sizes_before_the_rerun(monkeypatch):
    cert = search_certificate(decide_existence(cyclic(2), 3))
    monkeypatch.setattr(mhaar.search, "decide_existence", no_rerun)
    for dotted, bad, field in [("evidence__total_space", 5, "evidence.total_space"),
                               ("evidence__profiles", 4, "evidence.profiles"),
                               ("evidence__total_space", None, "evidence.total_space")]:
        check = reverify(tampered(cert, **{dotted: bad}))
        assert not check.ok and check.field == field
    # C2 has 7-part witnesses; the edited claim fails at its counts, in
    # about a second, without a rerun
    start = time.perf_counter()
    check = reverify(tampered(cert, m=7))
    assert time.perf_counter() - start < 10
    assert (check.field, check.detail) == ("evidence.profiles",
                                            "claimed 3, recomputed 302889")


def test_reverify_of_an_edited_search_certificate_stops_at_a_witness():
    # C2 has 6-part witnesses; the rerun stops at the first one instead of
    # walking the rest of the space
    cert = search_certificate(decide_existence(cyclic(2), 3))
    profiles, total = space_size(cyclic(2), 6)
    start = time.perf_counter()
    check = reverify(tampered(cert, m=6, evidence__profiles=profiles,
                              evidence__total_space=total))
    assert time.perf_counter() - start < 5
    assert not check.ok and check.field == "kind"
    assert "finds a witness for C2, m=6" in check.detail


def test_reverify_garbage_inputs():
    assert reverify("{not json").field == "json"
    assert reverify("[1, 2]").field == "json"
    assert reverify("[" * 100_000 + "]" * 100_000).field == "json"
    assert not reverify("{}").ok
    check = CertificateCheck(True)
    assert bool(check) and str(check) == "certificate verifies"
