"""Command line driver: exit codes, output shapes, file side effects."""

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mhaar
from mhaar.catalog import build_entry, entries
from mhaar.cayley import ConnectionMatrix, load_matrix
from mhaar.cli import (
    EXIT_BOUNDARY,
    EXIT_CAPACITY,
    EXIT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
)
from mhaar.formats import from_graph6, to_graph6
from mhaar.groups import cyclic
from mhaar.report import reverify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- synthesize ------------------------------------------------------------------


def test_synthesize_witness(capsys):
    code, out, err = run(capsys, "synthesize", "--group", "C6", "-m", "3")
    assert code == EXIT_OK
    assert "witness via catalog entry" in err
    assert "valencies: (4, 4, 4)" in err
    cert = json.loads(out)
    assert cert["kind"] == "hgr"
    assert cert["evidence"]["aut_order"] == 6
    assert reverify(cert).ok


def test_synthesize_boundary_m2(capsys):
    code, out, err = run(capsys, "synthesize", "--group", "C6", "-m", "2")
    assert code == EXIT_BOUNDARY
    assert out == ""
    assert "outside the classification" in err
    assert "mhaar search" in err


def test_synthesize_negative(capsys):
    code, out, err = run(capsys, "synthesize", "--group", "D6", "-m", "3")
    assert code == EXIT_NEGATIVE
    assert "no witness exists (classification clause a)" in err
    cert = json.loads(out)
    assert cert["kind"] == "nonexistence-classified"
    assert cert["evidence"]["clause"] == "a"


def test_synthesize_bad_inputs(capsys):
    code, _, err = run(capsys, "synthesize", "--group", "F20", "-m", "3")
    assert code == EXIT_ERROR and "error:" in err
    code, _, err = run(capsys, "synthesize", "--group", "C6", "-m", "1")
    assert code == EXIT_ERROR and "m must be >= 3" in err


def test_synthesize_no_verify(capsys):
    code, out, err = run(capsys, "synthesize", "--group", "C6", "-m", "3",
                         "--no-verify")
    assert code == EXIT_OK
    assert out == ""
    assert "verification skipped" in err



def test_synthesize_no_verify_writes_no_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, "synthesize", "--group", "C6", "-m", "3",
                         "--no-verify", "--certificate", str(cert_path))
    assert code == EXIT_OK
    assert out == ""
    assert f"certificate not written to {cert_path}" in err
    assert "certificate written" not in err
    assert not cert_path.exists()

    # a classified negative still writes its certificate
    code, out, err = run(capsys, "synthesize", "--group", "D6", "-m", "3",
                         "--no-verify", "--certificate", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert cert_path.read_text() == out
    assert json.loads(out)["kind"] == "nonexistence-classified"

def test_synthesize_output_formats(capsys, tmp_path):
    target = tmp_path / "w.json"
    code, _, err = run(capsys, "synthesize", "--group", "C6", "-m", "3",
                       "--out", str(target))
    assert code == EXIT_OK and f"witness written to {target} (json)" in err
    cm = load_matrix(str(target))
    assert cm.m == 3 and cm.group.order == 6

    target = tmp_path / "w.edges"
    code, _, _ = run(capsys, "synthesize", "--group", "C6", "-m", "3",
                     "--out", str(target), "--format", "edgelist")
    assert code == EXIT_OK
    assert target.read_text().startswith("p 18 ")

    target = tmp_path / "w.g6"
    code, _, _ = run(capsys, "synthesize", "--group", "C6", "-m", "3",
                     "--out", str(target), "--format", "graph6")
    assert code == EXIT_OK
    assert from_graph6(target.read_text().strip()).n == 18


def test_synthesize_certificate_file(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, err = run(capsys, "synthesize", "--group", "C2^3", "-m", "3",
                         "--certificate", str(cert_path))
    assert code == EXIT_OK
    assert f"certificate written to {cert_path}" in err
    assert cert_path.read_text() == out
    cert = json.loads(cert_path.read_text())
    assert cert["evidence"]["aut_order"] == 8

    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_OK
    assert "certificate verifies" in out


def test_synthesize_negative_certificate_file(capsys, tmp_path):
    cert_path = tmp_path / "none.json"
    code, out, err = run(capsys, "synthesize", "--group", "D6", "-m", "3",
                         "--certificate", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert f"certificate written to {cert_path}" in err
    assert cert_path.read_text() == out
    cert = json.loads(cert_path.read_text())
    assert cert["kind"] == "nonexistence-classified"

    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_OK
    assert "certificate verifies" in out


# -- verify ----------------------------------------------------------------------


def test_verify_witness_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    cm = build_entry(entries(tag="C6", m=3, kind="hgr")[0])
    path.write_text(json.dumps(cm.to_json()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert "verdict: 3-HGR of C6" in out
    assert "|Aut| = 6 = |G|" in out


def test_verify_rejects_symmetric_matrix(capsys, tmp_path):
    path = tmp_path / "m.json"
    cm = ConnectionMatrix(cyclic(2), 2, {(1, 2): [0, 1]})
    path.write_text(json.dumps(cm.to_json()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_NEGATIVE
    assert "not a 2-HGR" in out
    assert "automorphism group has order 8" in out


def test_verify_pgsr_kind(capsys, tmp_path):
    path = tmp_path / "m.json"
    cm = build_entry(entries(tag="C6", m=3, kind="pgsr")[0])
    path.write_text(json.dumps(cm.to_json()))
    code, out, _ = run(capsys, "verify", str(path), "--kind", "pgsr")
    assert code == EXIT_OK
    assert "verdict: 3-PGSR of C6" in out
    # the same file fails the stricter regular check
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_NEGATIVE and "not a 3-HGR" in out


def test_verify_matrix_group_never_names_a_file(capsys, tmp_path):
    # "@FILE" is a command-line form only: in a matrix file it is a bad
    # group token, even when FILE is a valid table
    table = tmp_path / "c2t.json"
    table.write_text(json.dumps(cyclic(2).to_json()))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"group": f"@{table}", "m": 3, "entries": []}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == EXIT_ERROR and out == ""
    assert "error: bad group token '@" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/matrix.json")
    assert code == EXIT_ERROR and "error:" in err


# -- search ----------------------------------------------------------------------


def test_search_negative(capsys, tmp_path):
    cert_path = tmp_path / "none.json"
    code, out, _ = run(capsys, "search", "--group", "C2", "-m", "3",
                       "--certificate", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert "none exist" in out
    assert "profiles: 3, examined: 4" in out
    cert = json.loads(cert_path.read_text())
    assert cert["kind"] == "nonexistence-search"
    assert reverify(cert).ok


def test_search_witness(capsys, tmp_path):
    out_path = tmp_path / "w.json"
    code, out, err = run(capsys, "search", "--group", "C6", "-m", "3",
                         "--out", str(out_path))
    assert code == EXIT_OK
    assert "witness found" in out
    assert "witness valencies: (4, 4, 4)" in out
    assert load_matrix(str(out_path)).m == 3


@pytest.mark.parametrize("command", ["search", "synthesize"])
@pytest.mark.parametrize("named", ["missing.json", "other.json"])
def test_witness_over_a_table_whose_descriptor_names_a_file(capsys, tmp_path,
                                                           command, named):
    # a table file's descriptor is untrusted: the witness file must carry
    # the table itself, not follow or repeat an "@file" reference
    table = cyclic(6).to_json()
    (tmp_path / "other.json").write_text(json.dumps(table))
    spec = tmp_path / "t.json"
    spec.write_text(json.dumps({**table, "descriptor": f" @{tmp_path / named}"}))
    out_path = tmp_path / "w.json"
    code, _, _ = run(capsys, command, "--group", f"@{spec}", "-m", "3",
                     "--out", str(out_path))
    assert code == EXIT_OK
    group = json.loads(out_path.read_text())["group"]
    assert isinstance(group, dict) and group["table"] == table["table"]
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == EXIT_OK and "verdict: 3-HGR" in out


def test_search_has_no_count_all(capsys):
    # the search stops at its first witness
    code, out, _ = run(capsys, "search", "--group", "C6", "-m", "3")
    assert code == EXIT_OK
    assert "examined 25/4033: witness found (1 seen)" in out
    code, _, err = run(capsys, "search", "--group", "C6", "-m", "3",
                       "--count-all")
    assert code == EXIT_ERROR and "--count-all" in err


def test_search_capacity(capsys):
    code, _, err = run(capsys, "search", "--group", "C2^2", "-m", "3",
                       "--mode", "exhaustive", "--budget", "100")
    assert code == EXIT_CAPACITY
    assert "capacity:" in err


def test_search_workers_below_1_exits_1(capsys):
    # --workers is unused, since the search runs in one process, but a
    # value below 1 is still an error
    code, out, err = run(capsys, "search", "--group", "C2", "-m", "3",
                         "--workers", "0")
    assert code == EXIT_ERROR and not out
    assert "workers must be >= 1, got 0" in err


def test_search_negative_budget_exits_1(capsys):
    # refused before the degree scan, which would exit 4 at degree 4
    code, out, err = run(capsys, "search", "--group", "C1", "-m", "11",
                         "--budget", "-5")
    assert code == EXIT_ERROR and not out
    assert "budget must be >= 0, got -5" in err


def test_search_m2_works_here(capsys):
    code, out, _ = run(capsys, "search", "--group", "C3", "-m", "2")
    assert code == EXIT_NEGATIVE
    assert "none exist" in out


# -- catalog ---------------------------------------------------------------------


def test_catalog_list_all(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert out.strip().endswith("43 entries")
    assert "C2 m=6 hgr/recorded" in out


def test_catalog_list_filtered(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--tag", "C2")
    assert code == EXIT_OK and "4 entries" in out
    code, out, _ = run(capsys, "catalog", "list", "--kind", "pgsr", "--m", "3")
    assert code == EXIT_OK
    assert all("pgsr" in line for line in out.splitlines()[:-1])


def test_catalog_build(capsys, tmp_path):
    path = tmp_path / "entry.json"
    code, out, err = run(capsys, "catalog", "list", "--tag", "C2^2",
                         "--m", "4", "--kind", "hgr", "--build", str(path))
    assert code == EXIT_OK
    assert load_matrix(str(path)).group.order == 4
    code, _, err = run(capsys, "catalog", "list", "--tag", "C2", "--m", "3",
                       "--build", str(path))
    assert code == EXIT_ERROR and "nothing to build" in err


# -- reverify --------------------------------------------------------------------


def test_reverify_catches_tampering(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "synthesize", "--group", "C6", "-m", "3",
        "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["evidence"]["aut_order"] = 12
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert "certificate fails at 'evidence.aut_order'" in out


def test_reverify_of_a_forged_search_mode_exits_3(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--group", "C2", "-m", "3", "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["evidence"]["mode"] = "bogus"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert out == ("certificate fails at 'evidence.mode': "
                   "claimed 'bogus', recomputed 'normalized'\n")


# one certificate of each kind the commands write
CERT_COMMANDS = {
    "witness": ("synthesize", "--group", "C6", "-m", "3"),
    "classified": ("synthesize", "--group", "D6", "-m", "3"),
    "search": ("search", "--group", "C2", "-m", "3"),
}
MALFORMED_M = {
    "witness": [3.5, "3", True, 1],
    "classified": [[], {}, "3", 3.5, 2, True],
    "search": [[], "3", 3.5, 1],
}


@pytest.mark.parametrize("cert_kind,key,value", [
    pytest.param("witness", "aut_generators", 5, id="aut_generators"),
    pytest.param("witness", "evidence", 5, id="evidence"),
] + [pytest.param(kind, "m", value, id=f"{kind}-m-{value!r}")
     for kind, values in MALFORMED_M.items() for value in values])
def test_reverify_names_malformed_fields(capsys, tmp_path, cert_kind, key, value):
    cert_path = tmp_path / "cert.json"
    run(capsys, *CERT_COMMANDS[cert_kind], "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert[key] = value
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert f"certificate fails at '{key}'" in out


# a field equal to the recomputed value in a different JSON type
WRONG_TYPE = [
    pytest.param(CERT_COMMANDS["witness"], ["evidence", "aut_order"], 6.0,
                 "'evidence.aut_order': claimed 6.0, recomputed 6", id="aut_order"),
    pytest.param(CERT_COMMANDS["witness"], ["evidence", "regular"], 1,
                 "'evidence.regular': claimed 1, recomputed True", id="regular"),
    pytest.param(CERT_COMMANDS["witness"], ["evidence", "valencies"], [4.0, 4, 4],
                 "'evidence.valencies': claimed [4.0, 4, 4], recomputed [4, 4, 4]",
                 id="valencies"),
    pytest.param(("search", "--group", "C2^2", "-m", "3"), ["evidence", "witnesses"],
                 False, "'evidence.witnesses': claimed False, recomputed 0",
                 id="witnesses"),
    pytest.param(("search", "--group", "C2^2", "-m", "3"), ["evidence", "examined"],
                 96.0, "'evidence.examined': claimed 96.0, recomputed 96",
                 id="examined"),
    pytest.param(CERT_COMMANDS["witness"], ["schema"], True,
                 "'schema': unsupported schema True, expected 1", id="schema"),
]


@pytest.mark.parametrize("command,path,value,failure", WRONG_TYPE)
def test_reverify_checks_json_types(capsys, tmp_path, command, path, value,
                                    failure):
    cert_path = tmp_path / "cert.json"
    run(capsys, *command, "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    code, _, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_OK  # the genuine certificate
    *parents, key = path
    node = cert
    for parent in parents:
        node = node[parent]
    assert node[key] == value and json.dumps(node[key]) != json.dumps(value)
    node[key] = value
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_NEGATIVE
    assert out == f"certificate fails at {failure}\n"


# a malformed group is named in the words of Group.from_json
MALFORMED_GROUP = [
    pytest.param({}, "group", "needs 'order' and 'table' keys", id="empty"),
    pytest.param([], "group", "needs 'order' and 'table' keys", id="list"),
    pytest.param({"order": 2, "table": [[0, "1"], ["1", 0]]}, "group.table",
                 "must be a list of integer lists", id="str-entries"),
    pytest.param({"order": 2, "table": [[0, 1], [1, 1]]}, "group.table",
                 "not a permutation", id="not-latin"),
    pytest.param({"order": "2", "table": [[0, 1], [1, 0]]}, "group.order",
                 "does not match", id="order-str"),
]


@pytest.mark.parametrize("cert_kind", sorted(CERT_COMMANDS))
@pytest.mark.parametrize("value,field,words", MALFORMED_GROUP)
def test_reverify_names_a_malformed_group(capsys, tmp_path, cert_kind, value,
                                          field, words):
    cert_path = tmp_path / "cert.json"
    run(capsys, *CERT_COMMANDS[cert_kind], "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["group"] = value
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "reverify", str(cert_path))
    assert code == EXIT_NEGATIVE and not err
    assert f"certificate fails at '{field}': " in out and words in out


# -- oracle-aut ------------------------------------------------------------------


def petersen_g6():
    from mhaar.graphs import Graph
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return to_graph6(Graph.from_edges(10, outer + spokes + inner))


def test_oracle_aut_graph6(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(petersen_g6() + "\n")
    code, out, _ = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_OK
    assert "|Aut| = 120" in out
    assert "cross-check skipped" in out  # 10 vertices is past the brute cap


def test_oracle_aut_cross_check(capsys, tmp_path):
    from mhaar.graphs import Graph
    path = tmp_path / "c5.edges"
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    path.write_text("p 5 5\n" + "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n")
    code, out, _ = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_OK
    assert "|Aut| = 10" in out
    assert "brute-force cross-check: 10 (agree)" in out


def test_oracle_aut_generators_flag(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(petersen_g6() + "\n")
    code, out, _ = run(capsys, "oracle-aut", str(path), "--generators")
    perm_lines = [l for l in out.splitlines()
                  if l and l[0].isdigit() and len(l.split()) == 10]
    assert perm_lines, out
    assert all(sorted(map(int, l.split())) == list(range(10)) for l in perm_lines)


@pytest.mark.parametrize("text", ["  # indented\np 3 1\n0 1\n",
                                  "p 3 1\n  # indented\n0 1\n"],
                         ids=["before-header", "between-edges"])
def test_oracle_aut_skips_indented_comment_lines(capsys, tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    code, out, _ = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_OK
    assert "graph: 3 vertices, 1 edges" in out


def test_oracle_aut_names_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("text,byte", [(">?", 62), ("!", 33), ("~?!?", 33)])
def test_oracle_aut_refuses_a_graph6_header_byte_below_63(capsys, tmp_path, text, byte):
    # such a byte used to decode to a negative vertex count
    path = tmp_path / "g.g6"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "oracle-aut", str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: bad graph6 byte {byte}\n"


def test_every_input_file_is_read_up_to_a_byte_cap(capsys, tmp_path, monkeypatch):
    from mhaar.graphs import input_byte_cap, read_input
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "8")
    limit = input_byte_cap()
    assert limit == 1 << 16  # the floor: 16 * 8 * 8 bytes is less
    at = tmp_path / "at.txt"
    at.write_text("#" * limit)
    assert len(read_input(str(at))) == limit
    over = tmp_path / "over.json"
    over.write_text(" " * limit + "{}")  # valid JSON, one byte too long
    for argv in (("oracle-aut", str(over)), ("verify", str(over)),
                 ("reverify", str(over)), ("search", "--group", f"@{over}", "-m", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CAPACITY, ""), argv
        assert f"{over}: over {limit} bytes, the input cap for 8 vertices" in err


def test_the_byte_cap_admits_k1024_and_a_1024_element_table(monkeypatch):
    from mhaar.graphs import input_byte_cap
    monkeypatch.delenv("MHAAR_MAX_VERTICES", raising=False)
    edges = sum(len(f"{u} {v}\n") for v in range(1024) for u in range(v))
    table = 1024 * 1024 * len("1023, ")
    assert max(edges, table) < 7_000_000 < input_byte_cap() // 2


def test_oracle_aut_names_a_graph6_line_that_is_not_ascii(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(petersen_g6().replace("h", "é", 1) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_ERROR and out == ""
    assert err == "error: graph6 is ASCII, but character 'é' at position 1 is not\n"


def test_oracle_aut_missing_file(capsys):
    code, _, err = run(capsys, "oracle-aut", "/nonexistent/g.g6")
    assert code == EXIT_ERROR and "error:" in err


def test_malformed_vertex_cap_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "g.g6"
    path.write_text(petersen_g6() + "\n")
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "abc")
    code, out, err = run(capsys, "oracle-aut", str(path))
    assert code == EXIT_ERROR
    assert "MHAAR_MAX_VERTICES" in err and out == ""


def test_usage_error_exits_1(capsys):
    # argparse alone exits 2, the code of the m=2 boundary answer
    code, out, err = run(capsys, "synthesize", "--group", "C6")
    assert code == EXIT_ERROR
    assert out == "" and "-m" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- fresh processes -------------------------------------------------------------

SRC = Path(mhaar.__file__).resolve().parent.parent


def fresh(*argv, code=None):
    """Run `python -m mhaar ARGV` (or `python -c CODE ARGV`) in a new
    interpreter with a 1 GiB address-space limit, so a regression that
    allocates without bound fails with MemoryError instead of filling
    the machine's memory."""
    env = {k: v for k, v in os.environ.items() if k != "MHAAR_MAX_VERTICES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    prefix = ["-c", code] if code else ["-m", "mhaar"]
    return subprocess.run([sys.executable, *prefix, *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit, timeout=120)


HOSTILE = {
    "negative-n": ("oracle-aut", "p -3 0\n", EXIT_ERROR, "'p -3 0'"),
    "huge-n": ("oracle-aut", "p 99999999999 0\n", EXIT_CAPACITY, "99999999999 vertices"),
    "short-edge-line": ("oracle-aut", "p 3 1\n1\n", EXIT_ERROR, "edge line '1'"),
    # a graph6 header of 1025 vertices with no body
    "graph6-over-cap": ("oracle-aut", "~?O@\n", EXIT_CAPACITY, "1025 vertices"),
    "m-string": ("verify", {"group": "C3", "m": "3"}, EXIT_ERROR, "'m'"),
    "m-float": ("verify", {"group": "C3", "m": 3.5}, EXIT_ERROR, "'m'"),
    "no-elems": ("verify", {"group": "C3", "m": 2, "entries": [{"i": 1, "j": 2}]},
                 EXIT_ERROR, "'elems'"),
    "huge-m": ("verify", {"group": "C3", "m": 2000000000}, EXIT_CAPACITY,
               "6000000000 vertices"),
    "huge-group": ("verify", {"group": "C99999999", "m": 2}, EXIT_CAPACITY, "'C99999999'"),
    "trivial-factors": ("verify", {"group": "C1^99999999999", "m": 2}, EXIT_CAPACITY,
                        "99999999999 factors"),
    "bad-table": ("verify", {"group": {"order": 1, "table": [5]}, "m": 2}, EXIT_ERROR,
                  "'table'"),
}


@pytest.mark.parametrize("command, content, expected, message",
                         HOSTILE.values(), ids=HOSTILE)
def test_hostile_files_exit_cleanly(tmp_path, command, content, expected, message):
    path = tmp_path / "input"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    proc = fresh(command, str(path))
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_reverify_of_a_float_entry_index_exits_3(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, *CERT_COMMANDS["witness"], "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["matrix"][0]["i"] = 1.0
    cert_path.write_text(json.dumps(cert))
    proc = fresh("reverify", str(cert_path))
    assert proc.returncode == EXIT_NEGATIVE
    assert "certificate fails at 'matrix'" in proc.stdout
    assert "Traceback" not in proc.stderr


# every command that reads a JSON file reads it with groups.read_json
DEEP_JSON_READERS = {
    "verify": ("verify", "{}"),
    "reverify": ("reverify", "{}"),
    "search-group-file": ("search", "--group", "@{}", "-m", "3"),
}


@pytest.mark.parametrize("argv", DEEP_JSON_READERS.values(), ids=DEEP_JSON_READERS)
def test_deeply_nested_json_exits_1(tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = fresh(*(arg.format(path) for arg in argv))
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"error: {path}: JSON nested too deeply" in proc.stderr


def test_invalid_json_certificate_exits_1(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text('{"schema": 1, ')
    code, out, err = run(capsys, "reverify", str(path))
    assert code == EXIT_ERROR and out == ""
    assert f"{path}: invalid JSON" in err


def test_group_table_over_the_cap_is_refused_before_validation(
        tmp_path, capsys, monkeypatch):
    import mhaar.groups
    from mhaar.groups import dihedral
    from mhaar.report import nonexistence_certificate

    table = tmp_path / "c12.json"
    table.write_text(json.dumps(cyclic(12).to_json()))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"group": cyclic(12).to_json(), "m": 2}))
    cert = tmp_path / "cert.json"
    # a classified certificate: D6 at m = 3, the largest classified group
    cert.write_text(json.dumps(nonexistence_certificate(dihedral(6), 3, "a")))

    def refuse(self):
        raise AssertionError("validated a table over the cap")

    monkeypatch.setattr(mhaar.groups.Group, "_validate", refuse)
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "5")
    for argv, order in ((("search", "--group", f"@{table}", "-m", "2"), 12),
                        (("verify", str(matrix)), 12),
                        (("reverify", str(cert)), 6)):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CAPACITY, (argv, err)
        assert f"group table has order {order}, over the vertex cap of 5" in err


def test_parts_over_the_vertex_cap_exit_at_once():
    for argv in (("synthesize", "--group", "C6", "-m", "99999999999"),
                 ("search", "--group", "C3", "-m", "99999")):
        proc = fresh(*argv)
        assert proc.returncode == EXIT_CAPACITY, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "over the cap of 1024" in proc.stderr


@pytest.mark.parametrize("group,m", [("C2", 8), ("C2", 10), ("C2", 12), ("C2", 50),
                                     ("C2", 512), ("C3", 341), ("C4", 256)])
def test_search_with_many_parts_exits_4_at_once(group, m):
    # the counted space passes the budget at a low valency (C2/8 at 5,
    # C2/50 at 1 with its 49!! perfect matchings), before any profile is
    # walked, and the count keeps no recursion per part or per cell
    start = time.perf_counter()
    proc = fresh("search", "--group", group, "-m", str(m))
    assert time.perf_counter() - start < 2
    assert proc.returncode == EXIT_CAPACITY, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "exceeds the budget of 100000000 candidates" in proc.stderr


@pytest.mark.parametrize("m", [8, 12])
def test_reverify_of_a_search_certificate_with_many_parts_exits_4_at_once(
        capsys, tmp_path, m):
    cert_path = tmp_path / "cert.json"
    run(capsys, *CERT_COMMANDS["search"], "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["m"] = m
    cert_path.write_text(json.dumps(cert))
    start = time.perf_counter()
    proc = fresh("reverify", str(cert_path))
    assert time.perf_counter() - start < 2
    assert proc.returncode == EXIT_CAPACITY, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert "exceeds the budget" in proc.stderr


def test_exhaustive_search_counted_within_the_budget_is_decided(capsys):
    # C2/3 has 10 exhaustive candidates: a budget of 20 admits them all,
    # and the profile walk charges nothing of its own
    code, out, err = run(capsys, "search", "--group", "C2", "-m", "3",
                         "--mode", "exhaustive", "--budget", "20")
    assert code == EXIT_NEGATIVE and not err
    assert out.splitlines()[0] == "C2 m=3 [exhaustive] examined 10/10: none exist"


# the paper gives C2 an m-HGR for every m >= 6; at m = 7 the normalized
# count (302,889 profiles) sizes the space without walking it. The time
# bounds hold with a slow interpreter start
def test_search_c2_m7_counts_its_space_and_finds_a_witness():
    start = time.perf_counter()
    proc = fresh("search", "--group", "C2", "-m", "7")
    assert time.perf_counter() - start < 10
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0] == (
        "C2 m=7 [normalized] examined 6412/23106776: witness found (1 seen)")


def test_search_c3_m6_is_refused_by_its_count():
    # 737,396,860 normalized candidates
    start = time.perf_counter()
    proc = fresh("search", "--group", "C3", "-m", "6")
    assert time.perf_counter() - start < 10
    assert proc.returncode == EXIT_CAPACITY, proc.stderr
    assert "exceeds the budget of 100000000 candidates" in proc.stderr


def test_reverify_of_a_search_certificate_edited_to_m7(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, *CERT_COMMANDS["search"], "--certificate", str(cert_path))
    cert = json.loads(cert_path.read_text())
    cert["m"] = 7
    for recounted, field in [(False, "evidence.profiles"), (True, "kind")]:
        if recounted:  # the true sizes reach the rerun, which finds a witness
            cert["evidence"].update(profiles=302_889, total_space=23_106_776)
        cert_path.write_text(json.dumps(cert))
        start = time.perf_counter()
        proc = fresh("reverify", str(cert_path))
        assert time.perf_counter() - start < 10
        assert proc.returncode == EXIT_NEGATIVE, proc.stderr
        assert f"certificate fails at '{field}'" in proc.stdout


LIST_MODULES = ("import sys, mhaar.cli\n"
                "rc = mhaar.cli.main(sys.argv[1:])\n"
                "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
                "sys.exit(rc)\n")


def loaded_modules(*argv, expect=EXIT_OK):
    """The modules a fresh `mhaar ARGV` has loaded when it exits; no
    command loads dataclasses (with inspect, ast and dis behind it), nor
    argparse (with gettext and locale)."""
    proc = fresh(*argv, code=LIST_MODULES)
    assert proc.returncode == expect, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert not loaded & {"dataclasses", "argparse", "gettext", "locale"}, argv
    return loaded


def test_each_command_loads_only_its_modules(tmp_path):
    graph = tmp_path / "petersen.g6"
    graph.write_text(petersen_g6() + "\n")
    matrix = tmp_path / "c6.json"
    cm = build_entry(entries(tag="C6", m=3, kind="hgr")[0])
    matrix.write_text(json.dumps(cm.to_json()))
    witness, classified, searched = (str(tmp_path / f"{name}.cert")
                                     for name in ("witness", "classified", "search"))

    loaded = loaded_modules("oracle-aut", str(graph))
    assert {m for m in loaded if m.startswith("mhaar")} == {
        "mhaar", "mhaar.cli", "mhaar.graphs", "mhaar.formats", "mhaar.autos"}
    assert "multiprocessing" not in loaded and "json" not in loaded

    loaded = loaded_modules("synthesize", "--group", "C6", "-m", "3",
                            "--certificate", witness)
    assert "mhaar.search" not in loaded and "multiprocessing" not in loaded
    loaded_modules("synthesize", "--group", "D6", "-m", "3", "--certificate", classified,
                   expect=EXIT_NEGATIVE)

    loaded = loaded_modules("verify", str(matrix))
    assert "mhaar.cayley" in loaded
    for name in ("catalog", "constructions", "lift", "report", "search"):
        assert f"mhaar.{name}" not in loaded

    # the degree scan imports catalog only for a witness, and search
    # imports report only to write a certificate
    loaded = loaded_modules("search", "--group", "C4", "-m", "3", expect=EXIT_NEGATIVE)
    assert "mhaar.catalog" not in loaded and "mhaar.report" not in loaded
    assert "json" not in loaded
    loaded_modules("search", "--group", "C4", "-m", "3", "--certificate", searched,
                   expect=EXIT_NEGATIVE)
    # --workers starts no pool and changes nothing the search prints
    loaded = loaded_modules("search", "--group", "D6", "-m", "3", "--workers", "2",
                            expect=EXIT_NEGATIVE)
    assert "multiprocessing" not in loaded
    procs = [fresh("search", "--group", "D6", "-m", "3", *flag)
             for flag in ((), ("--workers", "2"))]
    assert [proc.returncode for proc in procs] == [EXIT_NEGATIVE] * 2
    assert len({re.sub(r"elapsed: \S+", "elapsed:", proc.stdout)
                for proc in procs}) == 1

    for cert in (witness, classified, searched):
        loaded_modules("reverify", cert)


def test_printed_records_are_pinned():
    # the lines the commands print from each result record, passing and failing
    from mhaar.autos import is_m_hgr
    from mhaar.constructions import synthesize
    from mhaar.groups import dihedral
    from mhaar.report import certificate_json
    from mhaar.search import decide_existence

    assert [str(synthesize(g, 3)) for g in (cyclic(6), dihedral(6))] == [
        "C6 m=3: witness via catalog entry [C6 m=3 hgr/recorded v=(4, 4, 4)], |Aut|=6",
        "D6 m=3: no witness exists (classification clause a)"]
    assert [str(decide_existence(cyclic(n), 3)) for n in (6, 4)] == [
        "C6 m=3 [normalized] examined 25/4033: witness found (1 seen)",
        "C4 m=3 [normalized] examined 96/96: none exist"]
    hgr, pgsr = (entries(tag="C6", m=3, kind=kind)[0] for kind in ("hgr", "pgsr"))
    assert [str(hgr), str(pgsr)] == ["C6 m=3 hgr/recorded v=(4, 4, 4)",
                                     "C6 m=3 pgsr/recorded k=3 v=(4, 3, 3)"]
    assert [bool(is_m_hgr(build_entry(e))) for e in (hgr, pgsr)] == [True, False]
    cert = json.loads(certificate_json(synthesize(cyclic(6), 3)))
    good = reverify(cert)
    cert["evidence"]["aut_order"] = 12
    bad = reverify(cert)
    assert [bool(good), bool(bad)] == [True, False]
    assert [str(good), str(bad)] == [
        "certificate verifies",
        "certificate fails at 'evidence.aut_order': claimed 12, recomputed 6"]


def test_every_exported_name_resolves():
    import importlib
    # each export is named once, under one module
    assert sorted(mhaar.__all__) == sorted(
        [name for names in mhaar._EXPORTS.values() for name in names] + ["__version__"])
    for name in mhaar.__all__:
        value = getattr(mhaar, name)
        if name != "__version__":
            module = importlib.import_module(f"mhaar.{mhaar._MODULE_OF[name]}")
            assert value is getattr(module, name)
    assert set(mhaar.__all__) <= set(dir(mhaar))
    with pytest.raises(AttributeError):
        mhaar.no_such_name
