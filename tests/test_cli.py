"""Command line driver: exit codes, output shapes, file side effects."""

import json
import os
import resource
import subprocess
import sys
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


def test_search_count_all(capsys):
    code, out, _ = run(capsys, "search", "--group", "C6", "-m", "3",
                       "--count-all")
    assert code == EXIT_OK
    assert "examined 4033/4033" in out
    assert "(672 seen)" in out


def test_search_capacity(capsys):
    code, _, err = run(capsys, "search", "--group", "C2^2", "-m", "3",
                       "--mode", "exhaustive", "--budget", "100")
    assert code == EXIT_CAPACITY
    assert "capacity:" in err


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


def test_parts_over_the_vertex_cap_exit_at_once():
    for argv in (("synthesize", "--group", "C6", "-m", "99999999999"),
                 ("search", "--group", "C3", "-m", "99999")):
        proc = fresh(*argv)
        assert proc.returncode == EXIT_CAPACITY, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "over the cap of 1024" in proc.stderr


LIST_MODULES = ("import sys, mhaar.cli\n"
                "rc = mhaar.cli.main(sys.argv[1:])\n"
                "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
                "sys.exit(rc)\n")


def loaded_modules(*argv):
    proc = fresh(*argv, code=LIST_MODULES)
    assert proc.returncode == EXIT_OK, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_each_command_loads_only_its_modules(tmp_path):
    graph = tmp_path / "petersen.g6"
    graph.write_text(petersen_g6() + "\n")
    matrix = tmp_path / "c6.json"
    cm = build_entry(entries(tag="C6", m=3, kind="hgr")[0])
    matrix.write_text(json.dumps(cm.to_json()))

    loaded = loaded_modules("oracle-aut", str(graph))
    assert {m for m in loaded if m.startswith("mhaar")} == {
        "mhaar", "mhaar.cli", "mhaar.graphs", "mhaar.formats", "mhaar.autos"}
    assert "multiprocessing" not in loaded

    loaded = loaded_modules("synthesize", "--group", "C6", "-m", "3")
    assert "mhaar.search" not in loaded and "multiprocessing" not in loaded

    loaded = loaded_modules("verify", str(matrix))
    assert "mhaar.cayley" in loaded
    for name in ("catalog", "constructions", "lift", "report", "search"):
        assert f"mhaar.{name}" not in loaded


def test_every_exported_name_resolves():
    import importlib
    assert set(mhaar.__all__) == set(mhaar._MODULE_OF) | {"__version__"}
    for name in mhaar.__all__:
        value = getattr(mhaar, name)
        if name != "__version__":
            module = importlib.import_module(f"mhaar.{mhaar._MODULE_OF[name]}")
            assert value is getattr(module, name)
    assert set(mhaar.__all__) <= set(dir(mhaar))
    with pytest.raises(AttributeError):
        mhaar.no_such_name
