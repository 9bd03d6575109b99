"""Tests for the benchmark itself: span arithmetic, wrapping, the gate.

    python -m pytest perfbench
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, counts=None, cmd=0):
    return [name, start, end, parent, cmd, counts]


def test_self_time_on_a_small_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, None),                 # 0
        _span("autos.is_m_hgr", 1.0, 4.0, 0),               # 1
        _span("autos.automorphism_group", 1.5, 3.5, 1,
              {"vertices": 20, "nodes": 3, "generators": 1}),  # 2
        _span("groups.minimal_generating_set", 5.0, 9.0, 0),  # 3
        _span("groups.minimal_generating_size", 6.0, 8.0, 3),  # 4
    ]
    assert spans.self_times(tree) == [3.0, 1.0, 2.0, 2.0, 2.0]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 3.0
    assert m["autos.verdict_self_s"] == 1.0
    # the nested rank call is covered by its caller, not counted twice
    assert m["groups.rank_s"] == 4.0
    assert m["groups.rank_calls"] == 1
    assert m["autos.aut_s"] == 2.0
    assert m["autos.aut_vertices"] == 20
    assert m["autos.ms_per_call"] == 2000.0
    assert m["search.examined"] == 0


def test_evidence_runs_count_engine_calls_under_each_claim_check():
    tree = [_span("cli.main", 0, 9, None)]
    for k, caller in enumerate(spans.EVIDENCE):
        tree.append(_span(caller, 3 * k, 3 * k + 2, 0))
        tree.append(_span(spans.AUT, 3 * k, 3 * k + 1, len(tree) - 1))
    assert spans.layer_metrics(tree)["autos.evidence_runs_per_witness"] == 3


def test_wrappers_trace_imported_names_and_restore_them():
    import mhaar.autos
    import mhaar.groups
    import mhaar.report
    import mhaar.search
    from mhaar.graphs import Graph

    original = mhaar.autos.automorphism_group
    init = mhaar.groups.Group.__init__
    tracer = spans.Tracer(cmd=7)
    tracer.install()
    try:
        assert mhaar.search.automorphism_group is not original
        assert mhaar.report.automorphism_group is mhaar.autos.automorphism_group
        assert mhaar.groups.Group.__init__ is not init
        cycle = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert mhaar.search.automorphism_group(cycle).order == 10
    finally:
        tracer.restore()
    assert mhaar.autos.automorphism_group is original
    assert mhaar.search.automorphism_group is original
    assert mhaar.report.automorphism_group is original
    assert mhaar.autos.automorphisms is original
    assert mhaar.groups.Group.__init__ is init
    [span] = tracer.spans
    assert span[spans.NAME] == spans.AUT and span[spans.CMD] == 7
    assert span[spans.COUNTS]["vertices"] == 5


def test_speed_scale_is_reference_over_median_probe_time():
    probe = run.SpeedProbe(min(os.sched_getaffinity(0)))
    probe.close()
    ref = run.REF_PROBE_S
    probe.samples = [(1.0, 2 * ref), (2.0, 4 * ref), (3.0, 2 * ref), (4.0, 8 * ref)]
    assert probe.scale(0.5, 3.5) == 0.5
    assert probe.scale(1.5, 2.5) == 0.25
    # no sample inside: the last three before the end
    assert probe.scale(4.5, 4.6) == 0.25


def test_gate_flags_wrong_exit_code_and_wrong_aut():
    [cmd] = workloads.oracle_commands([(Path("petersen.g6"), 10, 120)])
    good = "graph: 10 vertices, 15 edges\n|Aut| = 120\norbits: 1\n"
    assert gate.check(cmd, 0, good) is None
    assert "exit code 1" in gate.check(cmd, 1, good)
    assert gate.check(cmd, 0, good.replace("120", "1200")) is not None
    assert gate.check(cmd, 0, good.replace("120", "12")) is not None


def test_gate_checks_the_certificate_aut_order():
    cmd = gate.Cmd(["synthesize"], rc=0, cert_kind="hgr", cert_aut_order=8)
    cert = {"kind": "hgr", "evidence": {"aut_order": 8}}
    assert gate.check(cmd, 0, json.dumps(cert)) is None
    cert["evidence"]["aut_order"] = 16
    assert "aut_order 16" in gate.check(cmd, 0, json.dumps(cert))
    assert gate.check(cmd, 0, "not json") is not None


@pytest.mark.parametrize("spec", sorted(
    {s for s, _ in workloads.SYNTH_WITNESSES + workloads.SYNTH_NEGATIVES
     + workloads.SEARCH_NORMALIZED + workloads.SEARCH_M2}))
def test_group_orders_match_the_parser(spec):
    from mhaar.groups import parse_group_spec
    assert workloads.group_order(spec) == parse_group_spec(spec).order


def test_oracle_inputs_decode_to_the_generated_graphs(tmp_path):
    from mhaar.formats import from_edgelist, from_graph6
    for path, n, aut in workloads.write_oracle_inputs(tmp_path, seed=5):
        text = path.read_text()
        g = from_graph6(text) if path.suffix == ".g6" else from_edgelist(text)
        assert g.n == n
        if n <= 10:
            from mhaar.autos import brute_force_aut_order
            assert brute_force_aut_order(g, limit=10) == aut


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
