"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import forwardperf.tree_verifier  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.NOMINAL_S))
def test_generation_is_deterministic(tmp_path, workload):
    count = workloads.scenario_count(workload, 10)
    a, digest_a = child.write_scenarios(workload, 7, count, tmp_path / "a")
    b, digest_b = child.write_scenarios(workload, 7, count, tmp_path / "b")
    _, digest_c = child.write_scenarios(workload, 8, count, tmp_path / "c")
    assert digest_a == digest_b != digest_c
    for (name_a, path_a), (name_b, path_b) in zip(a, b):
        assert name_a == name_b
        assert open(path_a, "rb").read() == open(path_b, "rb").read()


def _shape(doc):
    if doc["kind"] == "tree-verify":
        return [(n["id"], n["time"], len(n["branches"])) for n in doc["tree"]["nodes"]]
    return sorted(k for k in doc if k != "seed")


@pytest.mark.parametrize("workload", sorted(workloads.NOMINAL_S))
def test_seed_changes_values_not_shape(workload):
    count = workloads.scenario_count(workload, 10)
    one = workloads.generate(workload, 1, count)
    two = workloads.generate(workload, 2, count)
    assert [n for n, _ in one] == [n for n, _ in two]
    assert [_shape(d) for _, d in one] == [_shape(d) for _, d in two]


def test_deep_tree_has_57_nodes():
    (_, doc), = workloads.generate("tree-deep", 3, 1)
    assert len(doc["tree"]["nodes"]) == 57


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_arithmetic():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 3.0, 6.0, 0),  # overlaps b: union of children is [1, 6]
        _span("d", 9.0, 12.0, 0),  # runs past its parent: clipped to [9, 10]
        _span("e", 2.0, 3.0, 1),
        _span("a", 4.5, 5.5, 2),  # recursion: not counted twice in "a.s"
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 3.0, 1.0, 1.0])
    rows = tracer.summarize(spans)
    assert rows["a"] == pytest.approx({"calls": 2, "s": 10.0, "self_s": 5.0})
    assert rows["c"] == pytest.approx({"calls": 1, "s": 3.0, "self_s": 2.0})
    assert tracer.top_level_coverage(spans, 12.5) == pytest.approx(0.8)


def _scenario_files(tmp_path):
    (solved_name, solved), _ = workloads.generate("tree-suite", 5, 2)
    malformed = dict(solved, bogus_key=1)
    # explicit gamma that no portfolio replicates: solve_entropy_shift raises
    # a ValueError, which escapes cli.main
    raising = {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": {
            "horizon": 1,
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "branches": [
                        {"child": "u", "prob": 0.5, "dprice": 1.0},
                        {"child": "d", "prob": 0.5, "dprice": -1.0},
                    ],
                },
                {"id": "u", "time": 1, "branches": []},
                {"id": "d", "time": 1, "branches": []},
            ],
        },
        "gamma": {"mode": "explicit", "values": {"r": 1.0, "u": 1.0, "d": 3.0}},
        "a_shift": {"mode": "solve", "terminal": 0.0},
    }
    out = []
    for name, doc in (
        (solved_name, solved),
        ("900-solved", malformed),
        ("901-solved", raising),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(workloads.dumps(doc))
        out.append((name, str(path)))
    return out


def test_malformed_and_raising_scenarios_count_as_failed(tmp_path):
    rows, wall = child.run_loop(_scenario_files(tmp_path), str(tmp_path / "reports"))
    child.judge_rows(rows)
    errors = [row["error"] for row in rows]
    assert errors[0] is None
    assert errors[1] == "no report (exit 2)"
    assert errors[2].startswith("ValueError")
    assert wall >= sum(row["seconds"] for row in rows)


def test_traced_loop_restores_bindings_and_keeps_bytes(tmp_path):
    scenarios = _scenario_files(tmp_path)[:1]
    plain, _ = child.run_loop(scenarios, str(tmp_path / "plain"))
    original = forwardperf.tree_verifier.barrier_minimize
    t = tracer.Tracer()
    t.install()
    try:
        assert forwardperf.tree_verifier.barrier_minimize is not original
        traced, wall = child.run_loop(scenarios, str(tmp_path / "traced"), t)
    finally:
        t.uninstall()
    assert forwardperf.tree_verifier.barrier_minimize is original
    child.judge_rows(plain)
    child.judge_rows(traced)
    assert traced[0]["error"] is None
    assert traced[0]["sha256"] == plain[0]["sha256"]
    layers = child.layer_metrics(t, wall)
    assert layers["solvers.barrier_minimize.calls"] > 0
    assert layers["solvers.barrier_minimize.newton_iterations"] > 0
    assert layers["fields.entropy_kernel.calls"] > 0
    assert 0.95 <= layers["trace.coverage"] <= 1.0
    assert {s[4] for s in t.spans} == {0}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NOMINAL_S)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_ledger_fails_a_report_that_changes(tmp_path):
    (tmp_path / "000-solved.json").write_text("{}")
    ledger = str(tmp_path / "ledger.json")
    first = [{"name": "000-solved", "sha256": "aa", "error": None}]
    run.check_ledger(ledger, "src", str(tmp_path), first)
    again = [{"name": "000-solved", "sha256": "aa", "error": None}]
    run.check_ledger(ledger, "src", str(tmp_path), again)
    changed = [{"name": "000-solved", "sha256": "bb", "error": None}]
    run.check_ledger(ledger, "src", str(tmp_path), changed)
    other_program = [{"name": "000-solved", "sha256": "bb", "error": None}]
    run.check_ledger(ledger, "src2", str(tmp_path), other_program)
    assert first[0]["error"] is None and again[0]["error"] is None
    assert changed[0]["error"].startswith("report differs")
    assert other_program[0]["error"] is None


def test_unreadable_or_incomplete_reports_fail(tmp_path):
    bad_json = tmp_path / "a.json"
    bad_json.write_text("{not json")
    incomplete = tmp_path / "b.json"
    incomplete.write_text(json.dumps({"all_passed": False, "checks": {}}))
    rows = [
        {"name": "000-solved", "exit": 0, "error": None, "report": str(bad_json)},
        {"name": "000-perturbed", "exit": 1, "error": None, "report": str(incomplete)},
    ]
    child.judge_rows(rows)
    assert rows[0]["error"].startswith("unreadable report: JSONDecodeError")
    assert rows[1]["error"].startswith("unreadable report: KeyError")
    assert rows[0]["sha256"] is not None


def test_mass_refusal_counts_as_band_miss_only_for_monte_carlo(tmp_path):
    stderr = workloads.MASS_REFUSAL + "'phi' is 1.00475 (z=3.46); not a probability\n"
    missing = str(tmp_path / "none.json")
    rows = [
        {"name": "000-mc", "exit": 2, "error": None, "stderr": stderr, "report": missing},
        {"name": "001-solved", "exit": 2, "error": None, "stderr": stderr, "report": missing},
        {"name": "002-mc", "exit": 2, "error": None, "stderr": "error: bad\n", "report": missing},
    ]
    misses, _ = child.judge_rows(rows)
    assert misses == 1
    assert rows[0]["error"] is None and rows[0]["sha256"] is not None
    assert rows[1]["error"] == rows[2]["error"] == "no report (exit 2)"
