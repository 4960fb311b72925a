"""The benchmark scripts run against today's package: every script loads,
the tree script's ``measure`` runs on the depth-2 tree with one repeat, in
this process, with ``tests/`` on the path as its usage line puts it, and
each Itô script's ``measure`` on 2000 paths in one fresh child process
that imports the package from ``src``. An API change that breaks a script
fails here, not at its next timing run."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
SRC = Path(__file__).parent.parent / "src"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_file_is_written_by_a_script_that_loads():
    # a root BENCH_<name>.json names its benchmark, and the script that
    # writes it is benchmarks/bench_<name>.py
    for path in sorted(BENCHMARKS.parent.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        assert json.loads(path.read_text())["benchmark"] == name, path.name
        assert (BENCHMARKS / f"bench_{name}.py").is_file(), path.name
    for script in sorted(BENCHMARKS.glob("bench_*.py")):
        assert callable(load(script.stem).main), script.name


@pytest.mark.parametrize("name", ["bench_tree_scenario"])
def test_benchmark_measures_the_depth_two_tree(name):
    # one kernel repeat, so that a kernel name the package lost fails here
    bench = load(name)
    row = bench.measure(2, 1, 1)
    assert row["depth"] == 2
    assert row["all_passed"] and row["reports_equal"]
    assert row["kernels"].keys() == bench.KERNELS.keys()


@pytest.mark.parametrize("name", ["bench_mc_reduce", "bench_streaming"])
def test_ito_benchmark_measures_two_thousand_paths(name):
    row = load(name).measure(str(SRC), 2000, 1)
    assert row["n_paths"] == 2000 and row["repeats"] == 1 and row["runs"] == 1
    # one report, whose digest the script checks across its repeats
    assert len(row["report_sha256"]) == 64
    if name == "bench_mc_reduce":
        assert row["records"] == 64  # the default suite's mean tests
        # each phase's absolute traced peak, beside reduce's above the pass
        peaks = [row[f"{phase}_abs_kb"]["median"] for phase in ("simulate", "gather", "reduce")]
        assert min(peaks) > 0 and row["reduce_abs_kb"]["median"] >= row["reduce_peak_kb"]["median"]


def test_a_source_tree_is_recorded_by_the_digest_of_its_sources(tmp_path):
    # the digest reads the .py files and their relative paths alone: a
    # copy elsewhere with a bytecode cache gives the same digest, and an
    # edit to one byte does not
    digest = load("provenance").source_sha256
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert digest(copy) == digest(SRC)
    (copy / "forwardperf" / "__pycache__").mkdir(exist_ok=True)
    (copy / "forwardperf" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"\0")
    assert digest(copy) == digest(SRC)
    init = copy / "forwardperf" / "__init__.py"
    init.write_bytes(init.read_bytes() + b"\n")
    assert digest(copy) != digest(SRC)


def test_report_diff_runs_two_imports_of_a_tree_side_by_side(tmp_path):
    # the package imported twice under two aliases gives two module sets
    # that write the same bytes; a moved record is named by its tag
    diff = load("report_diff")
    one = diff.load_cli(str(SRC), "forwardperf_diff_one")
    two = diff.load_cli(str(SRC), "forwardperf_diff_two")
    assert one is not two and one.MonteCarloPass is not two.MonteCarloPass
    doc = {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": diff.README_MODEL,
        "gamma0": 1.0,
        "n_steps": 16,
        "n_paths": 2000,
        "seed": 5,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, text = diff.run(one, str(path), str(tmp_path / "one.json"))
    assert code in (0, 1) and text
    assert diff.run(two, str(path), str(tmp_path / "two.json")) == (code, text)
    moved = json.loads(text)
    tag = list(moved["checks"])[3]
    moved["checks"][tag]["value"] += 1.0
    assert diff.first_difference(text, json.dumps(moved)) == tag
    # a tree document, the pinned root-shifted scenario, runs on both sides
    # alike too; a moved value and verdict are summed by record family, and
    # a record on one side only by the side it is on
    name, doc = dict((n.split("/")[1], (n, d)) for n, d in diff.pinned_tree_docs())["solve"]
    path.write_text(json.dumps(doc))
    code, text = diff.run(one, str(path), str(tmp_path / "one.json"))
    assert code == 1 and text
    assert diff.run(two, str(path), str(tmp_path / "two.json")) == (code, text)
    moved = json.loads(text)
    tag = "forward-supermartingale[t=0,T=2]"
    moved["checks"][tag]["value"] += 0.5
    moved["checks"][tag]["verdict"] = not moved["checks"][tag]["verdict"]
    summary = diff.Summary("base")
    summary.add(name, (code, text), (code, text))
    summary.add(name, (code, text), (0, json.dumps(moved)))
    assert summary.docs["pinned"] == {"runs": 2, "reports": 1, "exit": 1}
    assert list(summary.families) == ["forward-supermartingale"]
    family = summary.families["forward-supermartingale"]
    assert family["value"] == pytest.approx(0.5)
    assert family == dict(family, records=1, verdict=1, worst_node=0, removed=0, added=0)
    before = dict(family)
    moved["checks"]["forward-supermartingale[t=9,T=9]"] = moved["checks"].pop(tag)
    summary.add(name, (code, text), (code, json.dumps(moved)))
    assert summary.families["forward-supermartingale"] == dict(before, records=3, removed=1, added=1)
    assert "  forward-supermartingale: 3 moved, 1 only at base, 1 only in the working tree," in "\n".join(summary.lines())
