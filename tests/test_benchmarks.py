"""The benchmark scripts run against today's package: every script loads,
the tree script's ``measure`` runs on the depth-2 tree in this process,
with ``tests/`` on the path as its usage line puts it, and each Itô
script's ``measure`` on 2000 paths in one fresh child process that
imports the package from ``src``. An API change that breaks a script
fails here, not at its next timing run. The committed ``BENCH_*.json``
files carry the header and the spreads of the shared harness
(``benchmarks/ab.py``), whose paired interval is held to the exact
binomial tails."""

import importlib.util
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
SRC = Path(__file__).parent.parent / "src"
# the scripts import their siblings (ab, provenance, report_diff) by name
sys.path.insert(0, str(BENCHMARKS))
HEADER = ("benchmark", "src_sha256", "baseline_src_sha256", "date", "nproc", "kernel_backend",
          "numpy", "python", "machine")


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dicts(node):
    """Every dict in a JSON document, depth first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from dicts(child)


def test_every_benchmark_file_is_written_by_a_script_that_loads():
    # a root BENCH_<name>.json names its benchmark, and the script that
    # writes it is benchmarks/bench_<name>.py
    for path in sorted(BENCHMARKS.parent.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        assert json.loads(path.read_text())["benchmark"] == name, path.name
        assert (BENCHMARKS / f"bench_{name}.py").is_file(), path.name
    for script in sorted(BENCHMARKS.glob("bench_*.py")):
        assert callable(load(script.stem).main), script.name


def test_every_benchmark_file_carries_the_header_and_spreads():
    # one header per file, and every timed quantity as its spread over the
    # runs; the current rows of a file with a baseline carry the paired
    # ratio with its interval
    for path in sorted(BENCHMARKS.parent.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        assert set(HEADER) <= doc.keys(), path.name
        assert len(doc["src_sha256"]) == 64, path.name
        rows = [row for value in doc.values() if isinstance(value, list) for row in value]
        assert rows, path.name
        for row in rows:
            assert any("median" in d for d in dicts(row)), (path.name, row)
        for d in dicts(doc):
            if "median" in d:
                assert d.keys() == {"median", "min", "max", "repeats"}, path.name
                assert d["min"] <= d["median"] <= d["max"] and d["repeats"] >= 1, path.name
            if "ci95" in d:
                assert d.keys() == {"pairs", "ratio", "ci95"}, path.name
                assert d["ci95"] is None or d["ci95"][0] <= d["ratio"] <= d["ci95"][1], path.name
        if doc["baseline_src_sha256"] and "baseline_rows" in doc:
            assert all("paired" in row for row in doc["rows"]), path.name


def test_header_records_numpy_dispatch_and_a_forced_blas_core(monkeypatch):
    # the report bytes follow numpy's float64 exp/log dispatch, so every
    # BENCH file records its active targets, and a forced OpenBLAS core
    ab = load("ab")
    srcs = {ab.CURRENT: str(SRC)}
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    doc = ab.header("x", srcs)
    assert set(HEADER) | {"numpy_simd"} == doc.keys()
    assert isinstance(doc["numpy_simd"], str)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert ab.header("x", srcs)["openblas_coretype"] == "Haswell"


def test_paired_interval_reads_the_exact_binomial_tails():
    ab = load("ab")
    for n in range(1, 41):
        # the largest k whose two-sided binomial tail is within 5%
        k = ab.sign_rank(n)
        tail = sum(math.comb(n, i) for i in range(k)) / 2**n
        assert 2 * tail <= 0.05 and (k == 0 or k == n or 2 * (tail + math.comb(n, k) / 2**n) > 0.05)
        assert (k > 0) == (n >= 6)
    assert [ab.sign_rank(n) for n in (5, 6, 10, 30)] == [0, 1, 2, 10]
    # the interval is the order statistics k and n + 1 - k of the ratios
    # baseline/current, taken pair by pair
    current = [1.0 + i / 100 for i in range(10)]
    baseline = [c * r for c, r in zip(current, [1.3, 0.9, 1.1, 1.0, 1.2, 0.8, 1.05, 0.95, 1.15, 0.85])]
    summary = ab.paired(baseline, current)
    assert summary["pairs"] == 10 and summary["ratio"] == pytest.approx(1.025)
    assert summary["ci95"] == pytest.approx([0.85, 1.2])
    assert ab.paired(baseline[:5], current[:5])["ci95"] is None
    with pytest.raises(ValueError):
        ab.paired(baseline, current[:9])


def test_sides_alternate_in_abba_order():
    # each round reverses the last, so neither side always runs first
    ab = load("ab")
    order = []
    got = ab.alternate({side: lambda side=side: order.append(side) or len(order) for side in "ab"}, 4)
    assert "".join(order) == "abbaabba"
    assert got == {"a": [1, 4, 5, 8], "b": [2, 3, 6, 7]}


@pytest.mark.parametrize("name", ["bench_tree_scenario"])
def test_benchmark_measures_the_depth_two_tree(name):
    # one kernel repeat, patched in the package that runs: a kernel name the
    # package lost raises, and one it no longer calls counts no calls
    bench = load(name)
    cli = bench.load_cli(str(SRC), "forwardperf_bench_depth_two")
    row = bench.measure({"rows": cli}, 2, 1, 1)["rows"]
    assert row["depth"] == 2 and row["all_passed"]
    assert row["time_s"]["repeats"] == 1 and "paired" not in row
    assert row["kernels"].keys() == bench.KERNELS.keys()
    assert all(kernel["calls"] > 0 for kernel in row["kernels"].values())


def test_each_side_solves_its_own_field(monkeypatch):
    # each side's shift comes from its own package's entropy-shift
    # construction, so a change that moves the solved field's last bits
    # leaves each side's program cache keyed by the bits its sweeps meet.
    # A/A at depth 3: each side's construction runs once, and the two
    # sides make the same kernel calls and write the same bytes
    bench = load("bench_tree_scenario")
    aliases = {side: f"forwardperf_own_field_{side}" for side in ("rows", "baseline_rows")}
    clis = {side: bench.load_cli(str(SRC), alias) for side, alias in aliases.items()}
    solved = []
    for side, alias in aliases.items():
        module = sys.modules[f"{alias}.tree_verifier"]

        def counted(*args, side=side, original=module.solve_entropy_shift):
            solved.append(side)
            return original(*args)

        monkeypatch.setattr(module, "solve_entropy_shift", counted)
    rows = bench.measure(clis, 3, 1, 1)
    assert solved == list(aliases)
    calls = [{name: k["calls"] for name, k in rows[side]["kernels"].items()} for side in aliases]
    assert calls[0] == calls[1] and calls[0]["barrier_minimize"] > 0
    assert rows["rows"]["report_sha256"] == rows["baseline_rows"]["report_sha256"]


def test_in_process_a_a_pairs_bracket_one(monkeypatch):
    # the same src on both sides, 6 ABBA pairs at depth 2. The clock
    # advances one tick a reading, so every timed run lasts one tick: a
    # timed A/A interval at 6 pairs misses 1 one time in 32 by design
    bench = load("bench_tree_scenario")
    ticks = itertools.count()
    monkeypatch.setattr(bench.ab, "perf_counter", lambda: float(next(ticks)))
    clis = {side: bench.load_cli(str(SRC), f"forwardperf_a_a_{side}") for side in ("rows", "baseline_rows")}
    rows = bench.measure(clis, 2, 6, 0)
    paired = rows["rows"]["paired"]["time_s"]
    assert paired["pairs"] == 6 and paired["ci95"][0] <= 1.0 <= paired["ci95"][1]
    assert rows["rows"]["report_sha256"] == rows["baseline_rows"]["report_sha256"]
    assert rows["rows"]["time_s"] == rows["baseline_rows"]["time_s"] == dict(
        median=1.0, min=1.0, max=1.0, repeats=6
    )


@pytest.mark.parametrize("name", ["bench_mc_reduce", "bench_streaming"])
def test_ito_benchmark_measures_two_thousand_paths(name):
    row = load(name).measure({"rows": str(SRC)}, 2000, 1)["rows"]
    assert row["n_paths"] == 2000 and row["runs"] == 1 and "paired" not in row
    assert all(d["repeats"] == 1 for d in dicts(row) if "median" in d)
    # one report, whose digest the script checks across its repeats
    assert len(row["report_sha256"]) == 64
    if name == "bench_mc_reduce":
        assert row["records"] == 40  # the default suite's mean tests
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
    assert family["relative"] == pytest.approx(0.5 / abs(json.loads(text)["checks"][tag]["value"]))
    assert family == dict(family, records=1, verdict=1, worst_node=0, removed=0, added=0)
    before = dict(family)
    moved["checks"]["forward-supermartingale[t=9,T=9]"] = moved["checks"].pop(tag)
    summary.add(name, (code, text), (code, json.dumps(moved)))
    assert summary.families["forward-supermartingale"] == dict(before, records=3, removed=1, added=1)
    assert "  forward-supermartingale: 3 moved, 1 only at base, 1 only in the working tree," in "\n".join(summary.lines())
