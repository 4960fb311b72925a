"""The benchmark scripts run against today's package: each tree script's
``measure`` on the depth-2 tree with one repeat, in this process, with
``tests/`` on the path as the scripts' usage lines put it, and each Itô
script's ``measure`` on 2000 paths in one fresh child process that imports
the package from ``src``. An API change that breaks a script fails here,
not at its next timing run."""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
SRC = Path(__file__).parent.parent / "src"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["bench_tree_depth", "bench_tree_scenario", "bench_conjugacy"])
def test_benchmark_measures_the_depth_two_tree(name):
    row = load(name).measure(2, 1)
    assert row["depth"] == 2
    if name == "bench_tree_scenario":
        assert row["all_passed"] and row["reports_equal"]


@pytest.mark.parametrize("name", ["bench_mc_reduce", "bench_streaming"])
def test_ito_benchmark_measures_two_thousand_paths(name):
    row = load(name).measure(str(SRC), 2000, 1)
    assert row["n_paths"] == 2000 and row["repeats"] == 1 and row["runs"] == 1
    # one report, whose digest the script checks across its repeats
    assert len(row["report_sha256"]) == 64
    if name == "bench_mc_reduce":
        assert row["records"] == 64  # the default suite's mean tests
