"""The tree benchmark scripts run against today's package: each script's
``measure`` on the depth-2 tree with one repeat, in this process, with
``tests/`` on the path as the scripts' usage lines put it. An API change
that breaks a script fails here, not at its next timing run."""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


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
