"""The package surface: its public names, and no dead imports in its
modules, its tests or its benchmark scripts."""

import ast
import types
from pathlib import Path

import forwardperf

SRC = Path(forwardperf.__file__).parent
TESTS = Path(__file__).parent
BENCHMARKS = TESTS.parent / "benchmarks"

# Every public name of the package namespace, submodules aside. A name
# added to or dropped from ``forwardperf/__init__.py`` must change this
# list on purpose.
PUBLIC_NAMES = [
    "AlignmentError",
    "ArbitrageError",
    "Branch",
    "CheckRecord",
    "CoefficientSpec",
    "ConvergenceError",
    "DensityPath",
    "DualResult",
    "EventTree",
    "ExponentialFieldParams",
    "FieldPaths",
    "ForwardPerfError",
    "NodePolytope",
    "PathBundle",
    "PrimalResult",
    "ReplicationError",
    "ReplicationResult",
    "ScenarioError",
    "TreeMeasure",
    "TreeNode",
    "TreeStructureError",
    "VerificationReport",
    "WealthRangeError",
    "WindowDuals",
    "build_forward_exponential",
    "check_dual_martingale_at_optimum",
    "check_dual_submartingale",
    "check_exponential_conditions",
    "check_forward_drift_mc",
    "check_forward_supermartingale",
    "check_inverse_gamma_mean_mc",
    "check_nflvr",
    "check_self_generation_dual",
    "check_self_generation_primal",
    "check_value_conjugacy",
    "collapse_pairs",
    "conjugate_exponential",
    "density_path",
    "density_process",
    "dual_value",
    "entropy_kernel",
    "martingale_density",
    "mc_mean_test",
    "measure_from_leaf_masses",
    "node_polytope",
    "one_step_vertices",
    "primal_value",
    "reference_measure",
    "replicate_inverse_gamma",
    "simulate_paths",
    "solve_entropy_shift",
    "validate_tree",
    "z_critical",
]


def test_public_surface_is_pinned():
    names = sorted(
        name
        for name, value in vars(forwardperf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def unused_imports(source):
    """(line, name) of every name the module imports and never reads."""
    module = ast.parse(source)
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_import_only_what_they_use():
    # package __init__ files import to re-export, so they are not scanned
    paths = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    paths += [*TESTS.glob("*.py"), *BENCHMARKS.glob("*.py")]
    found = {
        f"{path}:{line} {name}"
        for path in sorted(paths)
        for line, name in unused_imports(path.read_text())
    }
    assert not found
