"""The primal-from-dual side of the conjugacy check over tree depth: one joint
program per xi against the search over eta.

For ``random_tree(7, periods=d)``, d = 2..6, with its solved field, at the
root window (0, d), the default scenario xi grid and eta grid:

- ``joint``: u(xi) = inf over eta of v(eta) + xi eta as one barrier program
  per xi over the unnormalised leaf masses, as ``check_value_conjugacy``
  runs it;
- ``eta_search``: the golden-section search over eta that the check ran
  before, every probe a full barrier solve of the dual program at that eta
  (``oracles.conjugate_primal_by_eta_search`` over ``oracles.dual_by_eta``).

Each row also records, per route, the largest gap to the closed-form u over
the xi grid, the largest relative difference of the attaining eta between
the routes, and the joint solve's largest Newton iteration count. Both
sides are measured in one process, one after the other per depth. Writes
the median and spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_conjugacy.py \\
        [--repeat 5] [--out BENCH_conjugacy.json]
"""

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

import oracles
from forwardperf import kernels
from forwardperf.tree_verifier import WindowDuals, _conjugate_solve_node, primal_value
from treegen import random_tree, solved_field

SEED = 7
DEPTHS = range(2, 7)
XI_GRID = [-2.0, -0.5, 0.0, 0.5, 2.0]
ETA_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]


def _repeat(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    stats = {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeat,
    }
    return stats, out


def measure(depth, repeat):
    tree = random_tree(SEED, periods=depth)
    field = solved_field(tree, SEED)
    root = tree.root
    log_factor = primal_value(tree, field, 0.0, 0, depth).log_factor[root]
    g = field.gamma[root]

    def gap(u, x):
        return abs(u + math.exp(-g * x + log_factor))

    def joint_solve():
        # a fresh context, so each repeat builds the window data too
        duals = WindowDuals(tree, field.gamma)
        return _conjugate_solve_node(duals, field, root, depth, XI_GRID)

    joint_t, joint = _repeat(joint_solve, repeat)
    search_t, search = _repeat(
        lambda: oracles.conjugate_primal_by_eta_search(tree, field, 0, depth, XI_GRID, ETA_GRID)[root],
        repeat,
    )
    return {
        "depth": depth,
        "nodes": len(tree.nodes),
        "leaves": len(tree.descendants_at(root, depth)),
        "joint": {
            **joint_t,
            "max_gap": max(gap(u, x) for x, (u, _, _, _) in zip(XI_GRID, joint)),
            "max_newton_iterations": max(info["newton_iterations"] for _, _, info, _ in joint),
        },
        "eta_search": {
            **search_t,
            "max_gap": max(gap(u, x) for x, (u, _) in zip(XI_GRID, search)),
        },
        "eta_hat_max_rel_diff": max(
            abs(e_joint - e_search) / e_joint
            for (_, e_joint, _, _), (_, e_search) in zip(joint, search)
        ),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per side")
    parser.add_argument("--out", default="BENCH_conjugacy.json", help="JSON output path")
    args = parser.parse_args()

    rows = []
    for depth in DEPTHS:
        row = measure(depth, args.repeat)
        print(
            f"d={depth} leaves={row['leaves']} joint={row['joint']['median_s']:.4f}s "
            f"eta_search={row['eta_search']['median_s']:.4f}s "
            f"gaps={row['joint']['max_gap']:.1e}/{row['eta_search']['max_gap']:.1e}",
            flush=True,
        )
        rows.append(row)
    doc = {
        "benchmark": "conjugacy",
        "tree": f"random_tree({SEED}, periods=d), solved_field(tree, {SEED}), window (0, d)",
        "xi_grid": XI_GRID,
        "eta_grid": ETA_GRID,
        "what": {
            "joint": "one joint barrier program per xi (tree_verifier._conjugate_solve_node)",
            "eta_search": "golden-section search over eta, one per-eta dual solve per probe "
            "(oracles.conjugate_primal_by_eta_search over oracles.dual_by_eta in tests/oracles.py)",
        },
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
