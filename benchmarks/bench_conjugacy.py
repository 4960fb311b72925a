"""The primal-from-dual side of the conjugacy check over tree depth: the read
of the window's eta = 1 program against one joint program per xi and
against the search over eta.

For ``random_tree(7, periods=d)``, d = 2..6, with its solved field, at the
root window (0, d), the default scenario xi grid and eta grid:

- ``read``: u(xi) = inf over eta of v(eta) + xi eta read in closed form
  from the window's eta = 1 dual program, as ``check_value_conjugacy``
  does; each repeat builds a fresh context, so it times the eta = 1 solve
  and the reads;
- ``joint``: one barrier program per xi over the unnormalised leaf masses,
  as the check solved it before (``oracles.conjugate_primal_joint``);
- ``eta_search``: the golden-section search over eta that the check ran
  before that, every probe a full barrier solve of the dual program at
  that eta (``oracles.conjugate_primal_by_eta_search`` over
  ``oracles.dual_by_eta``).

Each row also records, per route, the largest gap to the closed-form u over
the xi grid, and, per other route, the largest relative difference of the
attaining eta from the read's. The routes are measured in one process, one
after the other per depth. Writes the median and spread (min, max) of the
repeats as JSON. Usage:

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
from forwardperf.tree_verifier import WindowDuals, _conjugate_read, primal_value
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

    def read():
        # a fresh context, so each repeat solves the eta = 1 program too
        unit = WindowDuals(tree, field.gamma).dual(field, 0, depth)
        return [_conjugate_read(unit, root, x) for x in XI_GRID]

    read_t, reads = _repeat(read, repeat)
    joint_t, joint = _repeat(
        lambda: oracles.conjugate_primal_joint(tree, field, 0, depth, XI_GRID)[root], repeat
    )
    search_t, search = _repeat(
        lambda: oracles.conjugate_primal_by_eta_search(tree, field, 0, depth, XI_GRID, ETA_GRID)[root],
        repeat,
    )
    routes = {"read": (read_t, reads), "joint": (joint_t, joint), "eta_search": (search_t, search)}
    row = {
        "depth": depth,
        "nodes": len(tree.nodes),
        "leaves": len(tree.descendants_at(root, depth)),
    }
    for name, (stats, sols) in routes.items():
        row[name] = {**stats, "max_gap": max(gap(u, x) for x, (u, _) in zip(XI_GRID, sols))}
        if name != "read":
            row[name]["eta_hat_max_rel_diff_to_read"] = max(
                abs(e - e_read) / e_read for (_, e), (_, e_read) in zip(sols, reads)
            )
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per side")
    parser.add_argument("--out", default="BENCH_conjugacy.json", help="JSON output path")
    args = parser.parse_args()

    rows = []
    for depth in DEPTHS:
        row = measure(depth, args.repeat)
        print(
            f"d={depth} leaves={row['leaves']} read={row['read']['median_s']:.4f}s "
            f"joint={row['joint']['median_s']:.4f}s "
            f"eta_search={row['eta_search']['median_s']:.4f}s "
            f"gaps={row['read']['max_gap']:.1e}/{row['joint']['max_gap']:.1e}"
            f"/{row['eta_search']['max_gap']:.1e}",
            flush=True,
        )
        rows.append(row)
    doc = {
        "benchmark": "conjugacy",
        "tree": f"random_tree({SEED}, periods=d), solved_field(tree, {SEED}), window (0, d)",
        "xi_grid": XI_GRID,
        "eta_grid": ETA_GRID,
        "what": {
            "read": "the eta = 1 dual program in a fresh context, read per xi "
            "(tree_verifier._conjugate_read)",
            "joint": "one joint barrier program per xi (oracles.conjugate_primal_joint "
            "in tests/oracles.py)",
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
