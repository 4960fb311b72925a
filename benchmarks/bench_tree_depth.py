"""Depth scaling of the forward checks: per-node reads against enumeration.

For ``random_tree(7, periods=d)``, d = 2..6, with its solved field, times
at the window (0, d):

- ``recursion``: ``check_exponential_conditions`` plus
  ``check_forward_supermartingale``, as the package runs them, each node
  once: its one-step inverse-gamma gap, its factor and its one-step dual
  program, the last two in backward recursions from d;
- ``enumeration``: the brute-force loops over every product measure that
  those checks ran before they came to read per-node values (the oracles
  in ``tests/oracles.py``: inverse-gamma gap, forward precondition, worst
  forward drift). The entropy-minimiser parts both versions share are not
  in this figure. Where the window has more product measures than
  ``enumerate_product_measures`` accepts, it is recorded as refused.

Both sides are measured in one process, one after the other per depth.
Writes the median and spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_tree_depth.py \\
        [--repeat 5] [--out BENCH_tree_depth.json]
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

import oracles
from forwardperf import kernels
from forwardperf.tree_verifier import check_exponential_conditions, check_forward_supermartingale
from treegen import random_tree, solved_field

SEED = 7
DEPTHS = range(2, 7)
ENUMERATION_CAP = 200000  # enumerate_product_measures' default max_count


def _repeat(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeat,
    }


def measure(depth, repeat):
    tree = random_tree(SEED, periods=depth)
    field = solved_field(tree, SEED)
    gamma, a_shift = field.gamma, field.a_shift

    def recursion():
        check_exponential_conditions(tree, field, [(0, depth)])
        check_forward_supermartingale(tree, field, [(0, depth)])

    def enumeration():
        oracles.inverse_gamma_gap_by_enumeration(tree, gamma, 0, depth)
        oracles.forward_precondition_by_enumeration(tree, gamma, 0, depth)
        oracles.worst_forward_drift_by_enumeration(tree, gamma, a_shift, 0, depth)

    count = oracles.product_measure_count(tree, 0, depth)
    row = {
        "depth": depth,
        "nodes": len(tree.nodes),
        "product_measures": count,
        "recursion": _repeat(recursion, repeat),
    }
    if count > ENUMERATION_CAP:
        row["enumeration"] = {"refused": f"{count} product measures > cap {ENUMERATION_CAP}"}
    else:
        row["enumeration"] = _repeat(enumeration, repeat)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per side")
    parser.add_argument("--out", default="BENCH_tree_depth.json", help="JSON output path")
    args = parser.parse_args()

    rows = []
    for depth in DEPTHS:
        row = measure(depth, args.repeat)
        enum = row["enumeration"]
        enum_s = f"{enum['median_s']:.4f}s" if "median_s" in enum else "refused"
        print(
            f"d={depth} nodes={row['nodes']} measures={row['product_measures']} "
            f"recursion={row['recursion']['median_s']:.4f}s enumeration={enum_s}",
            flush=True,
        )
        rows.append(row)
    doc = {
        "benchmark": "tree_depth",
        "tree": f"random_tree({SEED}, periods=d), solved_field(tree, {SEED}), window (0, d)",
        "what": {
            "recursion": "check_exponential_conditions + check_forward_supermartingale",
            "enumeration": "the product-measure loops those checks ran before, "
            "from tests/oracles.py, without the shared entropy-minimiser parts",
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
