"""Depth scaling of the full default ``tree-verify`` scenario.

For ``random_tree(7, periods=d)``, d = 7, 8 and 9, with its solved field
given explicitly, times ``cli.run_tree_scenario`` on the default scenario:
all five checks, every (t, T) window. These are the depths a tree
performance claim is measured at.

Each repeat runs in a fresh child process, which runs the scenario once
untimed (imports and first calls) and then times one run. With
``--baseline-src`` a second source tree (say, the ``src`` of a checkout
of the parent commit) is timed too, alternating with this one repeat by
repeat, so that both sides meet the same drift of a noisy machine; each
row records the SHA-256 of the report, and ``reports_identical`` says
whether the two sides agree byte for byte at every depth. A mismatch at
any depth is named on stderr and exits 1, after the JSON is written.
Each tree is recorded by the SHA-256 of its sources
(``provenance.source_sha256``), not by its path.

Writes the median and spread (min, max) of the repeats as JSON, and per
depth, from the first repeat's child of each side, the calls per
scenario and microseconds per call (median over as many more runs as
there are repeats) of the factor solve (``minimize_exp_sum``), of the
one-step vertex builds (``one_step_vertices``) and of the stacked
one-step dual solve (``barrier_minimize``: its calls are the stacks per
scenario). Usage:

    PYTHONPATH=src:tests python benchmarks/bench_tree_scenario.py \\
        [--repeat 5] [--baseline-src OTHER/src] [--out BENCH_tree_scenario.json]
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEED = 7
DEPTHS = (7, 8, 9)
HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(HERE, "..", "tests")


# the per-node kernels counted and timed per call, by the module attribute
# each caller resolves
KERNELS = {
    "minimize_exp_sum": ("forwardperf.tree_verifier", "minimize_exp_sum"),
    "one_step_vertices": ("forwardperf.tree_market", "one_step_vertices"),
    "barrier_minimize": ("forwardperf.tree_verifier", "barrier_minimize"),
}


def kernel_calls(run, repeat):
    """Calls per scenario and microseconds per call (median over the
    repeats) of each of ``KERNELS`` while ``run()`` runs one scenario."""
    import importlib

    out = {}
    for name, (module, attr) in KERNELS.items():
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        calls, per_call = [], []

        def timed(*args, _original=original):
            t0 = time.perf_counter()
            try:
                return _original(*args)
            finally:
                calls[-1].append(time.perf_counter() - t0)

        setattr(mod, attr, timed)
        try:
            for _ in range(repeat):
                calls.append([])
                run()
                per_call.append(sum(calls[-1]) / max(1, len(calls[-1])))
        finally:
            setattr(mod, attr, original)
        out[name] = {"calls": len(calls[0]), "us_per_call": statistics.median(per_call) * 1e6}
    return out


def measure(depth, repeat, kernel_repeat=0):
    """Time the default scenario at one depth, in this process: one untimed
    run, then ``repeat`` timed ones; with ``kernel_repeat``, the kernel
    calls over that many more."""
    from forwardperf.cli import run_tree_scenario
    from treegen import random_tree, solved_field

    tree = random_tree(SEED, periods=depth)
    field = solved_field(tree, SEED)
    doc = {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": tree.to_dict(),
        "gamma": {"mode": "explicit", "values": field.gamma},
        "a_shift": {"mode": "explicit", "values": field.a_shift},
    }
    reports, times = [run_tree_scenario(doc).to_json()], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        reports.append(run_tree_scenario(doc).to_json())
        times.append(time.perf_counter() - t0)
    row = {
        "depth": depth,
        "nodes": len(tree.nodes),
        "windows": depth * (depth + 1) // 2,
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeat,
        "all_passed": json.loads(reports[0])["all_passed"],
        "report_sha256": hashlib.sha256(reports[0].encode()).hexdigest(),
        "reports_equal": len(set(reports)) == 1,
    }
    if kernel_repeat:
        row["kernels"] = kernel_calls(lambda: run_tree_scenario(doc), kernel_repeat)
    return row


def measure_in_child(src, depth, kernel_repeat):
    """One timed run of ``measure`` in a fresh process that imports the
    package from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), TESTS]))
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(depth), str(kernel_repeat)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def merge(runs):
    """One row from the one-run rows of a side's children at one depth."""
    times = [r["median_s"] for r in runs]
    return {
        **{k: runs[0][k] for k in ("depth", "nodes", "windows")},
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": len(runs),
        "all_passed": all(r["all_passed"] for r in runs),
        "report_sha256": runs[0]["report_sha256"],
        "reports_equal": all(r["reports_equal"] and r["report_sha256"] == runs[0]["report_sha256"] for r in runs),
        "kernels": runs[0]["kernels"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per side")
    parser.add_argument("--baseline-src", help="a second source tree to time beside this one")
    parser.add_argument("--out", default="BENCH_tree_scenario.json", help="JSON output path")
    parser.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        depth, kernel_repeat = args.child
        print(json.dumps(measure(depth, 1, kernel_repeat)))
        return

    import numpy as np
    from forwardperf import kernels
    from provenance import source_sha256

    sides = {"rows": os.path.join(HERE, "..", "src")}
    if args.baseline_src:
        sides["baseline_rows"] = args.baseline_src
    rows = {side: [] for side in sides}
    for depth in DEPTHS:
        runs = {side: [] for side in sides}
        for r in range(args.repeat):
            order = list(sides) if (depth + r) % 2 else list(sides)[::-1]
            for side in order:
                runs[side].append(measure_in_child(sides[side], depth, args.repeat if r == 0 else 0))
        for side in sides:
            row = merge(runs[side])
            print(
                f"d={depth} nodes={row['nodes']} {side}={row['median_s']:.4f}s "
                f"[{row['min_s']:.4f}, {row['max_s']:.4f}] sha256={row['report_sha256'][:12]}",
                flush=True,
            )
            rows[side].append(row)
    doc = {
        "benchmark": "tree_scenario",
        "tree": f"random_tree({SEED}, periods=d), solved_field(tree, {SEED}) given explicitly",
        "what": "cli.run_tree_scenario on the default scenario: 5 checks, every window",
        "src_sha256": source_sha256(sides["rows"]),
        "baseline_src_sha256": source_sha256(args.baseline_src) if args.baseline_src else None,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **rows,
    }
    mismatched = []
    if args.baseline_src:
        for row, base in zip(rows["rows"], rows["baseline_rows"]):
            if row["report_sha256"] != base["report_sha256"]:
                mismatched.append(row["depth"])
        doc["reports_identical"] = not mismatched
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if mismatched:
        print(f"reports differ from the baseline at depths {mismatched}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
