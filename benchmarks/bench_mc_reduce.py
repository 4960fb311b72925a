"""Monte Carlo statistics: time and minor page faults of ``gather`` and ``reduce``.

Runs the default ``ito-verify`` suite's Monte Carlo checks on the README
model (antithetic paths x 64 steps, seed 77) at 50k, 100k and 400k paths,
one ``MonteCarloPass`` per point, simulated in runs of at most
``cli.DRAW_BUDGET`` stream-intervals as ``cli.run_ito_scenario`` does.
Every repeat runs in a fresh process, so the page faults are the ones a
command-line run takes: it records the wall time and the minor page
faults (``ru_minflt``, from ``getrusage`` in the same process) of the
``gather`` calls with the fields they read (summed over the runs, without
the simulation) and of ``reduce``, and the SHA-256 of the report, which
must not change between repeats. A pass that builds the fields itself
does so inside ``gather``; for a source tree whose ``gather`` is handed
them, the ``build_forward_exponential`` call is timed with it.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is measured too, alternating with this one
point by point, into ``baseline_rows``.

In this process it also times, in the same session, the kernels the
statistics run on against the ones they replaced, kept in
``tests/oracles.py``: ``entropy_kernel`` on 100k values (a seventh of
them 0) and on a 0-d array, and ``pairwise_sum`` on 25k and 50k values;
each pair must agree bit for bit.

Writes the median and spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_mc_reduce.py \\
        [--repeat 5] [--baseline-src OTHER/src] [--out BENCH_mc_reduce.json]
"""

import argparse
import datetime
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

POINTS = (50_000, 100_000, 400_000)
SEED = 77
N_STEPS = 64
MODEL = dict(
    horizon=1.0,
    breakpoints=(0.0, 0.5),
    theta=(0.5, 0.5),
    delta=(0.0, 0.0),
    phi=(0.3, 0.0),
    rho=(0.1, 0.1),
)


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(n_paths):
    """One pass over ``n_paths`` antithetic paths, printed as a JSON line."""
    from forwardperf import cli
    from forwardperf.ito_engine import (
        CoefficientSpec,
        build_forward_exponential,
        simulate_paths,
    )
    from forwardperf.kernels import Workspace
    from forwardperf.mc_verifier import MC_CHECKS, MonteCarloPass

    spec = CoefficientSpec(**MODEL)
    params = inspect.signature(MonteCarloPass).parameters
    builds_fields = "gamma0" in params
    if builds_fields:
        mc = MonteCarloPass(spec, N_STEPS, n_paths, MC_CHECKS, 1.0, 0.0, True)
    elif "n_paths" in params:  # a source tree from before the pass built the fields
        mc = MonteCarloPass(spec, N_STEPS, n_paths, MC_CHECKS)
    else:  # a source tree from before the pass was told its path count
        mc = MonteCarloPass(spec, N_STEPS, MC_CHECKS)
    columns = mc.simulated_columns
    work = Workspace()
    gather_s = 0.0
    gather_minflt = 0
    runs = cli._stream_runs([(0, n_paths // 2)], len(columns) - 1)
    for lo, hi in runs:
        bundle = simulate_paths(
            spec, N_STEPS, 2 * (hi - lo), SEED, stream_offset=lo, work=work, columns=columns
        )
        faults = _minflt()
        t0 = time.perf_counter()
        if builds_fields:
            mc.gather(bundle)
        else:
            mc.gather(bundle, build_forward_exponential(spec, 1.0, 0.0, bundle, mc.columns))
        gather_s += time.perf_counter() - t0
        gather_minflt += _minflt() - faults
    del bundle, work
    faults = _minflt()
    t0 = time.perf_counter()
    report = mc.reduce()
    reduce_s = time.perf_counter() - t0
    reduce_minflt = _minflt() - faults
    text = report.to_json()
    print(
        json.dumps(
            {
                "gather_s": gather_s,
                "gather_minflt": gather_minflt,
                "reduce_s": reduce_s,
                "reduce_minflt": reduce_minflt,
                "runs": len(runs),
                "records": len(report),
                "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        )
    )


def _spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def measure(src, n_paths, repeat):
    """One point in ``repeat`` fresh processes that import the package
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    samples = []
    for _ in range(repeat):
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(n_paths)],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        samples.append(json.loads(out.stdout))
    digests = {r["report_sha256"] for r in samples}
    if len(digests) != 1:
        raise RuntimeError(f"reports differ between repeats at {n_paths} paths")
    row = {"n_paths": n_paths, "runs": samples[0]["runs"], "repeats": repeat}
    for key in ("gather_s", "gather_minflt", "reduce_s", "reduce_minflt"):
        row[key] = _spread([r[key] for r in samples])
    row["records"] = samples[0]["records"]
    row["report_sha256"] = digests.pop()
    return row


def _time(fn, number, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times),
            "calls": number, "repeats": repeat}


def kernel_rows(repeat):
    """The replaced kernels against the package's, bit for bit, then timed."""
    import oracles
    from forwardperf.fields import entropy_kernel
    from forwardperf.kernels import pairwise_sum

    rng = np.random.default_rng(SEED)
    y = rng.exponential(size=100_000)
    y[::7] = 0.0
    scalar = np.array(0.37)
    cases = {
        "entropy_kernel[100000]": (oracles.entropy_kernel, entropy_kernel, y, 50),
        "entropy_kernel[0-d]": (oracles.entropy_kernel, entropy_kernel, scalar, 5000),
    }
    for n in (25_000, 50_000):
        x = rng.normal(size=n)
        cases[f"pairwise_sum[{n}]"] = (oracles.pairwise_sum_padded, pairwise_sum, x, 200)
    rows = {}
    for name, (old, new, arg, number) in cases.items():
        if np.asarray(old(arg)).tobytes() != np.asarray(new(arg)).tobytes():
            raise SystemExit(f"{name}: replaced and new kernels differ")
        rows[name] = {
            "replaced": _time(lambda: old(arg), number, repeat),
            "new": _time(lambda: new(arg), number, repeat),
            "bit_identical": True,
        }
        print(
            f"{name}: replaced={rows[name]['replaced']['median_s'] * 1e6:.1f}us "
            f"new={rows[name]['new']['median_s'] * 1e6:.1f}us",
            flush=True,
        )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="fresh processes per point")
    parser.add_argument("--baseline-src", help="a second source tree to measure beside this one")
    parser.add_argument("--out", default="BENCH_mc_reduce.json", help="JSON output path")
    parser.add_argument("--child", type=int, metavar="N_PATHS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return

    from forwardperf import kernels

    sides = {"rows": os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")}
    if args.baseline_src:
        sides["baseline_rows"] = args.baseline_src
    rows = {side: [] for side in sides}
    for k, n_paths in enumerate(POINTS):
        for side in list(sides) if k % 2 else list(sides)[::-1]:
            row = measure(sides[side], n_paths, args.repeat)
            print(
                f"{side} n_paths={n_paths} runs={row['runs']} "
                f"gather={row['gather_s']['median']:.4f}s "
                f"({row['gather_minflt']['median']} faults) "
                f"reduce={row['reduce_s']['median']:.4f}s "
                f"({row['reduce_minflt']['median']} faults)",
                flush=True,
            )
            rows[side].append(row)
    doc = {
        "benchmark": "mc_reduce",
        "scenario": "MonteCarloPass with every Monte Carlo check, README model, antithetic "
        f"paths x {N_STEPS} steps, seed {SEED}, runs of at most cli.DRAW_BUDGET "
        "stream-intervals",
        "what": "wall time and minor page faults (ru_minflt) of gather with the fields it "
        "reads (summed over the runs) and of reduce, in a fresh process per repeat; "
        "kernels: the replaced kernels of tests/oracles.py against the package's, seconds "
        "per call",
        "baseline_src": args.baseline_src,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": kernel_rows(args.repeat),
        **rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
