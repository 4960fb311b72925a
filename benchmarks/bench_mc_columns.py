"""Density and field paths: full matrices against the Monte Carlo check columns.

Simulates the README model (antithetic paths x 64 steps) at 10k, 50k and
100k paths and times, on the same bundle,

- ``density_path``: ``martingale_density(bundle, phi)``, as full
  (n_paths, 65) matrices and at the columns ``MonteCarloPass`` reads for
  the default checks (``time_indices`` 0, 32, 64 and the horizon);
- ``build_forward_exponential``: the same two requests;
- ``oracle``: the whole-matrix statements of ``tests/oracles.py``, the
  same running-sum construction over every path, column by column.

Every column request must equal the oracle's columns bit for bit. Each
route also records its tracemalloc peak in one untimed call. Writes the
median and spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_mc_columns.py \\
        [--repeat 5] [--out BENCH_mc_columns.json]
"""

import argparse
import datetime
import inspect
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

import oracles
from forwardperf import kernels
from forwardperf.ito_engine import (
    CoefficientSpec,
    build_forward_exponential,
    martingale_density,
    simulate_paths,
)
from forwardperf.mc_verifier import MC_CHECKS, MonteCarloPass

SEED = 77
N_STEPS = 64
PATH_COUNTS = (10_000, 50_000, 100_000)
SPEC = CoefficientSpec(
    horizon=1.0,
    breakpoints=(0.0, 0.5),
    theta=(0.5, 0.5),
    delta=(0.0, 0.0),
    phi=(0.3, 0.0),
    rho=(0.1, 0.1),
)


def _repeat(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeat,
        "tracemalloc_peak_mb": peak / 2**20,
    }


def _same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.int64), b.view(np.int64))


def measure(n_paths, cols, repeat):
    bundle = simulate_paths(SPEC, N_STEPS, n_paths, SEED)
    phi = bundle.phi
    draws = oracles.increments(bundle, SEED)
    z_full = oracles.density_path_full(bundle, draws, bundle.theta, phi)
    inv_full, shift_full = oracles.forward_exponential_full(1.0, 0.0, bundle, draws)
    fields = build_forward_exponential(SPEC, 1.0, 0.0, bundle, cols)
    if not (
        _same_bits(martingale_density(bundle, phi), z_full)
        and _same_bits(martingale_density(bundle, phi, cols), z_full[:, cols])
        and _same_bits(fields.inv_gamma, inv_full[:, cols])
        and _same_bits(fields.a_shift, shift_full[:, cols])
    ):
        raise SystemExit(f"n_paths={n_paths}: kernels and oracle differ")
    del z_full, inv_full, shift_full, fields
    row = {"n_paths": n_paths, "n_steps": N_STEPS, "bit_identical": True}
    row["density_path"] = {
        "oracle": _repeat(
            lambda: oracles.density_path_full(bundle, draws, bundle.theta, phi), repeat
        ),
        "full": _repeat(lambda: martingale_density(bundle, phi), repeat),
        "columns": _repeat(lambda: martingale_density(bundle, phi, cols), repeat),
    }
    row["build_forward_exponential"] = {
        "oracle": _repeat(
            lambda: oracles.forward_exponential_full(1.0, 0.0, bundle, draws), repeat
        ),
        "full": _repeat(lambda: build_forward_exponential(SPEC, 1.0, 0.0, bundle), repeat),
        "columns": _repeat(
            lambda: build_forward_exponential(SPEC, 1.0, 0.0, bundle, cols), repeat
        ),
    }
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per route")
    parser.add_argument("--out", default="BENCH_mc_columns.json", help="JSON output path")
    args = parser.parse_args()

    # the pass's columns do not depend on its path count
    if "gamma0" in inspect.signature(MonteCarloPass).parameters:
        cols = MonteCarloPass(SPEC, N_STEPS, PATH_COUNTS[0], MC_CHECKS, 1.0, 0.0, True).columns
    else:  # a source tree from before the pass was told the field start
        cols = MonteCarloPass(SPEC, N_STEPS, PATH_COUNTS[0], MC_CHECKS).columns
    rows = []
    for n_paths in PATH_COUNTS:
        row = measure(n_paths, cols, args.repeat)
        for name in ("density_path", "build_forward_exponential"):
            t = {k: v["median_s"] for k, v in row[name].items()}
            print(
                f"n_paths={n_paths:<6d} {name}: oracle={t['oracle']:.4f}s "
                f"full={t['full']:.4f}s columns={t['columns']:.4f}s",
                flush=True,
            )
        rows.append(row)
    doc = {
        "benchmark": "mc_columns",
        "what": {
            "oracle": "tests/oracles.py whole-matrix statements (density_path_full, "
            "forward_exponential_full)",
            "full": "the package kernel asked for every grid column",
            "columns": "the package kernel asked for MonteCarloPass.columns",
        },
        "model": "README model, antithetic paths",
        "columns": cols,
        "seed": SEED,
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
