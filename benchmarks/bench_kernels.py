"""Philox block generation: the package's generator against the oracle.

Draws 2**20 blocks (the blocks of ``2**20 / n_steps`` streams) for
n_steps in 1, 4, 16, 64 and 256, with

- ``generator``: ``forwardperf.kernels.philox4x64``, one
  ``numpy.random.Philox`` call per step, each drawing that step's block
  for every stream;
- ``oracle``: the Philox rounds in numpy with 32-bit limbs over the same
  counters (``tests/oracles.py``), computed for all blocks at once.

Both outputs must be equal bit for bit. The generator pays a fixed cost per
step, so at a fixed block count its lead over the oracle shrinks as
n_steps grows (fewer streams share each call). Writes the median and
spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_kernels.py \\
        [--repeat 5] [--out BENCH_kernels.json]
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

SEED = 1234
BLOCKS = 2**20
STEP_COUNTS = (1, 4, 16, 64, 256)


def _repeat(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": repeat,
        "mblocks_per_s": BLOCKS / statistics.median(times) / 1e6,
    }


def measure(n_steps, repeat):
    n_streams = BLOCKS // n_steps
    got, generator = _repeat(lambda: kernels.philox4x64(SEED, n_streams, n_steps), repeat)
    want, oracle = _repeat(
        lambda: oracles.philox_field_blocks(SEED, n_streams, n_steps), repeat
    )
    if not np.array_equal(got, want):
        raise SystemExit(f"n_steps={n_steps}: generator and oracle blocks differ")
    return {
        "n_steps": n_steps,
        "n_streams": n_streams,
        "blocks": BLOCKS,
        "bit_identical": True,
        "generator": generator,
        "oracle": oracle,
        "speedup_median": oracle["median_s"] / generator["median_s"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repetitions per side")
    parser.add_argument("--out", default="BENCH_kernels.json", help="JSON output path")
    args = parser.parse_args()

    rows = []
    for n_steps in STEP_COUNTS:
        row = measure(n_steps, args.repeat)
        print(
            f"n_steps={n_steps:<4d} generator={row['generator']['median_s']:.3f}s "
            f"oracle={row['oracle']['median_s']:.3f}s "
            f"speedup={row['speedup_median']:.2f}x",
            flush=True,
        )
        rows.append(row)
    doc = {
        "benchmark": "kernels",
        "what": {
            "generator": "forwardperf.kernels.philox4x64: numpy.random.Philox, "
            "one random_raw call per step",
            "oracle": "tests/oracles.py philox_field_blocks: Philox rounds in numpy, "
            "32-bit limbs, all counters at once",
        },
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
