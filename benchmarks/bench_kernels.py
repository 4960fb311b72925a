"""Philox block generation and the Gaussian field, against the oracles.

Draws 2**20 blocks (the blocks of ``2**20 / n_steps`` streams) for
n_steps in 1, 4, 16, 64 and 256, with

- ``generator``: ``forwardperf.kernels.philox4x64``, one
  ``numpy.random.Philox`` call per step, each drawing that step's block
  for every stream;
- ``oracle``: the Philox rounds in numpy with 32-bit limbs over the same
  counters (``tests/oracles.py``), computed for all blocks at once.

Both outputs must be equal bit for bit. The generator pays a fixed cost per
step, so at a fixed block count its lead over the oracle shrinks as
n_steps grows (fewer streams share each call).

Then draws both Gaussian fields for 100k streams x 64 steps into
time-major arrays, in runs of 1024 streams, on one workspace: the runs
``ito-verify`` draws when it simulates the full 64-step grid (its budget,
``cli.DRAW_BUDGET``, is 1024 x 64 stream-intervals), with

- ``kernel``: ``forwardperf.kernels.gaussian_field``, four normals per
  block (the full Box-Muller pair);
- ``two_normals``: the replaced kernel kept in ``tests/oracles.py``, two
  normals per block (the cos legs alone), so twice the blocks.

Every run of the kernel must equal ``oracles.gaussian_field_whole`` bit for
bit. Writes the median and spread (min, max) of the repeats as JSON. Usage:

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
FIELD_STREAMS = 100_000
FIELD_STEPS = 64
FIELD_RUN = 1024


def _summary(times, blocks):
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": len(times),
        "blocks": blocks,
        "mblocks_per_s": blocks / statistics.median(times) / 1e6,
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _repeat(fn, repeat):
    times = []
    for _ in range(repeat):
        out, t = _timed(fn)
        times.append(t)
    return out, _summary(times, BLOCKS)


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


def measure_field(repeat):
    """Both fields of FIELD_STREAMS x FIELD_STEPS, drawn run by run into one
    time-major pair on one workspace. The two sides alternate, after one
    untimed draw each, so they share the box's noise."""
    runs = [(lo, min(lo + FIELD_RUN, FIELD_STREAMS)) for lo in range(0, FIELD_STREAMS, FIELD_RUN)]
    work = kernels.Workspace()
    fields = [work.take(f"z{i}", (FIELD_STEPS, FIELD_STREAMS)).T for i in (1, 2)]
    sides = {"kernel": kernels.gaussian_field, "two_normals": oracles.gaussian_field_two_normals}

    def draw_all(draw):
        for lo, hi in runs:
            draw(SEED, hi - lo, FIELD_STEPS, lo, out=(fields[0][lo:hi], fields[1][lo:hi]), work=work)

    times = {name: [] for name in sides}
    for i in range(repeat + 1):
        for name, draw in sides.items():
            _, t = _timed(lambda: draw_all(draw))
            if i:
                times[name].append(t)
    draw_all(kernels.gaussian_field)
    for lo, hi in runs:
        want = oracles.gaussian_field_whole(SEED, hi - lo, FIELD_STEPS, lo)
        if not all(np.array_equal(f[lo:hi], w) for f, w in zip(fields, want)):
            raise SystemExit(f"gaussian_field: streams {lo}..{hi} differ from the oracle")
    row = {"n_streams": FIELD_STREAMS, "n_steps": FIELD_STEPS, "run_streams": FIELD_RUN,
           "bit_identical": True}
    for name, ts in times.items():
        # four normals per block in the kernel, two in the replaced one
        per_block = 4 if name == "kernel" else 2
        row[name] = _summary(ts, 2 * FIELD_STREAMS * FIELD_STEPS // per_block)
    row["speedup_median"] = row["two_normals"]["median_s"] / row["kernel"]["median_s"]
    return row


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
    field = measure_field(args.repeat)
    print(
        f"gaussian_field {FIELD_STREAMS}x{FIELD_STEPS}: "
        f"kernel={field['kernel']['median_s']:.3f}s "
        f"two_normals={field['two_normals']['median_s']:.3f}s "
        f"speedup={field['speedup_median']:.2f}x",
        flush=True,
    )
    doc = {
        "benchmark": "kernels",
        "what": {
            "generator": "forwardperf.kernels.philox4x64: numpy.random.Philox, "
            "one random_raw call per step",
            "oracle": "tests/oracles.py philox_field_blocks: Philox rounds in numpy, "
            "32-bit limbs, all counters at once",
            "gaussian_field.kernel": "forwardperf.kernels.gaussian_field: one block per "
            "stream and step pair, four normals per block",
            "gaussian_field.two_normals": "tests/oracles.py gaussian_field_two_normals: "
            "the replaced kernel, one block per stream and step, two normals per block",
        },
        "seed": SEED,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "gaussian_field": field,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
