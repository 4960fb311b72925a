"""Philox block generation and the Gaussian field, against the oracles.

Draws 2**20 blocks (the blocks of ``2**20 / n_steps`` streams) for
n_steps in 1, 4, 16, 64 and 256, with

- ``generator``: ``kernels.philox4x64``, one ``numpy.random.Philox`` call
  per step, each drawing that step's block for every stream;
- ``oracle``: the Philox rounds in numpy with 32-bit limbs over the same
  counters (``tests/oracles.py``), computed for all blocks at once.

Both outputs must be equal bit for bit. The generator pays a fixed cost per
step, so at a fixed block count its lead over the oracle shrinks as
n_steps grows (fewer streams share each call).

Then draws both Gaussian fields for 100k streams x 64 steps into
time-major arrays, in runs of 1024 streams, on one workspace: the runs
``ito-verify`` draws when it simulates the full 64-step grid (its budget,
``cli.DRAW_BUDGET``, is 1024 x 64 stream-intervals), with

- ``kernel``: ``kernels.gaussian_field``, four normals per block (the full
  Box-Muller pair), the angle legs from a table and short polynomials;
- ``glibc_angles``: the replaced four-normal kernel kept in
  ``tests/oracles.py``, the angle legs by numpy's cos and sin;
- ``two_normals``: the two-normal kernel replaced before it, kept there
  too, two normals per block (the cos legs alone), so twice the blocks.

Every run of the kernel must equal ``oracles.gaussian_field_whole`` bit for
bit, and the four-normal others must equal it within rounding. The
package's kernels are imported from ``src`` under a package alias
(``report_diff.load_cli``); with ``--baseline-src`` the baseline's
generator and kernel (``baseline``) are timed beside them. Per row, the
calls run once untimed and then in ABBA rounds (``ab.race``); ``paired``
holds each one's median ratio to the generator or kernel, with its 95%
interval. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_kernels.py \\
        [--repeat 6] [--baseline-src OTHER/src] [--out BENCH_kernels.json]
"""

import importlib

import numpy as np

import ab
import oracles
from report_diff import load_cli

SEED = 1234
BLOCKS = 2**20
STEP_COUNTS = (1, 4, 16, 64, 256)
FIELD_STREAMS = 100_000
FIELD_STEPS = 64
FIELD_RUN = 1024


def measure(n_steps, repeat, packages):
    """The generators of ``packages`` ({side: kernels module}) against the
    oracle, bit for bit, then timed."""
    n_streams = BLOCKS // n_steps
    calls = {
        "generator": lambda: packages[ab.CURRENT].philox4x64(SEED, n_streams, n_steps),
        "oracle": lambda: oracles.philox_field_blocks(SEED, n_streams, n_steps),
    }
    if ab.BASELINE in packages:
        calls["baseline"] = lambda: packages[ab.BASELINE].philox4x64(SEED, n_streams, n_steps)
    want = calls["oracle"]()
    for name, call in calls.items():
        if not np.array_equal(call(), want):
            raise SystemExit(f"n_steps={n_steps}: {name} and oracle blocks differ")
    return {"n_steps": n_steps, "n_streams": n_streams, "blocks": BLOCKS, "bit_identical": True,
            **ab.race(calls, repeat)}


def within_rounding(field, want):
    """Normals of other angle legs: below 9 in size, their legs within
    1.5e-15 of the kernel's, and each rounded once more."""
    return np.allclose(field, want, rtol=2**-52, atol=9 * 1.5e-15)


def measure_field(repeat, packages):
    """Both fields of FIELD_STREAMS x FIELD_STEPS, drawn run by run into one
    time-major pair on one workspace."""
    kernels = packages[ab.CURRENT]
    runs = [(lo, min(lo + FIELD_RUN, FIELD_STREAMS)) for lo in range(0, FIELD_STREAMS, FIELD_RUN)]
    work = kernels.Workspace()
    fields = [work.take(f"z{i}", (FIELD_STEPS, FIELD_STREAMS)).T for i in (1, 2)]

    def draw_all(draw):
        for lo, hi in runs:
            draw(SEED, hi - lo, FIELD_STEPS, lo, out=(fields[0][lo:hi], fields[1][lo:hi]), work=work)

    draws = {
        "kernel": kernels.gaussian_field,
        "glibc_angles": oracles.gaussian_field_glibc_angles,
        "two_normals": oracles.gaussian_field_two_normals,
    }
    if ab.BASELINE in packages:
        draws["baseline"] = packages[ab.BASELINE].gaussian_field
    row = ab.race({name: lambda draw=draw: draw_all(draw) for name, draw in draws.items()}, repeat)
    for name, draw in draws.items():
        if name == "two_normals":
            continue
        draw_all(draw)
        for lo, hi in runs:
            want = oracles.gaussian_field_whole(SEED, hi - lo, FIELD_STEPS, lo)
            same = np.array_equal if name == "kernel" else within_rounding
            if not all(same(f[lo:hi], w) for f, w in zip(fields, want)):
                raise SystemExit(f"gaussian_field ({name}): streams {lo}..{hi} differ from the oracle")
    return {"n_streams": FIELD_STREAMS, "n_steps": FIELD_STEPS, "run_streams": FIELD_RUN,
            "bit_identical": True, **row}


def main():
    args = ab.parser(__doc__, "kernels", 6).parse_args()
    srcs = ab.sides(args)
    packages = {
        side: importlib.import_module(load_cli(src, f"forwardperf_{side}").__package__ + ".kernels")
        for side, src in srcs.items()
    }

    def line(label, row, subject, other):
        paired = row["paired"][other]
        return (f"{label} {subject}={row[subject]['median']:.3f}s {other}={row[other]['median']:.3f}s "
                f"{other}/{subject}={ab.ratio_text(paired)}")

    rows = []
    for n_steps in STEP_COUNTS:
        rows.append(measure(n_steps, args.repeat, packages))
        for other in rows[-1]["paired"]:
            print(line(f"n_steps={n_steps:<4d}", rows[-1], "generator", other), flush=True)
    field = measure_field(args.repeat, packages)
    for other in field["paired"]:
        print(line(f"gaussian_field {FIELD_STREAMS}x{FIELD_STEPS}", field, "kernel", other), flush=True)
    doc = ab.header(
        "kernels",
        srcs,
        what={
            "generator": "kernels.philox4x64: numpy.random.Philox, one random_raw call per step",
            "oracle": "tests/oracles.py philox_field_blocks: Philox rounds in numpy, "
            "32-bit limbs, all counters at once",
            "gaussian_field.kernel": "kernels.gaussian_field: one block per stream and step "
            "pair, four normals per block, the angle legs from a table and polynomials",
            "gaussian_field.glibc_angles": "tests/oracles.py gaussian_field_glibc_angles: "
            "the replaced four-normal kernel, the angle legs by numpy's cos and sin",
            "gaussian_field.two_normals": "tests/oracles.py gaussian_field_two_normals: "
            "the replaced kernel, one block per stream and step, two normals per block",
            "baseline": "the baseline source tree's philox4x64 or gaussian_field",
            "bit_identical": "the generator's blocks and the kernel's fields equal the oracles' "
            "bit for bit; the other four-normal fields equal them within rounding",
            "paired": "per name, its median time ratio to the generator or kernel over ABBA "
            "rounds, with a sign-test 95% interval",
        },
        seed=SEED,
        rows=rows,
        gaussian_field=field,
    )
    ab.write(doc, args.out)


if __name__ == "__main__":
    main()
