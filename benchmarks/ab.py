"""The A/B harness of the ``bench_*.py`` scripts.

Every script measures the package under ``src`` beside this directory,
its rows, and with ``--baseline-src`` a second source tree beside it, its
baseline rows; to measure a change against its parent commit:

    git archive PARENT src | tar -x -C DIR
    python benchmarks/bench_NAME.py --baseline-src DIR/src

The two sides alternate run by run in ABBA order (``alternate``), so a
drift of a noisy machine lands on both alike. Each timed quantity is
written as its spread over the runs (``spread``: median, min, max and the
run count), and beside a baseline as a paired summary (``paired``): the
median of the per-pair ratios baseline/current, above 1 when the current
tree is faster, with a distribution-free 95% interval for it. A speed-up
or slow-down is resolved only when that interval excludes 1. Each file
opens with one header (``header``): the benchmark, the SHA-256 of each
side's sources (``provenance.source_sha256``), date, nproc, kernel
backend, numpy, python and machine.
"""

import argparse
import datetime
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from provenance import source_sha256

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the two sides, named by the lists of rows they write
CURRENT, BASELINE = "rows", "baseline_rows"


def parser(doc, benchmark, repeat):
    """The command line every script takes: ``--repeat``, ``--baseline-src``
    and ``--out``, by default ``BENCH_<benchmark>.json``."""
    out = argparse.ArgumentParser(description=doc.splitlines()[0])
    out.add_argument("--repeat", type=int, default=repeat, help="runs per side")
    out.add_argument("--baseline-src", help="a second source tree to measure beside this one")
    out.add_argument("--out", default=f"BENCH_{benchmark}.json", help="JSON output path")
    return out


def sides(args):
    """{side: source tree}: this checkout's ``src``, and the baseline's
    when ``--baseline-src`` gives one."""
    out = {CURRENT: SRC}
    if args.baseline_src:
        out[BASELINE] = args.baseline_src
    return out


def alternate(calls, repeat):
    """Each of ``calls``, a {name: call} mapping, ``repeat`` times: in the
    mapping's order on even rounds and reversed on odd ones. Returns
    {name: [what each call returned]}."""
    names = list(calls)
    got = {name: [] for name in names}
    for i in range(repeat):
        for name in names if i % 2 == 0 else names[::-1]:
            got[name].append(calls[name]())
    return got


def timed(call):
    """``call()`` and its wall time in seconds, with ``gc`` collected before
    the call and disabled during it."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        out = call()
        return out, perf_counter() - t0
    finally:
        gc.enable()


def child(script, src, *args):
    """The JSON line that ``script --child ARGS`` prints, run in a fresh
    process that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, script, "--child", *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def spread(values):
    """The median, min and max of one quantity over its runs, and the run
    count."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "repeats": len(values)}


def sign_rank(n):
    """The order statistic k whose pair (k, n + 1 - k) brackets the median
    of n samples with probability at least 95%: the largest k with
    P(Bin(n, 1/2) <= k - 1) <= 2.5%. 0 when there is none (n < 6)."""
    k = tail = 0
    while 40 * (tail + math.comb(n, k)) <= 2**n:
        tail += math.comb(n, k)
        k += 1
    return k


def paired(baseline, current):
    """The median of the ratios baseline/current of runs paired in order,
    and its sign-test 95% interval (None below 6 pairs)."""
    ratios = sorted(b / c for b, c in zip(baseline, current, strict=True))
    k = sign_rank(len(ratios))
    return {
        "pairs": len(ratios),
        "ratio": statistics.median(ratios),
        "ci95": [ratios[k - 1], ratios[-k]] if k else None,
    }


def ratio_text(summary):
    """A paired summary as ``ratio [low, high]``, for a progress line."""
    ci = summary["ci95"]
    return f"{summary['ratio']:.3f}" + (f" [{ci[0]:.3f}, {ci[1]:.3f}]" if ci else "")


def summarise(samples, keys, paired_keys):
    """{side: {key: spread}} of ``keys`` over the runs each side made (one
    dict per run), and on the current side, beside a baseline, the paired
    summary of each of ``paired_keys`` under ``paired``."""
    out = {side: {key: spread([r[key] for r in runs]) for key in keys}
           for side, runs in samples.items()}
    if BASELINE in samples:
        out[CURRENT]["paired"] = {
            key: paired([r[key] for r in samples[BASELINE]], [r[key] for r in samples[CURRENT]])
            for key in paired_keys
        }
    return out


def race(calls, repeat):
    """In-process calls timed against each other: one untimed call each,
    then ``repeat`` timed rounds of ``alternate``. Returns {name: spread of
    its seconds}, and under ``paired`` each later name's paired summary
    against the first, above 1 where the first is faster."""
    for call in calls.values():
        call()
    got = alternate({name: lambda call=call: timed(call)[1] for name, call in calls.items()}, repeat)
    first, *others = calls
    return {**{name: spread(times) for name, times in got.items()},
            "paired": {name: paired(got[name], got[first]) for name in others}}


def one_digest(runs, where):
    """The report SHA-256 all ``runs`` of one side wrote; raises if they
    differ."""
    digests = {r["report_sha256"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError(f"reports differ between repeats at {where}")
    return digests.pop()


def numpy_simd():
    """numpy's SIMD dispatch targets active here, comma-separated: those it
    was built for that the CPU has and ``NPY_DISABLE_CPU_FEATURES`` leaves
    on. Its float64 exp and log round differently under X86_V4."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return ",".join(target for target in __cpu_dispatch__ if __cpu_features__.get(target))


def header(benchmark, srcs, **fields):
    """The fields every BENCH file opens with, then ``fields``: numpy's
    active SIMD dispatch targets, and the forced OpenBLAS core type when
    ``OPENBLAS_CORETYPE`` is set, beside the numpy version and nproc."""
    import numpy as np

    from forwardperf import kernels

    core = os.environ.get("OPENBLAS_CORETYPE")
    return {
        "benchmark": benchmark,
        "src_sha256": source_sha256(srcs[CURRENT]),
        "baseline_src_sha256": source_sha256(srcs[BASELINE]) if BASELINE in srcs else None,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.BACKEND,
        "numpy": np.__version__,
        "numpy_simd": numpy_simd(),
        **({"openblas_coretype": core} if core else {}),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **fields,
    }


def write(doc, out):
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
