"""Peak memory and wall time of a streamed ``ito-verify`` run by path count.

Runs one scenario, the README model with plain paths x 64 steps and the
inverse-gamma-mean check alone, at 100k and 400k paths; the draw budget
``cli.DRAW_BUDGET`` alone splits the streams into runs. Every point runs
in a fresh process, so its peak RSS is its own: the process imports
forwardperf, records its RSS (the import baseline), then runs the
scenario through ``run_ito_scenario`` and records wall time, peak RSS
(``ru_maxrss``), the minor page faults the run took (``ru_minflt``, read
with ``getrusage`` in the same process before and after it) and the
number of runs (``simulate_paths`` calls). Each point also records the
SHA-256 of its report, which must not change between repeats.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is measured too, alternating with this one
point by point, into ``baseline_rows``. Each tree is recorded by the
SHA-256 of its sources (``provenance.source_sha256``), not by its path.

Writes the median and spread (min, max) of the repeats as JSON. Usage:

    PYTHONPATH=src python benchmarks/bench_streaming.py \\
        [--repeat 3] [--baseline-src OTHER/src] [--out BENCH_streaming.json]
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

POINTS = (100_000, 400_000)
SEED = 77
MODEL = {
    "horizon": 1.0,
    "breakpoints": [0.0, 0.5],
    "theta": [0.5, 0.5],
    "delta": 0.0,
    "phi": [0.3, 0.0],
    "rho": 0.1,
}


def scenario(n_paths):
    return {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": MODEL,
        "gamma0": 1.0,
        "a0": 0.0,
        "n_steps": 64,
        "n_paths": n_paths,
        "seed": SEED,
        "antithetic": False,
        "checks": ["inverse-gamma-mean"],
    }


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def child(n_paths):
    """One measurement, printed as a JSON line."""
    from forwardperf import cli

    runs = 0
    simulate = cli.simulate_paths

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return simulate(*args, **kwargs)

    cli.simulate_paths = counted
    before = _usage()
    t0 = time.perf_counter()
    report = cli.run_ito_scenario(scenario(n_paths))
    wall = time.perf_counter() - t0
    after = _usage()
    text = report.to_json()
    print(
        json.dumps(
            {
                "wall_s": wall,
                "peak_rss_mb": after.ru_maxrss / 1024.0,
                "minflt": after.ru_minflt - before.ru_minflt,
                "baseline_mb": before.ru_maxrss / 1024.0,
                "runs": runs,
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
    return {
        "n_paths": n_paths,
        "runs": samples[0]["runs"],
        "repeats": repeat,
        "peak_rss_mb": _spread([r["peak_rss_mb"] for r in samples]),
        "wall_s": _spread([r["wall_s"] for r in samples]),
        "minflt": _spread([r["minflt"] for r in samples]),
        "baseline_mb": _spread([r["baseline_mb"] for r in samples]),
        "report_sha256": digests.pop(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="fresh processes per point")
    parser.add_argument("--baseline-src", help="a second source tree to measure beside this one")
    parser.add_argument("--out", default="BENCH_streaming.json", help="JSON output path")
    parser.add_argument("--child", type=int, metavar="N_PATHS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return

    from forwardperf import kernels
    from provenance import source_sha256

    sides = {"rows": os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")}
    if args.baseline_src:
        sides["baseline_rows"] = args.baseline_src
    rows = {side: [] for side in sides}
    for k, n_paths in enumerate(POINTS):
        for side in list(sides) if k % 2 else list(sides)[::-1]:
            row = measure(sides[side], n_paths, args.repeat)
            print(
                f"{side} n_paths={n_paths} runs={row['runs']} "
                f"peak_rss={row['peak_rss_mb']['median']:.1f}MB "
                f"wall={row['wall_s']['median']:.2f}s "
                f"minflt={row['minflt']['median']}",
                flush=True,
            )
            rows[side].append(row)
    doc = {
        "benchmark": "streaming",
        "scenario": "ito-verify, README model, plain paths x 64 steps, seed "
        f"{SEED}, checks [inverse-gamma-mean]",
        "what": "peak RSS (ru_maxrss), wall time and minor page faults (ru_minflt) "
        "of run_ito_scenario in a fresh process per repeat; baseline_mb is the RSS "
        "after importing forwardperf; runs counts its simulate_paths calls",
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
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
