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
checkout of the parent commit) is measured too, into ``baseline_rows``,
the two sides alternating repeat by repeat (``ab``); the current rows'
``paired`` holds the median ratio baseline/current of the peak RSS and
the wall time, with its 95% interval. Usage:

    PYTHONPATH=src python benchmarks/bench_streaming.py \\
        [--repeat 6] [--baseline-src OTHER/src] [--out BENCH_streaming.json]
"""

import argparse
import hashlib
import json
import resource
import time

import ab

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


def measure(srcs, n_paths, repeat):
    """{side: row} of one point, each side importing the package from its
    source tree ({side: src}), in a fresh process per repeat and side, the
    sides alternating."""
    samples = ab.alternate(
        {side: lambda src=src: ab.child(__file__, src, n_paths) for side, src in srcs.items()}, repeat
    )
    summary = ab.summarise(
        samples, ("peak_rss_mb", "wall_s", "minflt", "baseline_mb"), ("peak_rss_mb", "wall_s")
    )
    return {
        side: {
            "n_paths": n_paths,
            "runs": runs[0]["runs"],
            **summary[side],
            "report_sha256": ab.one_digest(runs, f"{side} {n_paths} paths"),
        }
        for side, runs in samples.items()
    }


def main():
    parser = ab.parser(__doc__, "streaming", 6)
    parser.add_argument("--child", type=int, metavar="N_PATHS", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return

    srcs = ab.sides(args)
    rows = {side: [] for side in srcs}
    for n_paths in POINTS:
        for side, row in measure(srcs, n_paths, args.repeat).items():
            print(
                f"{side} n_paths={n_paths} runs={row['runs']} "
                f"peak_rss={row['peak_rss_mb']['median']:.1f}MB "
                f"wall={row['wall_s']['median']:.2f}s "
                f"minflt={row['minflt']['median']}",
                flush=True,
            )
            rows[side].append(row)
    doc = ab.header(
        "streaming",
        srcs,
        scenario="ito-verify, README model, plain paths x 64 steps, seed "
        f"{SEED}, checks [inverse-gamma-mean]",
        what="peak RSS (ru_maxrss), wall time and minor page faults (ru_minflt) "
        "of run_ito_scenario in a fresh process per repeat, the sides alternating; baseline_mb "
        "is the RSS after importing forwardperf; runs counts its simulate_paths calls",
        **rows,
    )
    ab.write(doc, args.out)


if __name__ == "__main__":
    main()
