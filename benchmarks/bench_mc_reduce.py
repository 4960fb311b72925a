"""Monte Carlo statistics: time, page faults and memory of ``gather`` and ``reduce``.

Runs ``MonteCarloPass`` once per point, simulated in runs of at most
``cli.DRAW_BUDGET`` stream-intervals as ``cli.run_ito_scenario`` does,
64 steps, seed 77, at these points:

- the default suite of Monte Carlo checks on the README model
  (antithetic paths, delta = 0) at 50k, 100k and 400k paths;
- the same at 100k paths on the README model with delta = 0.2 on its
  first piece, where 1/gamma varies by path and the pass keeps it per
  path;
- ``inverse-gamma-mean`` alone on the README model at 100k plain paths,
  as the chunked benchmark workload runs it.

Every repeat runs in a fresh process, so the page faults and the peak
resident set are the ones a command-line run takes. The process makes
two passes over the same simulation. The first records the wall time and
the minor page faults (``ru_minflt``, from ``getrusage`` in the same
process) of the ``gather`` calls (summed over the runs, without the
simulation) and of ``reduce``, and then the process's peak resident set
(``ru_maxrss``). The second runs under ``tracemalloc`` and records the
traced peak of each ``gather`` call above the memory traced when it
starts (the largest over the runs; the first run's allocates the pass's
arrays), the memory the pass holds once the last run's bundle is
dropped, and the traced peak of ``reduce`` above that. It also records
each phase's absolute traced peak, all that the pass traces since its
start: ``simulate`` and ``gather`` (the largest over the runs, the run's
workspace alive) and ``reduce``; the largest of the three is the phase
that sets the peak resident set. Both passes must write the same report,
and its SHA-256 must not change between repeats.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is measured too, alternating with this one
point by point, into ``baseline_rows``. Each tree is recorded by the
SHA-256 of its sources (``provenance.source_sha256``), not by its path.

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
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

SEED = 77
N_STEPS = 64
README = dict(
    horizon=1.0,
    breakpoints=(0.0, 0.5),
    theta=(0.5, 0.5),
    delta=(0.0, 0.0),
    phi=(0.3, 0.0),
    rho=(0.1, 0.1),
)
MODELS = {"readme": README, "readme+delta": dict(README, delta=(0.2, 0.0))}
# checks -> antithetic pairing; "suite" is every Monte Carlo check
CHECKS = {"suite": True, "inverse-gamma-mean": False}
POINTS = (
    ("readme", "suite", 50_000),
    ("readme", "suite", 100_000),
    ("readme", "suite", 400_000),
    ("readme+delta", "suite", 100_000),
    ("readme", "inverse-gamma-mean", 100_000),
)


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(n_paths, model, checks):
    """Two passes over ``n_paths`` paths of ``model``, printed as a JSON
    line: timed and counted, then traced."""
    from forwardperf import cli
    from forwardperf.ito_engine import CoefficientSpec, simulate_paths
    from forwardperf.kernels import Workspace
    from forwardperf.mc_verifier import MC_CHECKS, MonteCarloPass

    spec = CoefficientSpec(**MODELS[model])
    antithetic = CHECKS[checks]
    names = MC_CHECKS if checks == "suite" else [checks]
    per = 2 if antithetic else 1  # paths per stream

    def one_pass(phase):
        """The pass with every run gathered, and its run count;
        ``phase(name, call)`` makes each ``simulate`` and ``gather`` call
        and returns what it returns."""
        mc = MonteCarloPass(spec, N_STEPS, n_paths, names, 1.0, 0.0, antithetic)
        columns = mc.simulated_columns
        work = Workspace()
        runs = cli._stream_runs([(0, n_paths // per)], len(columns) - 1)
        for lo, hi in runs:
            bundle = phase("simulate", lambda: simulate_paths(
                spec, N_STEPS, per * (hi - lo), SEED, antithetic=antithetic, stream_offset=lo,
                work=work, columns=columns,
            ))
            phase("gather", lambda: mc.gather(bundle))
        del bundle, work
        return mc, len(runs)

    row = {"gather_s": 0.0, "gather_minflt": 0}

    def timed(name, call):
        faults = _minflt()
        t0 = time.perf_counter()
        result = call()
        if name == "gather":
            row["gather_s"] += time.perf_counter() - t0
            row["gather_minflt"] += _minflt() - faults
        return result

    mc, row["runs"] = one_pass(timed)
    faults = _minflt()
    t0 = time.perf_counter()
    report = mc.reduce()
    row["reduce_s"] = time.perf_counter() - t0
    row["reduce_minflt"] = _minflt() - faults
    row["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    text = report.to_json()
    del mc, report

    row.update(gather_peak_kb=0.0, simulate_abs_kb=0.0, gather_abs_kb=0.0)

    def traced(name, call):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        row[f"{name}_abs_kb"] = max(row[f"{name}_abs_kb"], peak / 1024.0)
        if name == "gather":
            row["gather_peak_kb"] = max(row["gather_peak_kb"], (peak - held) / 1024.0)
        return result

    tracemalloc.start()
    try:
        mc, _ = one_pass(traced)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = mc.reduce()
        peak = tracemalloc.get_traced_memory()[1]
        row["reduce_peak_kb"] = (peak - held) / 1024.0
        row["reduce_abs_kb"] = peak / 1024.0
    finally:
        tracemalloc.stop()
    row["held_kb"] = held / 1024.0
    if report.to_json() != text:
        raise RuntimeError("the traced pass wrote another report")
    row["records"] = len(report)
    row["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(row))


def _spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def measure(src, n_paths, repeat, model="readme", checks="suite"):
    """One point in ``repeat`` fresh processes that import the package
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    samples = []
    for _ in range(repeat):
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(n_paths), model, checks],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        samples.append(json.loads(out.stdout))
    digests = {r["report_sha256"] for r in samples}
    if len(digests) != 1:
        raise RuntimeError(f"reports differ between repeats at {model}, {checks}, {n_paths} paths")
    row = {
        "model": model,
        "checks": checks,
        "antithetic": CHECKS[checks],
        "n_paths": n_paths,
        "runs": samples[0]["runs"],
        "repeats": repeat,
    }
    for key in (
        "gather_s", "gather_minflt", "reduce_s", "reduce_minflt", "maxrss_mb",
        "gather_peak_kb", "held_kb", "reduce_peak_kb", "simulate_abs_kb", "gather_abs_kb",
        "reduce_abs_kb",
    ):
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
    parser.add_argument(
        "--child", nargs=3, metavar=("N_PATHS", "MODEL", "CHECKS"), help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.child:
        n_paths, model, checks = args.child
        child(int(n_paths), model, checks)
        return

    from forwardperf import kernels
    from provenance import source_sha256

    sides = {"rows": os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")}
    if args.baseline_src:
        sides["baseline_rows"] = args.baseline_src
    rows = {side: [] for side in sides}
    for k, (model, checks, n_paths) in enumerate(POINTS):
        for side in list(sides) if k % 2 else list(sides)[::-1]:
            row = measure(sides[side], n_paths, args.repeat, model, checks)
            print(
                f"{side} {model} {checks} n_paths={n_paths} runs={row['runs']} "
                f"gather={row['gather_s']['median']:.4f}s "
                f"({row['gather_minflt']['median']} faults, "
                f"{row['gather_peak_kb']['median']:.0f} KB peak) "
                f"reduce={row['reduce_s']['median']:.4f}s "
                f"({row['reduce_minflt']['median']} faults, "
                f"{row['reduce_peak_kb']['median']:.0f} KB peak) "
                f"held={row['held_kb']['median']:.0f} KB "
                f"absolute simulate/gather/reduce={row['simulate_abs_kb']['median']:.0f}/"
                f"{row['gather_abs_kb']['median']:.0f}/{row['reduce_abs_kb']['median']:.0f} KB "
                f"maxrss={row['maxrss_mb']['median']:.2f} MB",
                flush=True,
            )
            rows[side].append(row)
    doc = {
        "benchmark": "mc_reduce",
        "scenario": f"MonteCarloPass, {N_STEPS} steps, seed {SEED}, runs of at most "
        "cli.DRAW_BUDGET stream-intervals: the default suite on the README model (antithetic, "
        "delta 0) and on it with delta (0.2, 0.0), and inverse-gamma-mean alone on plain paths",
        "what": "first pass: wall time and minor page faults (ru_minflt) of gather (summed "
        "over the runs) and of reduce, then the process's peak RSS (ru_maxrss); second pass, "
        "under tracemalloc: the largest traced peak of a gather call above the memory traced "
        "at its start, the memory the pass holds after the last run, and the traced peak of "
        "reduce above that; the absolute traced peak of each phase (simulate, gather with the "
        "run's workspace alive, reduce); a fresh process per repeat; kernels: the replaced kernels of "
        "tests/oracles.py against the package's, seconds per call",
        "src_sha256": source_sha256(sides["rows"]),
        "baseline_src_sha256": source_sha256(args.baseline_src) if args.baseline_src else None,
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
