"""Start-up cost of a ``forwardperf`` process.

Times fresh interpreters, each started as its own child process:

- ``pass``: ``python -c pass``, the bare interpreter;
- ``import numpy``: ``python -c "import numpy"``;
- ``import forwardperf.cli``: the import every CLI call pays.

A small launcher interpreter forks each child and times it from fork to
exit. Each row records the median and spread (min, max) of the wall
times, the child's peak resident set (``ru_maxrss``, median and max; it
never reads below the launcher's own, about a bare interpreter's).
Every side runs each row once untimed first, so compiled bytecode is on
disk before timing starts. Scenario runs are timed by
``bench_tree_scenario.py``, ``bench_mc_reduce.py`` and
``bench_streaming.py``, with the clock inside the process: the spread of
a whole child's start-up hides a 10% change in a run that short.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is timed too, alternating with this one
repeat by repeat. Each tree is recorded by the SHA-256 of its sources
(``provenance.source_sha256``), not by its path. Usage:

    PYTHONPATH=src python benchmarks/bench_startup.py \\
        [--repeat 9] [--baseline-src OTHER/src] [--out BENCH_startup.json]
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROWS = {
    "pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import forwardperf.cli": ["-c", "import forwardperf.cli"],
}


# Forks and execs one command, then prints its wall time, exit code and
# ru_maxrss (KiB). Linux carries the peak of the address space an exec
# replaces into the new program's ru_maxrss, and a spawn from this process
# would start from its numpy-sized peak; a fork of this small launcher
# starts from a bare interpreter's.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    try:
        os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def time_child(src, argv):
    """Wall time and peak RSS (MB) of one fresh interpreter importing from src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv], env=env, check=True, capture_output=True, text=True
    ).stdout
    elapsed, code, maxrss_kib = out.split()
    if code != "0":
        raise RuntimeError(f"{argv} exited {code}")
    return float(elapsed), int(maxrss_kib) / 1024.0


def summarise(name, runs):
    times = [t for t, _ in runs]
    rss = [r for _, r in runs]
    return {
        "row": name,
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": len(runs),
        "maxrss_mb_median": statistics.median(rss),
        "maxrss_mb_max": max(rss),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9, help="timed runs per row and side")
    parser.add_argument("--baseline-src", help="a second source tree to time beside this one")
    parser.add_argument("--out", default="BENCH_startup.json", help="JSON output path")
    args = parser.parse_args()

    import numpy as np

    from forwardperf import kernels
    from provenance import source_sha256

    sides = {"rows": os.path.join(HERE, "..", "src")}
    if args.baseline_src:
        sides["baseline_rows"] = args.baseline_src
    runs = {side: {name: [] for name in ROWS} for side in sides}
    for side in sides:
        for argv in ROWS.values():
            time_child(sides[side], argv)
    for rep in range(args.repeat):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for side in order:
            for name, argv in ROWS.items():
                runs[side][name].append(time_child(sides[side], argv))
    rows = {}
    for side in sides:
        rows[side] = [summarise(name, runs[side][name]) for name in ROWS]
        for row in rows[side]:
            print(
                f"{side:13s} {row['row']:22s} {row['median_s']:.3f}s "
                f"[{row['min_s']:.3f}, {row['max_s']:.3f}] "
                f"rss={row['maxrss_mb_median']:.1f}MB",
                flush=True,
            )
    doc = {
        "benchmark": "startup",
        "what": "fresh interpreters: python -c pass, import numpy, import forwardperf.cli",
        "src_sha256": source_sha256(sides["rows"]),
        "baseline_src_sha256": source_sha256(args.baseline_src) if args.baseline_src else None,
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernel_backend": kernels.BACKEND,
        **rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
