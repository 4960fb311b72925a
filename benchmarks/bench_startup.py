"""Start-up cost of a ``forwardperf`` process.

Times fresh interpreters, each started as its own child process:

- ``pass``: ``python -c pass``, the bare interpreter;
- ``import numpy``: ``python -c "import numpy"``;
- ``import forwardperf.cli``: the import every CLI call pays.

A small launcher interpreter forks each child and times it from fork to
exit. Each row records the spread (median, min, max) of the wall times
and of the child's peak resident set (``ru_maxrss``; it never reads
below the launcher's own, about a bare interpreter's). Every side runs
each row once untimed first, so compiled bytecode is on disk before
timing starts. Scenario runs are timed by
``bench_tree_scenario.py``, ``bench_mc_reduce.py`` and
``bench_streaming.py``, with the clock inside the process: the spread of
a whole child's start-up hides a 10% change in a run that short.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is timed too, the two sides alternating
run by run (``ab``); the current rows' ``paired`` holds the median ratio
baseline/current of both quantities, with its 95% interval. Usage:

    PYTHONPATH=src python benchmarks/bench_startup.py \\
        [--repeat 9] [--baseline-src OTHER/src] [--out BENCH_startup.json]
"""

import os
import subprocess
import sys

import ab

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
    return {"time_s": float(elapsed), "maxrss_mb": int(maxrss_kib) / 1024.0}


def main():
    args = ab.parser(__doc__, "startup", 9).parse_args()
    srcs = ab.sides(args)
    rows = {side: [] for side in srcs}
    for name, argv in ROWS.items():
        for src in srcs.values():
            time_child(src, argv)
        samples = ab.alternate(
            {side: lambda src=src: time_child(src, argv) for side, src in srcs.items()}, args.repeat
        )
        summary = ab.summarise(samples, ("time_s", "maxrss_mb"), ("time_s", "maxrss_mb"))
        for side in srcs:
            rows[side].append({"row": name, **summary[side]})
            t = summary[side]["time_s"]
            print(
                f"{side:13s} {name:22s} {t['median']:.3f}s [{t['min']:.3f}, {t['max']:.3f}] "
                f"rss={summary[side]['maxrss_mb']['median']:.1f}MB",
                flush=True,
            )
    doc = ab.header(
        "startup",
        srcs,
        what="fresh interpreters: python -c pass, import numpy, import forwardperf.cli; "
        "the sides alternating run by run",
        **rows,
    )
    ab.write(doc, args.out)


if __name__ == "__main__":
    main()
