"""Start-up cost of a ``forwardperf`` process.

Times fresh interpreters, each started as its own child process:

- ``pass``: ``python -c pass``, the bare interpreter;
- ``import numpy``: ``python -c "import numpy"``;
- ``import forwardperf.cli``: the import every CLI call pays;
- ``run tree``: ``python -m forwardperf run`` on a small ``tree-verify``
  scenario (``random_tree(7, periods=2)`` with its solved field, all
  default checks);
- ``run ito``: the same on a small ``ito-verify`` scenario (the README
  model, 2000 antithetic paths x 16 steps, the default suite).

A small launcher interpreter forks each child and times it from fork to
exit. Each row records the median and spread (min, max) of the wall
times, the child's peak resident set (``ru_maxrss``, median and max; it
never reads below the launcher's own, about a bare interpreter's) and,
for the run rows, the SHA-256 of the report it wrote. Every side runs
each row once untimed first, so compiled bytecode is on disk before
timing starts.

With ``--baseline-src`` a second source tree (say, the ``src`` of a
checkout of the parent commit) is timed too, alternating with this one
repeat by repeat; the report digests show whether the two agree byte for
byte. Each tree is recorded by the SHA-256 of its sources
(``provenance.source_sha256``), not by its path. Usage:

    PYTHONPATH=src:tests python benchmarks/bench_startup.py \\
        [--repeat 9] [--baseline-src OTHER/src] [--out BENCH_startup.json]
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SEED = 7
HERE = os.path.dirname(os.path.abspath(__file__))
ROWS = {
    "pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import forwardperf.cli": ["-c", "import forwardperf.cli"],
    "run tree": ["-m", "forwardperf", "run", "{tree}", "--out", "{report}"],
    "run ito": ["-m", "forwardperf", "run", "{ito}", "--out", "{report}"],
}


def write_scenarios(tmp):
    """The two scenario files the run rows read."""
    from treegen import random_tree, solved_field

    tree = random_tree(SEED, periods=2)
    field = solved_field(tree, SEED)
    docs = {
        "tree": {
            "schema_version": 1,
            "kind": "tree-verify",
            "tree": tree.to_dict(),
            "gamma": {"mode": "explicit", "values": field.gamma},
            "a_shift": {"mode": "explicit", "values": field.a_shift},
        },
        "ito": {
            "schema_version": 1,
            "kind": "ito-verify",
            "model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3},
            "gamma0": 1.0,
            "n_steps": 16,
            "n_paths": 2000,
            "seed": 42,
        },
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


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


def summarise(name, runs, report_digests):
    times = [t for t, _ in runs]
    rss = [r for _, r in runs]
    row = {
        "row": name,
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "repeats": len(runs),
        "maxrss_mb_median": statistics.median(rss),
        "maxrss_mb_max": max(rss),
    }
    if report_digests:
        row["report_sha256"] = report_digests[0]
        row["reports_equal"] = len(set(report_digests)) == 1
    return row


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
    digests = {side: {name: [] for name in ROWS} for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_scenarios(tmp)
        report = os.path.join(tmp, "report.json")

        def argv_of(name):
            return [a.format(report=report, **paths) for a in ROWS[name]]

        for side in sides:
            for name in ROWS:
                time_child(sides[side], argv_of(name))
        for rep in range(args.repeat):
            order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
            for side in order:
                for name in ROWS:
                    if os.path.exists(report):
                        os.remove(report)
                    runs[side][name].append(time_child(sides[side], argv_of(name)))
                    if "{report}" in ROWS[name]:
                        with open(report, "rb") as fh:
                            digests[side][name].append(hashlib.sha256(fh.read()).hexdigest())
    rows = {}
    for side in sides:
        rows[side] = [summarise(name, runs[side][name], digests[side][name]) for name in ROWS]
        for row in rows[side]:
            sha = row.get("report_sha256", "")[:12]
            print(
                f"{side:13s} {row['row']:22s} {row['median_s']:.3f}s "
                f"[{row['min_s']:.3f}, {row['max_s']:.3f}] "
                f"rss={row['maxrss_mb_median']:.1f}MB {sha}",
                flush=True,
            )
    doc = {
        "benchmark": "startup",
        "what": "fresh interpreters: python -c pass, import numpy, import forwardperf.cli, "
        "python -m forwardperf run on a small tree-verify and a small ito-verify scenario",
        "tree": f"random_tree({SEED}, periods=2), solved_field(tree, {SEED}), default checks",
        "ito": "README model (theta 0.5, phi 0.3), 2000 antithetic paths x 16 steps, seed 42, "
        "default suite",
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
