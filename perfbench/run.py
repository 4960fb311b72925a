"""Scenario benchmark for forwardperf.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout, with the package imported from
``src/`` as it stands (nothing is installed). Each measurement runs in a
fresh child process (``child.py``), one at a time, with BLAS threads
capped at 1. The seed makes the scenarios; the child sends them through
``forwardperf.cli.main(["run", ...])`` back to back, and every report is
judged for correctness and digested.

Set-up (interpreter start, importing forwardperf, generating and writing
the scenarios) is timed in several children and reported as a median.
Each child runs pinned to the CPU that is faster when it starts, and
``setup_s`` and ``wall_s`` are rescaled to a reference CPU speed
(``cpuspeed.py``); the times as measured are printed in the summary line.
With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` an untraced and a traced child run the same scenarios
and the last line holds the per-layer metrics, including the tracing
overhead. Working files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cpuspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # timed set-ups per run; the median is reported
DEADLINE_S = 170.0
MIN_TRACE_COVERAGE = 0.95
BLAS_THREADS = "1"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    # median per-scenario time of the untraced child; a median of a few
    # scenarios jumps between the speed plateaus of a shared machine more
    # than wall_s does, so it carries no bound
    ("scenario_p50_s", "s"),
    ("cli.load_scenario.s", "s"),
    ("report.to_json.s", "s"),
    ("report.records", "count"),
    *(
        (f"tree_verifier.{fn}.s", "s")
        for fn in (
            "solve_entropy_shift",
            "check_self_generation_primal",
            "check_self_generation_dual",
            "check_value_conjugacy",
            "check_exponential_conditions",
            "check_forward_supermartingale",
        )
    ),
    ("tree_verifier.primal_value.calls", "count"),
    ("tree_verifier.primal_value.self_s", "s"),
    ("tree_verifier.dual_value.calls", "count"),
    ("tree_verifier.dual_value.self_s", "s"),
    ("solvers.barrier_minimize.calls", "count"),
    ("solvers.barrier_minimize.self_s", "s"),
    ("solvers.barrier_minimize.newton_iterations", "count"),
    ("solvers.barrier_minimize.newton_per_solve", "iter/solve"),
    ("solvers.minimize_exp_sum.calls", "count"),
    ("solvers.minimize_exp_sum.self_s", "s"),
    ("fields.entropy_kernel.calls", "count"),
    ("tree_market.enumerate_product_measures.calls", "count"),
    ("tree_market.enumerate_product_measures.self_s", "s"),
    ("tree_market.enumerate_product_measures.measures", "count"),
    ("tree_market.density_process.calls", "count"),
    ("tree_market.density_process.self_s", "s"),
    ("tree_market.measure_from_leaf_masses.calls", "count"),
    ("tree_market.measure_from_leaf_masses.self_s", "s"),
    ("tree_market.check_nflvr.s", "s"),
    ("ito_engine.simulate_paths.calls", "count"),
    ("ito_engine.simulate_paths.self_s", "s"),
    ("ito_engine.simulate_paths.paths", "count"),
    ("ito_engine.build_forward_exponential.s", "s"),
    ("ito_engine.density_path.calls", "count"),
    ("ito_engine.density_path.s", "s"),
    ("kernels.gaussian_field.calls", "count"),
    ("kernels.gaussian_field.self_s", "s"),
    ("kernels.philox4x64.s", "s"),
    ("kernels.philox4x64.blocks", "count"),
    ("kernels.philox4x64.mblocks_per_s", "Mblock/s"),
    ("kernels.philox4x64.bytes_out", "B"),
    ("kernels.pairwise_sum.calls", "count"),
    ("kernels.pairwise_sum.s", "s"),
    ("kernels.pairwise_sum.elements", "count"),
    *(
        (f"mc_verifier.{fn}.s", "s")
        for fn in (
            "check_dual_submartingale",
            "check_dual_martingale_at_optimum",
            "check_inverse_gamma_mean_mc",
            "check_forward_drift_mc",
        )
    ),
    ("mc_verifier.mc_mean_test.calls", "count"),
    ("mc_verifier.mc_mean_test.s", "s"),
    ("mc_verifier.band_misses", "count"),
    ("mc_verifier.expected_false_failures", "count"),
    # failed / attempted scenarios; 0 at the parent commit, so it cannot
    # be an end-to-end metric (the final line carries both counts anyway)
    ("failed_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
)


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Spawns the measurement children of one benchmark run."""

    def __init__(self, workload, seed, count, work_dir):
        self.base = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--count", str(count),
            "--dir", work_dir,
        ]
        env = dict(os.environ)
        env.pop("FORWARDPERF_SEED", None)  # would override the scenario seeds
        env.update({var: BLAS_THREADS for var in BLAS_VARS})
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S
        self.cpus = []  # CPU each child was pinned to
        self.setup_raw = []  # set-up seconds as measured

    def spawn(self, mode):
        """Run one child; returns (set-up seconds at the reference speed,
        set-up line, result line)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"no time left for the {mode} child")
        allowed = os.sched_getaffinity(0)
        cpu, probe = cpuspeed.fastest_cpu()
        self.cpus.append(cpu)
        os.sched_setaffinity(0, {cpu})  # inherited by the child
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                self.base + ["--mode", mode],
                stdout=subprocess.PIPE,
                env=self.env,
                cwd=ROOT,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not first.strip():
            raise ChildFailed(f"{mode} child exited with {code}")
        lines = rest.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        self.setup_raw.append(setup_s)
        return setup_s * cpuspeed.PROBE_REF_S / probe, json.loads(first), result


# -- provenance and ledger ------------------------------------------------


def git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root):
    """SHA-256 over the package sources, so digests can be compared across
    runs of the same program."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "forwardperf")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, fn)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, pkg).encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_ledger(path, src_sha, scenario_dir, rows):
    """Compare report digests with earlier runs of the same scenario bytes
    and the same sources; a report that differs fails its row."""
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    for row in rows:
        if row["sha256"] is None:
            continue
        with open(os.path.join(scenario_dir, row["name"] + ".json"), "rb") as fh:
            key = src_sha + ":" + hashlib.sha256(fh.read()).hexdigest()
        if ledger.setdefault(key, row["sha256"]) != row["sha256"] and row["error"] is None:
            row["error"] = "report differs from an earlier run of the same scenario"
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, path)


# -- metrics ---------------------------------------------------------------


def shares(lay):
    """Shares of the traced wall time, to print beside the metrics."""
    wall = lay.get("trace.wall_s", 0.0)
    if not wall:
        return {}
    keys = (
        "solvers.barrier_minimize.self_s",
        "tree_verifier.check_value_conjugacy.s",
        "tree_verifier.check_forward_supermartingale.s",
        "tree_market.enumerate_product_measures.self_s",
        "tree_market.density_process.self_s",
        "tree_market.measure_from_leaf_masses.self_s",
        "ito_engine.simulate_paths.self_s",
        "kernels.gaussian_field.self_s",
        "kernels.philox4x64.s",
    )
    return {k: round(lay.get(k, 0.0) / wall, 4) for k in keys}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so Runner.spawn kills the child it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "forwardperf", "cli.py")):
        print(f"error: no forwardperf sources under {ROOT}/src", file=sys.stderr)
        return 2

    count = workloads.scenario_count(args.workload, args.seconds)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(args.workload, args.seed, count, work)
    problems = []
    try:
        setups, scen_digests = [], set()
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, first, _ = runner.spawn("setup")
            setups.append(setup_s)
            scen_digests.add(first["scenarios_sha256"])
        setup_s, first, run = runner.spawn("run")
        setups.append(setup_s)
        scen_digests.add(first["scenarios_sha256"])
        traced = runner.spawn("trace")[2] if args.trace else None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(scen_digests) != 1:
        problems.append("scenario generation is not deterministic")
    rows = list(run["rows"])
    if traced is not None:
        by_name = {r["name"]: r["sha256"] for r in run["rows"]}
        for r in traced["rows"]:
            if r["error"] is None and r["sha256"] != by_name[r["name"]]:
                r["error"] = "traced report differs from the untraced one"
        rows += traced["rows"]
        coverage = traced["layers"]["trace.coverage"]
        if coverage < MIN_TRACE_COVERAGE:
            problems.append(f"top-level spans cover only {coverage:.3f} of the traced wall")
    src_sha = source_digest(ROOT)
    check_ledger(
        os.path.join(work_root, "ledger.json"),
        src_sha,
        os.path.join(work, "scenarios"),
        run["rows"],
    )
    failed = [r for r in rows if r["error"] is not None]
    for r in failed:
        problems.append(f"{r['name']}: {r['error']}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_source": "--seed flag",
        "scenarios": count,
        "setup_samples": len(setups),
        "kernel_backend": run["backend"],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "src_sha256": src_sha,
        "blas_threads": int(BLAS_THREADS),
        "child_cpus": runner.cpus,
    }
    # per-scenario seconds at the reference CPU speed (see cpuspeed.py)
    times = [r["seconds"] * cpuspeed.PROBE_REF_S / r["probe_s"] for r in run["rows"]]
    if args.trace:
        lay = dict(traced["layers"])
        lay["trace.overhead_s"] = sum(r["seconds"] for r in traced["rows"]) - sum(
            r["seconds"] for r in run["rows"]
        )
        lay["failed_ratio"] = len(failed) / len(rows)
        lay["scenario_p50_s"] = statistics.median(times)
        metrics = {name: {"value": lay.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        summary = {
            "scenario_p50_samples": len(times),
            "shares_of_traced_wall": shares(lay),
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(times),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary = {
            "scenario_p50_s": statistics.median(times),
            "scenario_p50_samples": len(times),
            "wall_s_as_measured": run["wall_s"],
            "setup_s_as_measured": runner.setup_raw,
            "probe_s_median": statistics.median(r["probe_s"] for r in run["rows"]),
            "band_misses": run["band_misses"],
            "expected_false_failures": run["expected_false_failures"],
        }
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"provenance": provenance, "summary": summary, **result}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
