"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --count K --dir D \
        --mode setup|run|trace

Set-up imports forwardperf, generates the scenarios from the seed and
writes them under ``D/scenarios``; then the child prints one JSON line
with the digest of the scenario bytes, so the parent can time set-up up
to that line. ``setup`` stops there. ``run`` and ``trace`` then run the
scenarios back to back through ``forwardperf.cli.main`` (one client,
closed loop), ``trace`` with spans recorded around each layer. Reports
are judged only after the timed loop, and the child prints a second JSON
line with the timings, verdicts and report digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import forwardperf.cli  # noqa: E402  (set-up cost is part of the measurement)

import cpuspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def write_scenarios(workload, seed, count, directory):
    """Generate and write the scenarios; (name, path) pairs and a digest."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    out = []
    for name, doc in workloads.generate(workload, seed, count):
        text = workloads.dumps(doc).encode()
        path = os.path.join(directory, f"{name}.json")
        with open(path, "wb") as fh:
            fh.write(text)
        digest.update(name.encode() + b"\0" + text)
        out.append((name, path))
    return out, digest.hexdigest()


def run_loop(scenarios, report_dir, tracer=None):
    """Run each scenario through the CLI; returns (rows, wall seconds).

    An exception that escapes ``cli.main`` is a failed operation and is
    recorded with its type; the loop goes on with the next scenario.
    Untraced, the CPU speed probe runs between scenarios and on a timer
    (``cpuspeed.sampling``); each row records the mean probe time around
    and during its scenario, and its seconds without the probes.
    """
    os.makedirs(report_dir, exist_ok=True)
    rows = []
    samples = []
    t_start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if tracer is None:
            stack.enter_context(cpuspeed.sampling(samples))
        for i, (name, path) in enumerate(scenarios):
            out = os.path.join(report_dir, f"{name}.json")
            if os.path.exists(out):
                os.remove(out)
            argv = ["run", path, "--out", out]
            error = None
            stderr = io.StringIO()
            before = len(samples)
            if tracer is None:
                samples.append((time.perf_counter(), cpuspeed.probe_s()))
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    if tracer is None:
                        code = forwardperf.cli.main(argv)
                    else:
                        with tracer.scenario(i):
                            code = forwardperf.cli.main(argv)
            except Exception as exc:
                code = None
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            inside = [p for t, p in samples[before + 1 :] if t0 <= t < t1]
            if tracer is None:
                samples.append((time.perf_counter(), cpuspeed.probe_s()))
            probes = [p for _, p in samples[before:]]
            sys.stderr.write(stderr.getvalue())
            rows.append(
                {
                    "name": name,
                    "seconds": t1 - t0 - sum(inside),
                    "probe_s": statistics.fmean(probes) if probes else None,
                    "exit": code,
                    "error": error,
                    "stderr": stderr.getvalue(),
                    "report": out,
                }
            )
    return rows, time.perf_counter() - t_start


def judge_rows(rows):
    """Judge every report and add its digest; returns MC band-miss totals."""
    misses = expected = 0.0
    for row in rows:
        row["sha256"] = None
        data = None
        if os.path.exists(row["report"]):
            with open(row["report"], "rb") as fh:
                data = fh.read()
            row["sha256"] = hashlib.sha256(data).hexdigest()
        if data is None and workloads.is_mass_refusal(row["name"], row["exit"], row["stderr"]):
            row["sha256"] = hashlib.sha256(row["stderr"].encode()).hexdigest()
            misses += 1
            continue
        try:
            report = None if data is None else json.loads(data)
            verdict = workloads.judge(row["name"], row["exit"], report)
            if report is not None:
                m, e = workloads.band_misses(report)
                misses += m
                expected += e
        except (ValueError, KeyError, TypeError) as exc:
            verdict = f"unreadable report: {type(exc).__name__}: {exc}"
        if row["error"] is None:
            row["error"] = verdict
    return misses, expected


def layer_metrics(tracer, wall_s):
    """Per-layer metrics from the spans and counters of a traced loop."""
    rows = tracing.summarize(tracer.spans)
    out = {f"{name}.{key}": val for name, row in rows.items() for key, val in row.items()}
    out.update(tracer.counters)
    calls = out.get("solvers.barrier_minimize.calls", 0)
    iters = out.get("solvers.barrier_minimize.newton_iterations", 0)
    out["solvers.barrier_minimize.newton_per_solve"] = iters / calls if calls else 0.0
    blocks = out.get("kernels.philox4x64.blocks", 0)
    philox_s = out.get("kernels.philox4x64.s", 0.0)
    out["kernels.philox4x64.mblocks_per_s"] = blocks / philox_s / 1e6 if philox_s else 0.0
    out["kernels.philox4x64.bytes_out"] = 32 * blocks  # computed, not measured
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = tracing.top_level_coverage(tracer.spans, wall_s)
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    scenarios, digest = write_scenarios(
        args.workload, args.seed, args.count, os.path.join(args.dir, "scenarios")
    )
    print(json.dumps({"scenarios_sha256": digest}), flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    rows, wall = run_loop(scenarios, os.path.join(args.dir, f"reports-{args.mode}"), tracer)
    if tracer is not None:
        tracer.uninstall()
    misses, expected = judge_rows(rows)
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "band_misses": misses,
        "expected_false_failures": expected,
        "backend": forwardperf.kernels.BACKEND,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall)
        result["layers"]["mc_verifier.band_misses"] = misses
        result["layers"]["mc_verifier.expected_false_failures"] = expected
        tracer.dump(os.path.join(args.dir, "spans.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
