"""Depth scaling of the full default ``tree-verify`` scenario.

For ``random_tree(7, periods=d)``, d = 7, 8 and 9, with its solved field
given explicitly, times ``cli.run_tree_scenario`` and the report's
``to_json`` on the default scenario: all five checks, every (t, T)
window. These are the depths a tree performance claim is measured at.

Both sides run in this process, each imported under a package alias of
its own (``report_diff.load_cli``). Per depth, each side runs the
scenario once untimed (first calls), then the sides run ``--repeat``
timed pairs in ABBA order, with ``gc`` collected and then disabled around
each run (``ab``). Each row records the spread of its times and the
SHA-256 of its report, which must not change between runs. Beside a
baseline, the current row's ``paired`` holds the median ratio
baseline/current and its 95% interval, and ``reports_identical`` says
whether the two sides wrote the same bytes at every depth; a mismatch at
any depth is named on stderr and exits 1, after the JSON is written.

Each row also counts, over ``KERNEL_REPEAT`` more runs of its side, the
calls per scenario and the microseconds per call of the factor solve
(``minimize_exp_sum``), of the one-step vertex builds
(``one_step_vertices``) and of the stacked one-step dual solve
(``barrier_minimize``: its calls are the stacks per scenario). Usage:

    PYTHONPATH=src:tests python benchmarks/bench_tree_scenario.py \\
        [--repeat 60] [--baseline-src OTHER/src] [--out BENCH_tree_scenario.json]
"""

import hashlib
import importlib
import json
import sys
import time

import ab
from report_diff import load_cli

SEED = 7
DEPTHS = (7, 8, 9)
KERNEL_REPEAT = 5


# the per-node kernels counted and timed per call, by the module attribute
# each caller resolves, in the package of the side that runs
KERNELS = {
    "minimize_exp_sum": ("tree_verifier", "minimize_exp_sum"),
    "one_step_vertices": ("tree_market", "one_step_vertices"),
    "barrier_minimize": ("tree_verifier", "barrier_minimize"),
}


def kernel_calls(cli, doc, repeat):
    """Calls per scenario and microseconds per call (spread over the
    repeats) of each of ``KERNELS`` while ``cli`` runs ``doc``, patched in
    the package ``cli`` belongs to."""
    package = cli.__name__.rpartition(".")[0]
    out = {}
    for name, (module, attr) in KERNELS.items():
        mod = importlib.import_module(f"{package}.{module}")
        original = getattr(mod, attr)
        calls, per_call = [], []

        def timed(*args, _original=original):
            t0 = time.perf_counter()
            try:
                return _original(*args)
            finally:
                calls[-1].append(time.perf_counter() - t0)

        setattr(mod, attr, timed)
        try:
            for _ in range(repeat):
                calls.append([])
                cli.run_tree_scenario(doc)
                per_call.append(sum(calls[-1]) / max(1, len(calls[-1])) * 1e6)
        finally:
            setattr(mod, attr, original)
        out[name] = {"calls": len(calls[0]), "us_per_call": ab.spread(per_call)}
    return out


def measure(clis, depth, repeat, kernel_repeat=KERNEL_REPEAT):
    """{side: row} of the default scenario at one depth, run by each of
    ``clis`` ({side: cli module}): one untimed run each, then ``repeat``
    timed ABBA pairs; with ``kernel_repeat``, the kernel calls over that
    many more runs per side."""
    from treegen import random_tree, solved_field

    tree = random_tree(SEED, periods=depth)
    field = solved_field(tree, SEED)
    doc = {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": tree.to_dict(),
        "gamma": {"mode": "explicit", "values": field.gamma},
        "a_shift": {"mode": "explicit", "values": field.a_shift},
    }

    def digest(text):
        return {"report_sha256": hashlib.sha256(text.encode()).hexdigest()}

    def run(cli):
        text, seconds = ab.timed(lambda: cli.run_tree_scenario(doc).to_json())
        return {"time_s": seconds, **digest(text)}

    first = {side: cli.run_tree_scenario(doc).to_json() for side, cli in clis.items()}
    samples = ab.alternate({side: lambda cli=cli: run(cli) for side, cli in clis.items()}, repeat)
    summary = ab.summarise(samples, ["time_s"], ["time_s"])
    rows = {}
    for side, cli in clis.items():
        rows[side] = {
            "depth": depth,
            "nodes": len(tree.nodes),
            "windows": depth * (depth + 1) // 2,
            **summary[side],
            "all_passed": json.loads(first[side])["all_passed"],
            "report_sha256": ab.one_digest([digest(first[side]), *samples[side]], f"d={depth} {side}"),
        }
        if kernel_repeat:
            rows[side]["kernels"] = kernel_calls(cli, doc, kernel_repeat)
    return rows


def main():
    args = ab.parser(__doc__, "tree_scenario", 60).parse_args()
    srcs = ab.sides(args)
    clis = {side: load_cli(src, f"forwardperf_{side}") for side, src in srcs.items()}
    rows = {side: [] for side in srcs}
    for depth in DEPTHS:
        for side, row in measure(clis, depth, args.repeat).items():
            t = row["time_s"]
            paired = row.get("paired", {}).get("time_s")
            print(
                f"d={depth} nodes={row['nodes']} {side}={t['median']:.4f}s "
                f"[{t['min']:.4f}, {t['max']:.4f}] sha256={row['report_sha256'][:12]}"
                + (f" baseline/current={ab.ratio_text(paired)}" if paired else ""),
                flush=True,
            )
            rows[side].append(row)
    doc = ab.header(
        "tree_scenario",
        srcs,
        tree=f"random_tree({SEED}, periods=d), solved_field(tree, {SEED}) given explicitly",
        what="cli.run_tree_scenario and to_json on the default scenario: 5 checks, every window; "
        "both sides in one process, ABBA pairs, gc collected and disabled around each run",
        **rows,
    )
    mismatched = []
    if ab.BASELINE in rows:
        mismatched = [
            row["depth"]
            for row, base in zip(rows[ab.CURRENT], rows[ab.BASELINE])
            if row["report_sha256"] != base["report_sha256"]
        ]
        doc["reports_identical"] = not mismatched
    ab.write(doc, args.out)
    if mismatched:
        print(f"reports differ from the baseline at depths {mismatched}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
