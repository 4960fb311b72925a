"""Byte-compare the reports of two source trees on one scenario corpus.

Takes the ``src`` of a commit (``git archive REV src``) into a temporary
directory and imports it beside the working tree's ``src``, under two
package aliases in one process: the package's imports are all relative,
so each alias loads its own modules. Every scenario document of the
corpus then runs through each side's ``cli.main(["run", ...])``, and the
script prints, per document and draw budget, whether the exit codes and
the report bytes match and, where they do not, the first record tag
whose bytes differ.

The corpus is ``ito-verify`` only:

- perfbench's ``ito-suite`` and ``ito-chunked`` scenarios of seeds 1-10,
  as ``--seconds 16`` generates them (``perfbench/workloads.py``);
- the README model with delta 0 and with delta (0.2, 0), 20k paths x 64
  steps, with each Monte Carlo check alone and with all four, on
  antithetic and on plain paths.

Each document runs at the default ``cli.DRAW_BUDGET`` and at every
``--draw-budget`` given (1000 by default), set on both sides. The exit
status is 1 when any document differs. Usage:

    python benchmarks/report_diff.py [--rev HEAD] [--draw-budget 1000]
"""

import argparse
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH_SECONDS = 16
README_MODEL = {
    "horizon": 1.0,
    "breakpoints": [0.0, 0.5],
    "theta": [0.5, 0.5],
    "delta": 0.0,
    "phi": [0.3, 0.0],
    "rho": 0.1,
}
MC_CHECKS = ("dual-submartingale", "dual-martingale-at-optimum", "inverse-gamma-mean", "forward-drift")


def corpus():
    """The (name, document) pairs, in run order."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    docs = []
    for workload in ("ito-suite", "ito-chunked"):
        count = workloads.scenario_count(workload, PERFBENCH_SECONDS)
        for seed in range(1, 11):
            for name, doc in workloads.generate(workload, seed, count):
                docs.append((f"{workload}/seed={seed}/{name}", doc))
    for delta in (0.0, [0.2, 0.0]):
        for checks in [[c] for c in MC_CHECKS] + [list(MC_CHECKS)]:
            for antithetic in (True, False):
                doc = {
                    "schema_version": 1,
                    "kind": "ito-verify",
                    "model": dict(README_MODEL, delta=delta),
                    "gamma0": 1.0,
                    "a0": 0.0,
                    "n_steps": 64,
                    "n_paths": 20_000,
                    "seed": 1234,
                    "antithetic": antithetic,
                    "checks": checks,
                }
                label = "suite" if len(checks) > 1 else checks[0]
                docs.append((f"readme/delta={delta}/{label}/antithetic={antithetic}", doc))
    return docs


def load_cli(src, alias):
    """The ``cli`` module of the package under ``src``, imported as
    ``alias``."""
    pkg = os.path.join(src, "forwardperf")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def archive_src(rev, dest):
    """Extract ``rev``'s ``src`` into ``dest``; returns its path."""
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def run(cli, path, out):
    """``cli.main`` on the scenario at ``path``: the exit code and the
    report bytes (empty when none was written)."""
    if os.path.exists(out):
        os.remove(out)
    code = cli.main(["run", path, "--out", out])
    if not os.path.exists(out):
        return code, b""
    with open(out, "rb") as fh:
        return code, fh.read()


def first_difference(a, b):
    """The first record tag whose bytes differ between two report texts."""
    try:
        ra, rb = json.loads(a)["checks"], json.loads(b)["checks"]
    except (ValueError, KeyError):
        return "(no report)"
    for tag in list(ra) + [t for t in rb if t not in ra]:
        if json.dumps(ra.get(tag)) != json.dumps(rb.get(tag)):
            return tag
    return "(report framing)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the commit whose src is the baseline")
    parser.add_argument(
        "--draw-budget", type=int, action="append",
        help="a cli.DRAW_BUDGET to run at besides the default (repeatable; 1000 by default)",
    )
    args = parser.parse_args()
    budgets = [None] + (args.draw_budget or [1000])
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            "base": load_cli(archive_src(args.rev, tmp), "forwardperf_base"),
            "tree": load_cli(os.path.join(ROOT, "src"), "forwardperf_tree"),
        }
        default = {side: cli.DRAW_BUDGET for side, cli in sides.items()}
        n_diff = n_runs = 0
        for name, doc in corpus():
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for budget in budgets:
                got = {}
                for side, cli in sides.items():
                    cli.DRAW_BUDGET = default[side] if budget is None else budget
                    got[side] = run(cli, path, os.path.join(tmp, f"{side}.json"))
                n_runs += 1
                at = f"{name} draw_budget={'default' if budget is None else budget}"
                if got["base"] == got["tree"]:
                    print(f"same  {at} exit={got['tree'][0]}", flush=True)
                    continue
                n_diff += 1
                (code_a, text_a), (code_b, text_b) = got["base"], got["tree"]
                print(
                    f"DIFF  {at} exit={code_a}/{code_b} first differing tag: "
                    f"{first_difference(text_a, text_b)}",
                    flush=True,
                )
    print(f"{n_runs - n_diff} of {n_runs} runs byte-identical to {args.rev}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
