"""Byte-compare the reports of two source trees on one scenario corpus.

Takes the ``src`` of a commit (``git archive REV src``) into a temporary
directory and imports it beside the working tree's ``src``, under two
package aliases in one process: the package's imports are all relative,
so each alias loads its own modules. Every scenario document of the
corpus then runs through each side's ``cli.main(["run", ...])``, and the
script prints, per document and draw budget, whether the exit codes and
the report bytes match and, where they do not, the first record tag
whose bytes differ.

The corpus:

- perfbench's ``ito-suite`` and ``ito-chunked`` scenarios of seeds 1-10,
  as ``--seconds 16`` generates them (``perfbench/workloads.py``);
- the README model with delta 0 and with delta (0.2, 0), 20k paths x 64
  steps, with each Monte Carlo check alone and with all four, on
  antithetic and on plain paths;
- the README model with phi 0, the default suite on antithetic paths,
  where the default loads "0" and "phi" are one load;
- the pinned ``tree-verify`` scenarios of ``tests/test_cli.py``
  (``explicit``, ``solve`` and ``random`` on ``random_tree(7,
  periods=4)``), built by ``tests/treegen.py`` with the working tree's
  package;
- perfbench's ``tree-suite`` and ``tree-deep`` scenarios of seeds 1-10;
- two lopsided ``tree-verify`` scenarios (``tests/treegen.py``'s
  ``lopsided_scenario``): root moves 1 and -1e-13, whose ratio passes
  1e12, and root moves 1e308 and -1e308, whose difference overflows.

An ``ito-verify`` document runs at the default ``cli.DRAW_BUDGET`` and at
every ``--draw-budget`` given (1000 by default), set on both sides; a
``tree-verify`` one, which draws nothing, at the default only. After the
runs, a summary per corpus family (the name up to its first ``/``) counts
the reports that differ and the exit codes that moved, and one per record
family (the tag up to its first ``[``) counts the records that moved (and
of them those only at the commit, removed, and those only in the working
tree, added), the largest |change| of a value, absolute and relative to
the commit's value, and the verdicts and
``worst_node`` entries that moved. The exit status is 1 when
any document differs. Usage:

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
from collections import defaultdict

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


def perfbench_docs(names):
    """The (name, document) pairs of perfbench's workloads ``names``, seeds
    1-10, as ``--seconds 16`` generates them."""
    if os.path.join(ROOT, "perfbench") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    docs = []
    for workload in names:
        count = workloads.scenario_count(workload, PERFBENCH_SECONDS)
        for seed in range(1, 11):
            for name, doc in workloads.generate(workload, seed, count):
                docs.append((f"{workload}/seed={seed}/{name}", doc))
    return docs


def import_treegen():
    """``tests/treegen.py``, which builds its trees with the working tree's
    package."""
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import treegen

    return treegen


def pinned_tree_docs():
    """The pinned ``tree-verify`` scenarios of ``tests/test_cli.py``: the
    default scenario on random_tree(7, periods=4) with the gamma of
    solved_field(tree, 7), at its solved shift (``explicit``), at the
    shift solved from the same terminal values with the root moved by 0.1
    (``solve``), and at the solved shift plus normal noise of scale 0.3
    (``random``)."""
    import numpy as np

    treegen = import_treegen()
    tree = treegen.random_tree(7, periods=4)
    field = treegen.solved_field(tree, 7)
    rng = np.random.default_rng(74)
    shifts = {
        "explicit": {"mode": "explicit", "values": field.a_shift},
        "solve": {
            "mode": "solve",
            "terminal": {w: field.a_shift[w] for w in tree.leaves()},
            "offsets": {"r": 0.1},
        },
        "random": {
            "mode": "explicit",
            "values": {n: a + float(rng.normal(0.0, 0.3)) for n, a in field.a_shift.items()},
        },
    }
    return [
        (
            f"pinned/{case}",
            {
                "schema_version": 1,
                "kind": "tree-verify",
                "tree": tree.to_dict(),
                "gamma": {"mode": "explicit", "values": field.gamma},
                "a_shift": a_shift,
            },
        )
        for case, a_shift in shifts.items()
    ]


def lopsided_tree_docs():
    """The lopsided ``tree-verify`` scenarios: root moves whose ratio is
    1e13, and root moves of +-1e308."""
    lopsided_scenario = import_treegen().lopsided_scenario
    return [
        ("lopsided/ratio=1e13", lopsided_scenario(1.0, -1e-13)),
        ("lopsided/moves=1e308", lopsided_scenario(1e308, -1e308, 0.0)),
    ]


def readme_doc(model, checks, antithetic):
    """An ``ito-verify`` document of 20k paths x 64 steps on ``model``."""
    return {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": model,
        "gamma0": 1.0,
        "a0": 0.0,
        "n_steps": 64,
        "n_paths": 20_000,
        "seed": 1234,
        "antithetic": antithetic,
        "checks": checks,
    }


def corpus():
    """The (name, document) pairs, in run order."""
    docs = perfbench_docs(("ito-suite", "ito-chunked"))
    for delta in (0.0, [0.2, 0.0]):
        for checks in [[c] for c in MC_CHECKS] + [list(MC_CHECKS)]:
            for antithetic in (True, False):
                doc = readme_doc(dict(README_MODEL, delta=delta), checks, antithetic)
                label = "suite" if len(checks) > 1 else checks[0]
                docs.append((f"readme/delta={delta}/{label}/antithetic={antithetic}", doc))
    phi_0 = readme_doc(dict(README_MODEL, phi=0.0), list(MC_CHECKS), True)
    docs.append(("readme/phi=0/suite/antithetic=True", phi_0))
    return docs + pinned_tree_docs() + perfbench_docs(("tree-suite", "tree-deep")) + lopsided_tree_docs()


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


def records(text):
    """The report's {tag: record}, or None when there is no report."""
    try:
        return json.loads(text)["checks"]
    except (ValueError, KeyError):
        return None


def first_difference(a, b):
    """The first record tag whose bytes differ between two report texts."""
    ra, rb = records(a), records(b)
    if ra is None or rb is None:
        return "(no report)"
    for tag in list(ra) + [t for t in rb if t not in ra]:
        if json.dumps(ra.get(tag)) != json.dumps(rb.get(tag)):
            return tag
    return "(report framing)"


class Summary:
    """Moves per corpus family (reports differing, exit codes) and per
    record family (records, records only at ``rev`` and only in the
    working tree, largest |change| of a value, absolute and relative to the
    value at ``rev``, verdicts, ``worst_node`` entries)."""

    def __init__(self, rev="HEAD"):
        self.rev = rev
        self.docs = defaultdict(lambda: {"runs": 0, "reports": 0, "exit": 0})
        self.families = defaultdict(
            lambda: {"records": 0, "removed": 0, "added": 0, "value": 0.0, "relative": 0.0,
                     "verdict": 0, "worst_node": 0}
        )

    def add(self, name, base, tree):
        (code_a, text_a), (code_b, text_b) = base, tree
        doc = self.docs[name.split("/")[0]]
        doc["runs"] += 1
        doc["reports"] += text_a != text_b
        doc["exit"] += code_a != code_b
        ra, rb = records(text_a) or {}, records(text_b) or {}
        for tag in list(ra) + [t for t in rb if t not in ra]:
            a, b = ra.get(tag), rb.get(tag)
            if json.dumps(a) == json.dumps(b):
                continue
            moved = self.families[tag.split("[")[0]]
            moved["records"] += 1
            if a is None or b is None:
                moved["added" if a is None else "removed"] += 1
                continue
            va, vb = a.get("value"), b.get("value")
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va != vb:
                moved["value"] = max(moved["value"], abs(va - vb))
                relative = abs(va - vb) / abs(va) if va else float("inf")
                moved["relative"] = max(moved["relative"], relative)
            moved["verdict"] += a.get("verdict") != b.get("verdict")
            moved["worst_node"] += a.get("worst_node") != b.get("worst_node")

    def lines(self):
        out = ["corpus family: runs, reports differing, exit codes moved"]
        for name, doc in self.docs.items():
            out.append(f"  {name}: {doc['runs']} runs, {doc['reports']} differ, {doc['exit']} exit moves")
        out.append(
            f"record family: records moved, only at {self.rev}, only in the working tree, "
            "largest |change| of a value (absolute, relative), verdict moves, worst_node moves"
        )
        for name, moved in sorted(self.families.items()):
            out.append(
                f"  {name}: {moved['records']} moved, {moved['removed']} only at {self.rev}, "
                f"{moved['added']} only in the working tree, "
                f"|change| <= {moved['value']:.3g} (relative {moved['relative']:.3g}), "
                f"{moved['verdict']} verdict moves, {moved['worst_node']} worst_node moves"
            )
        if not self.families:
            out.append("  (no record moved)")
        return out


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
        summary = Summary(args.rev)
        for name, doc in corpus():
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for budget in budgets if doc["kind"] == "ito-verify" else [None]:
                got = {}
                for side, cli in sides.items():
                    cli.DRAW_BUDGET = default[side] if budget is None else budget
                    got[side] = run(cli, path, os.path.join(tmp, f"{side}.json"))
                n_runs += 1
                summary.add(name, got["base"], got["tree"])
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
    print("\n".join(summary.lines()))
    print(f"{n_runs - n_diff} of {n_runs} runs byte-identical to {args.rev}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
