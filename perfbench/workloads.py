"""Seeded scenario generators and per-workload verdict rules.

Every workload has a fixed shape: the tree shapes, the Monte Carlo model,
the check list and the path counts are constants of the workload. The seed
only changes values (probabilities, price moves, hedge ratios, terminal
shifts, Monte Carlo seeds), so the amount of work per scenario does not
depend on the seed. Generation uses ``numpy.random.default_rng`` alone and
writes canonical JSON, so the same seed gives the same scenario bytes.

Scenario counts are fixed per workload and per ``--seconds`` (see
``scenario_count``), never measured at run time, so a faster program
finishes the same work in less wall time.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

# Tree suite: depth 2 with 2 or 3 branches per node, like acceptance
# criterion 3, in one fixed shape (root branching, then one branching per
# root child) so that per-scenario times are comparable across scenarios.
SUITE_SHAPE = (3, (2, 3, 2))
# Tree deep: branching by level, 1 + 2 + 6 + 12 + 36 = 57 nodes.
DEEP_LEVELS = (2, 3, 2, 3)
DUAL_GAP_OFFSET = 0.1
DUAL_GAP_TOL = 1e-6

ITO_MODEL = {
    "horizon": 1.0,
    "breakpoints": [0.0, 0.5],
    "theta": [0.5, 0.5],
    "delta": 0.0,
    "phi": [0.3, 0.0],
    "rho": 0.1,
}


# Seconds one scenario takes at the parent commit on a 2-core box; only
# used to size a run, so a workload does the same work on every commit.
NOMINAL_S = {
    "tree-suite": 0.65,
    "tree-deep": 16.0,
    "ito-suite": 7.0,
    "ito-chunked": 6.0,
}


def scenario_count(workload: str, seconds: float) -> int:
    """Scenarios run per measurement: a fixed function of the workload and
    the requested seconds, so both commits of a comparison do equal work."""
    n = max(1, round(seconds / NOMINAL_S[workload]))
    if workload == "tree-suite":
        n += n % 2  # solved and perturbed scenarios come in pairs
    return n


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"


# -- trees ---------------------------------------------------------------


def _tree_scenario(rng, horizon, branching_at):
    """Tree-verify scenario on a tree whose shape ``branching_at(t, path)``
    fixes; ``path`` is the tuple of branch indices from the root."""
    gamma0 = float(rng.uniform(0.5, 2.0))
    nodes, psi, leaves = [], {}, []
    counter = itertools.count(1)

    def grow(nid, t, path, inv_gamma):
        if t == horizon:
            nodes.append({"id": nid, "time": t, "branches": []})
            leaves.append(nid)
            return
        k = branching_at(t, path)
        # one strictly negative and one strictly positive price move, so
        # every node admits an equivalent one-step martingale measure
        d = [-float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))]
        d += [float(rng.uniform(-2.0, 2.0)) for _ in range(k - 2)]
        rng.shuffle(d)
        p = rng.uniform(0.2, 1.0, size=k)
        p = p / p.sum()
        # hedge ratio capped so the replicated 1/gamma stays positive
        cap = 0.5 * inv_gamma / max(abs(x) for x in d)
        psi[nid] = float(rng.uniform(-cap, cap))
        kids = [f"n{next(counter)}" for _ in range(k)]
        nodes.append(
            {
                "id": nid,
                "time": t,
                "branches": [
                    {"child": c, "prob": float(p[j]), "dprice": d[j]}
                    for j, c in enumerate(kids)
                ],
            }
        )
        for j, c in enumerate(kids):
            grow(c, t + 1, path + (j,), inv_gamma + psi[nid] * d[j])

    grow("r", 0, (), 1.0 / gamma0)
    terminal = {w: float(rng.uniform(-1.0, 1.0)) for w in leaves}
    return {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": {"horizon": horizon, "nodes": nodes},
        "gamma": {"mode": "replicate", "gamma0": gamma0, "psi": psi},
        "a_shift": {"mode": "solve", "terminal": terminal},
        "tolerance": 1e-6,
    }


def _suite_tree(rng):
    root_k, child_k = SUITE_SHAPE
    return _tree_scenario(rng, 2, lambda t, path: root_k if t == 0 else child_k[path[0]])


def _deep_tree(rng):
    return _tree_scenario(rng, len(DEEP_LEVELS), lambda t, path: DEEP_LEVELS[t])


# -- generation ----------------------------------------------------------


def generate(workload: str, seed: int, count: int) -> list[tuple[str, dict]]:
    """Scenarios for one measurement, as (name, document) pairs in run order.

    The name carries the expectation the judge applies: ``solved`` (every
    check passes), ``perturbed`` (root shift moved by DUAL_GAP_OFFSET, the
    checks must detect it at that size) or ``mc`` (Monte Carlo suite).
    """
    if workload not in NOMINAL_S:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, list(NOMINAL_S).index(workload)])
    out = []
    if workload == "tree-suite":
        for i in range(count // 2):
            doc = _suite_tree(rng)
            bumped = json.loads(json.dumps(doc))
            bumped["a_shift"]["offsets"] = {"r": DUAL_GAP_OFFSET}
            out.append((f"{i:03d}-solved", doc))
            out.append((f"{i:03d}-perturbed", bumped))
    elif workload == "tree-deep":
        for i in range(count):
            out.append((f"{i:03d}-solved", _deep_tree(rng)))
    else:
        chunked = workload == "ito-chunked"
        for i in range(count):
            doc = {
                "schema_version": 1,
                "kind": "ito-verify",
                "model": ITO_MODEL,
                "gamma0": 1.0,
                "a0": 0.0,
                "n_steps": 64,
                "n_paths": 100_000 if chunked else 50_000,
                "seed": int(rng.integers(0, 2**31)),
                "antithetic": not chunked,
                "n_chunks": 16 if chunked else 1,
            }
            if chunked:
                doc["checks"] = ["inverse-gamma-mean"]
            out.append((f"{i:03d}-mc", doc))
    return out


# -- verdicts ------------------------------------------------------------


def judge(name: str, exit_code: int, report: dict | None) -> str | None:
    """Why the scenario's outcome is wrong, or None when it is right.

    Judged from the report, not from the exit status alone.
    """
    if report is None:
        return f"no report (exit {exit_code})"
    checks = report["checks"]
    failing = sorted(tag for tag, rec in checks.items() if rec["verdict"] != "pass")
    kind = name.rsplit("-", 1)[1]
    if kind == "solved":
        if exit_code != 0 or failing or not report["all_passed"]:
            return f"solved field rejected (exit {exit_code}): {failing[:3]}"
        return None
    if kind == "perturbed":
        if exit_code != 1:
            return f"perturbation not reported (exit {exit_code})"
        gap = checks["dual-self-generation"]["value"]
        if abs(gap - DUAL_GAP_OFFSET) > DUAL_GAP_TOL:
            return f"dual gap {gap!r}, expected {DUAL_GAP_OFFSET} +- {DUAL_GAP_TOL}"
        for tag in (
            "primal-self-generation",
            "dual-self-generation",
            "exp-condition-entropy-identity",
        ):
            if tag not in failing:
                return f"perturbation missed by {tag}"
        if not any(t.startswith("forward-") for t in failing):
            return "perturbation missed by the forward checks"
        stray = [t for t in failing if t.startswith(("tree-", "nflvr"))]
        if stray:
            return f"unperturbed checks failed: {stray[:3]}"
        return None
    # Monte Carlo: a statistical band miss is expected at the stated rate
    # and is not a failure; any other failing record is.
    if exit_code not in (0, 1):
        return f"exit {exit_code}"
    if "mc-expected-false-failures" not in checks:
        return "report lacks mc-expected-false-failures"
    hard = [t for t in failing if checks[t].get("std_error") is None]
    if hard:
        return f"non-statistical checks failed: {hard[:3]}"
    if exit_code != (1 if failing else 0):
        return f"exit {exit_code} disagrees with the report"
    return None


# check_forward_drift_mc refuses the whole scenario (exit 2, no report) when
# its unit-mass precondition misses its band. At the scenario's confidence
# that happens by chance, like any band miss, so it is counted as one.
MASS_REFUSAL = "error: check_forward_drift_mc: reweighted mass for nu="


def is_mass_refusal(name: str, exit_code: int, stderr: str) -> bool:
    return name.endswith("-mc") and exit_code == 2 and stderr.startswith(MASS_REFUSAL)


def band_misses(report: dict) -> tuple[int, float]:
    """(statistical records that failed, expected false failures)."""
    checks = report["checks"]
    misses = sum(
        1
        for rec in checks.values()
        if rec["verdict"] != "pass" and rec.get("std_error") is not None
    )
    expected = checks.get("mc-expected-false-failures", {}).get("value") or 0.0
    return misses, float(expected)
