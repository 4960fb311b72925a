"""Command line front end.

Scenarios are JSON documents with a ``schema_version`` and a ``kind``;
unknown keys anywhere are rejected with their JSON path so typos fail
loudly instead of silently running a different experiment. Exit status: 0
when every requested check passes, 1 when any check fails, 2 for bad
usage, bad scenarios, or refused tree fields. An ``ito-verify`` model is
never refused for its coefficients: every Monte Carlo check has a
closed-form mean for every delta, phi and rho (``mc_verifier``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ForwardPerfError, ScenarioError
from .fields import ExponentialFieldParams, conjugate_exponential
from .ito_engine import (
    CoefficientSpec,
    build_forward_exponential,
    chunk_bounds,
    martingale_density,
    path_table,
    simulate_paths,
    write_paths_csv,
)
from .kernels import U64_MAX, Workspace
from .mc_verifier import (
    MC_CHECKS, MonteCarloPass, repeated_load, tag_number, time_labels, z_critical,
)
from .report import CheckRecord, VerificationReport
from .tree_market import EventTree, check_nflvr, json_float
from .tree_verifier import (
    WindowDuals,
    check_exponential_conditions,
    check_forward_supermartingale,
    check_self_generation_dual,
    check_self_generation_primal,
    solve_entropy_shift,
)

SCHEMA_VERSION = 1

TREE_CHECKS = (
    "nflvr",
    "primal-self-generation",
    "dual-self-generation",
    "exponential-conditions",
    "forward-supermartingale",
)
ITO_CHECKS = MC_CHECKS


def _fail(path, msg):
    raise ScenarioError(f"{path}: {msg}")


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _number(obj, path, minimum=None, strict_min=None):
    val = json_float(obj, path)
    if not math.isfinite(val):
        _fail(path, "must be finite")
    if minimum is not None and val < minimum:
        _fail(path, f"must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        _fail(path, f"must be > {strict_min}")
    return val


def _integer(obj, path, minimum=None, maximum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, f"expected an integer, got {type(obj).__name__}")
    if minimum is not None and obj < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and obj > maximum:
        _fail(path, f"must be <= {maximum}")
    return int(obj)


def _seed(obj, source):
    """A seed is the Philox key word, so it must fit in 64 unsigned bits."""
    return _integer(obj, source, minimum=0, maximum=U64_MAX)


def _number_list(obj, path, min_len=1):
    if not isinstance(obj, list) or len(obj) < min_len:
        _fail(path, f"expected a list of at least {min_len} numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _integer_list(obj, path, minimum=None):
    if not isinstance(obj, list):
        _fail(path, f"expected a list of integers, got {type(obj).__name__}")
    return [_integer(v, f"{path}[{i}]", minimum=minimum) for i, v in enumerate(obj)]


def _node_map(obj, path, nodes, kind="node", complete=True):
    """The ``{node: number}`` object at ``path``: refuses an id not in ``nodes``
    (each a ``kind`` of the tree) and, when ``complete``, a node it leaves out."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object of node: number")
    known = set(nodes)
    for nid in obj:
        if nid not in known:
            _fail(path, f"unknown {kind} {nid!r}")
    for nid in nodes if complete else ():
        if nid not in obj:
            _fail(path, f"no value for {kind} {nid!r}")
    return {nid: _number(v, f"{path}.{nid}") for nid, v in obj.items()}


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc

    def reject(token):
        raise ScenarioError(f"non-finite constant {token!r} in scenario {path!r}")

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than Python's int-string conversion limit
        raise ScenarioError(f"scenario {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("$: scenario must be a JSON object")
    # not a plain comparison: 1.0 and true compare equal to 1
    if _integer(doc.get("schema_version"), "$.schema_version") != SCHEMA_VERSION:
        _fail("$.schema_version", f"expected {SCHEMA_VERSION}")
    if "kind" not in doc:
        _fail("$.kind", "missing")
    return doc


# -- tree scenarios ------------------------------------------------------


def _tree_from_scenario(doc, base_dir):
    """The scenario's event tree. A refused field of an inline tree is
    named by its scenario path, ``$.tree.nodes[1].time``; one of a
    ``tree_file`` by the file's path (``EventTree.from_json``)."""
    if ("tree" in doc) == ("tree_file" in doc):
        _fail("$", "give exactly one of 'tree' or 'tree_file'")
    if "tree" in doc:
        _check_keys(doc["tree"], "$.tree", ("horizon", "nodes"))
        try:
            return EventTree.from_dict(doc["tree"])
        except ScenarioError as exc:
            # past the keys, from_dict refuses fields by their path
            raise ScenarioError(f"$.tree.{exc}") from None
    rel = doc["tree_file"]
    if not isinstance(rel, str):
        _fail("$.tree_file", "expected a path string")
    path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
    return EventTree.from_json(path)


def _require_gamma_range(path, gamma, inverse, where=""):
    """Refuse a positive gamma (at the node ``where`` names) when it or its
    reciprocal ``inverse`` is not finite (gamma below 2^-1024, say): no
    check can read its field."""
    if not (math.isfinite(gamma) and math.isfinite(inverse)):
        _fail(path, f"gamma {gamma!r}{where} is outside the float range: gamma and 1/gamma must be finite")


def _gamma_from_scenario(tree, spec):
    _check_keys(spec, "$.gamma", ("mode",), ("values", "gamma0", "psi"))
    mode = spec["mode"]
    if mode == "explicit":
        if "values" not in spec:
            _fail("$.gamma.values", "missing for explicit mode")
        gamma = _node_map(spec["values"], "$.gamma.values", tree._dfs_order)
        for nid in tree._dfs_order:
            if gamma[nid] <= 0.0:
                _fail("$.gamma.values", f"gamma must be positive at {nid!r}")
            _require_gamma_range("$.gamma.values", gamma[nid], 1.0 / gamma[nid], f" at {nid!r}")
        return gamma
    if mode == "replicate":
        if "gamma0" not in spec or "psi" not in spec:
            _fail("$.gamma", "replicate mode needs 'gamma0' and 'psi'")
        g0 = _number(spec["gamma0"], "$.gamma.gamma0", strict_min=0.0)
        _require_gamma_range("$.gamma.gamma0", g0, 1.0 / g0, f" at {tree.root!r}")
        inner = [nid for nid in tree._dfs_order if not tree.is_leaf(nid)]
        psi = _node_map(spec["psi"], "$.gamma.psi", inner, kind="non-leaf node")
        inv = {tree.root: 1.0 / g0}
        for nid in inner:
            for br in tree.branches_of(nid):
                val = inv[nid] + psi[nid] * br.dprice
                if val <= 0.0:
                    _fail(
                        "$.gamma.psi",
                        f"replicated 1/gamma becomes nonpositive at {br.child!r}",
                    )
                _require_gamma_range("$.gamma.psi", 1.0 / val, val, f" at {br.child!r}")
                inv[br.child] = val
        return {nid: 1.0 / inv[nid] for nid in inv}
    _fail("$.gamma.mode", f"unknown mode {mode!r}")


def _a_shift_from_scenario(tree, gamma, spec, duals):
    _check_keys(spec, "$.a_shift", ("mode",), ("values", "terminal", "offsets"))
    mode = spec["mode"]
    if mode == "explicit":
        if "values" not in spec:
            _fail("$.a_shift.values", "missing for explicit mode")
        return _node_map(spec["values"], "$.a_shift.values", tree._dfs_order)
    if mode == "solve":
        if "terminal" not in spec:
            _fail("$.a_shift.terminal", "missing for solve mode")
        term = spec["terminal"]
        if isinstance(term, dict):
            terminal = _node_map(term, "$.a_shift.terminal", tree.leaves(), kind="leaf")
        else:
            terminal = _number(term, "$.a_shift.terminal")
        a = solve_entropy_shift(tree, gamma, terminal, duals=duals)
        if "offsets" in spec:
            for nid, off in _node_map(spec["offsets"], "$.a_shift.offsets", tree._dfs_order, complete=False).items():
                a[nid] += off
        return a
    _fail("$.a_shift.mode", f"unknown mode {mode!r}")


def _checks_from_scenario(doc, allowed):
    checks = doc.get("checks", list(allowed))
    if not isinstance(checks, list) or not checks:
        _fail("$.checks", "expected a nonempty list of check names")
    for i, name in enumerate(checks):
        if name not in allowed:
            _fail(f"$.checks[{i}]", f"unknown check {name!r}; known: {', '.join(allowed)}")
        if name in checks[:i]:
            _fail(f"$.checks[{i}]", f"duplicate check {name!r}")
    return checks


def _time_pairs_from_scenario(doc, horizon):
    raw = doc.get("time_pairs")
    if raw is None:
        return [(t1, t2) for t1 in range(horizon) for t2 in range(t1 + 1, horizon + 1)]
    if not isinstance(raw, list) or not raw:
        _fail("$.time_pairs", "expected a nonempty list of [t, T] pairs")
    pairs = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2):
            _fail(f"$.time_pairs[{i}]", "expected [t, T]")
        t1 = _integer(item[0], f"$.time_pairs[{i}][0]", minimum=0)
        t2 = _integer(item[1], f"$.time_pairs[{i}][1]", minimum=0)
        if not (t1 < t2 <= horizon):
            _fail(f"$.time_pairs[{i}]", f"need t < T <= {horizon}")
        if (t1, t2) in pairs:
            _fail(f"$.time_pairs[{i}]", f"duplicate time pair [{t1}, {t2}]")
        pairs.append((t1, t2))
    return pairs


def run_tree_scenario(doc, base_dir="."):
    _check_keys(
        doc,
        "$",
        ("schema_version", "kind", "gamma", "a_shift"),
        (
            "tree",
            "tree_file",
            "checks",
            "time_pairs",
            "tolerance",
        ),
    )
    tree = _tree_from_scenario(doc, base_dir)
    gamma = _gamma_from_scenario(tree, doc["gamma"])
    # one context for the scenario: node data, factor recursions and the
    # dual sweep to each window end are built once, for the shift and all
    # checks
    duals = WindowDuals(tree, gamma)
    a_shift = _a_shift_from_scenario(tree, gamma, doc["a_shift"], duals)
    field = ExponentialFieldParams(gamma=gamma, a_shift=a_shift)
    checks = _checks_from_scenario(doc, TREE_CHECKS)
    pairs = _time_pairs_from_scenario(doc, tree.horizon)
    tol = _number(doc.get("tolerance", 1e-6), "$.tolerance", strict_min=0.0)
    # the checks over windows share one signature; each is looked up here,
    # when the scenario runs, so a binding replaced since import is called
    windowed = {
        "primal-self-generation": check_self_generation_primal,
        "dual-self-generation": check_self_generation_dual,
        "exponential-conditions": check_exponential_conditions,
        "forward-supermartingale": check_forward_supermartingale,
    }
    needs_pair = [name for name in checks if name in windowed]
    if needs_pair and not pairs:
        _fail("$.checks", f"{needs_pair[0]!r} needs a time pair [t, T]; the tree's horizon is 0")

    report = VerificationReport()
    for name in checks:
        if name == "nflvr":
            _, rep = check_nflvr(tree)
            report.merge(rep)
        else:
            report.merge(windowed[name](tree, field, pairs, tol, duals=duals))
    return report


# -- ito scenarios -------------------------------------------------------


def _coefficient_spec(doc):
    model = doc.get("model")
    if model is None:
        _fail("$.model", "missing")
    _check_keys(
        model,
        "$.model",
        ("horizon",),
        ("breakpoints", "theta", "delta", "phi", "rho"),
    )
    horizon = _number(model["horizon"], "$.model.horizon", strict_min=0.0)
    bp = model.get("breakpoints", [0.0])
    bp = _number_list(bp, "$.model.breakpoints")
    n = len(bp)

    def coeff(name):
        raw = model.get(name, 0.0)
        if isinstance(raw, list):
            vals = _number_list(raw, f"$.model.{name}")
            if len(vals) != n:
                _fail(f"$.model.{name}", f"expected {n} values, one per piece")
            return tuple(vals)
        return (_number(raw, f"$.model.{name}"),) * n

    try:
        return CoefficientSpec(
            horizon=horizon,
            breakpoints=tuple(bp),
            theta=coeff("theta"),
            delta=coeff("delta"),
            phi=coeff("phi"),
            rho=coeff("rho"),
        )
    except ValueError as exc:
        raise ScenarioError(f"$.model: {exc}") from exc


def _nu_family_from_scenario(doc, n_steps):
    raw = doc.get("nu")
    if raw is None:
        return None
    if not isinstance(raw, dict) or not raw:
        _fail("$.nu", "expected an object of label: load")
    fam = {}
    for label, val in raw.items():
        if isinstance(val, list):
            vals = _number_list(val, f"$.nu.{label}")
            if len(vals) != n_steps:
                _fail(f"$.nu.{label}", f"expected {n_steps} per-step values")
            fam[str(label)] = np.asarray(vals)
        else:
            fam[str(label)] = np.full(n_steps, _number(val, f"$.nu.{label}"))
    if repeated := repeated_load(fam):
        _fail("$.nu", "loads {!r} and {!r} are equal at every step".format(*repeated))
    return fam


def _simulation_inputs(doc, seed_override, min_paths):
    """Model, field start and simulation size of an ito-verify or
    export-paths document, checked before anything is simulated. Returns
    (spec, gamma0, a0, n_steps, n_paths, seed, antithetic). An ito-verify
    ``n_chunks`` is validated here, in its place among the keys, and has
    no other effect; export-paths documents carry no such key."""
    spec = _coefficient_spec(doc)
    gamma0 = _number(doc["gamma0"], "$.gamma0", strict_min=0.0)
    _require_gamma_range("$.gamma0", gamma0, 1.0 / gamma0)
    a0 = _number(doc.get("a0", 0.0), "$.a0")
    n_steps = _integer(doc["n_steps"], "$.n_steps", minimum=1)
    n_paths = _integer(doc["n_paths"], "$.n_paths", minimum=min_paths)
    seed = _seed(doc["seed"], "$.seed")
    if seed_override is not None:
        seed = seed_override
    antithetic = doc.get("antithetic", True)
    if not isinstance(antithetic, bool):
        _fail("$.antithetic", "expected true or false")
    _integer(doc.get("n_chunks", 1), "$.n_chunks", minimum=1)
    if antithetic and n_paths % 2:
        _fail("$.n_paths", "antithetic pairing needs an even n_paths")
    return spec, gamma0, a0, n_steps, n_paths, seed, antithetic


# stream-intervals (a stream's dB and dW draws over one simulated interval)
# held at once by ito-verify and export-paths alike: it alone sizes a run,
# and bounds its running sums and scratch. 1024 streams of a full
# 64-step grid, and more streams when fewer columns are simulated
DRAW_BUDGET = 1024 * 64


def _stream_runs(ranges, n_intervals):
    """Split each range ``(lo, hi)`` of consecutive streams into runs of at
    most ``DRAW_BUDGET // n_intervals`` streams (at least one), in order,
    whose sizes within a range differ by at most one."""
    cap = max(1, DRAW_BUDGET // n_intervals)
    return [
        (lo + a, lo + b)
        for lo, hi in ranges
        for a, b in chunk_bounds(hi - lo, -(-(hi - lo) // cap))
    ]


def _distinct_tag_labels(values, labels, path, same_value_collapses=False):
    """Refuse an entry of the list at ``path`` whose record-tag label
    repeats an earlier entry's, so two records would share a tag; with
    ``same_value_collapses``, an entry equal to the earlier one is the
    same entry again and passes."""
    first = {}
    for i, (value, label) in enumerate(zip(values, labels)):
        j = first.setdefault(label, i)
        if j != i and not (same_value_collapses and values[j] == value):
            _fail(f"{path}[{i}]", f"prints as {label!r} in record tags, as {path}[{j}] does")


def run_ito_scenario(doc, seed_override=None):
    _check_keys(
        doc,
        "$",
        ("schema_version", "kind", "model", "gamma0", "n_steps", "n_paths", "seed"),
        (
            "a0",
            "antithetic",
            "n_chunks",
            "confidence",
            "eta_list",
            "nu",
            "checks",
            "time_indices",
        ),
    )
    spec, gamma0, a0, n_steps, n_paths, seed, antithetic = _simulation_inputs(
        doc, seed_override, min_paths=2
    )
    # one Philox stream per antithetic pair, and one mean-test sample each
    n_streams = n_paths // 2 if antithetic else n_paths
    if doc.get("n_chunks", 1) > n_streams:
        _fail("$.n_chunks", f"must be <= the stream count ({n_streams})")
    if n_streams < 100:
        _fail("$.n_paths", f"mean tests need at least 100 samples, got {n_streams}")
    confidence = _number(doc.get("confidence", 0.997), "$.confidence", strict_min=0.0)
    if confidence >= 1.0:
        _fail("$.confidence", "must be < 1")
    if not math.isfinite(z_critical(confidence)):
        _fail("$.confidence", f"{confidence!r} is too close to 1: its critical value is not finite")
    eta_list = _number_list(doc.get("eta_list", [1.0, 2.0]), "$.eta_list")
    for i, eta in enumerate(eta_list):
        if eta < 0.0:
            _fail(f"$.eta_list[{i}]", "dual arguments must be nonnegative")
    _distinct_tag_labels(eta_list, [tag_number(eta) for eta in eta_list], "$.eta_list")
    nu_family = _nu_family_from_scenario(doc, n_steps)
    time_indices = doc.get("time_indices")
    if time_indices is not None:
        time_indices = _integer_list(time_indices, "$.time_indices", minimum=0)
        for i, t in enumerate(time_indices):
            if t > n_steps:
                _fail(f"$.time_indices[{i}]", f"must be <= n_steps ({n_steps})")
        # equal indices are one time and collapse; distinct ones need their
        # own tags
        _distinct_tag_labels(
            time_indices, time_labels(spec.horizon, n_steps, time_indices), "$.time_indices",
            same_value_collapses=True,
        )
    checks = _checks_from_scenario(doc, ITO_CHECKS)
    dual = [name for name in checks if name in ("dual-submartingale", "dual-martingale-at-optimum")]
    if dual and time_indices is not None and not any(time_indices):
        _fail("$.time_indices", f"{dual[0]!r} needs a time index above 0")

    mc = MonteCarloPass(
        spec, n_steps, n_paths, checks, gamma0, a0, antithetic, eta_list, nu_family,
        time_indices, confidence,
    )
    # every Monte Carlo check reads this one simulation, drawn only at the
    # pass's simulated columns and held one run of at most DRAW_BUDGET
    # stream-intervals at a time, on buffers the runs share; the pass
    # builds what its checks read from each run
    columns = mc.simulated_columns
    work = Workspace()
    for lo, hi in _stream_runs([(0, n_streams)], len(columns) - 1):
        bundle = simulate_paths(
            spec, n_steps, (n_paths // n_streams) * (hi - lo), seed,
            antithetic=antithetic, stream_offset=lo, work=work, columns=columns,
        )
        mc.gather(bundle)
    del bundle, work  # reduce reads only the pass's arrays
    report = mc.reduce()
    n_stat = len(report)  # every record of the pass is a mean test
    report.add(
        CheckRecord(
            check_tag="mc-expected-false-failures",
            verdict=True,
            value=(1.0 - confidence) * n_stat,
            notes=(
                f"{n_stat} statistical checks at confidence {confidence:g}; "
                "occasional band misses are expected at this rate",
            ),
        )
    )
    return report


# -- other kinds ---------------------------------------------------------


def run_conjugate_table(doc, out_path):
    _check_keys(
        doc,
        "$",
        ("schema_version", "kind", "gamma", "a"),
        ("eta_values", "eta_range"),
    )
    gamma = _number(doc["gamma"], "$.gamma", strict_min=0.0)
    _require_gamma_range("$.gamma", gamma, 1.0 / gamma)
    a = _number(doc["a"], "$.a")
    if ("eta_values" in doc) == ("eta_range" in doc):
        _fail("$", "give exactly one of 'eta_values' or 'eta_range'")
    if "eta_values" in doc:
        etas = _number_list(doc["eta_values"], "$.eta_values")
    else:
        rng = doc["eta_range"]
        _check_keys(rng, "$.eta_range", ("start", "stop", "count"))
        start = _number(rng["start"], "$.eta_range.start", minimum=0.0)
        stop = _number(rng["stop"], "$.eta_range.stop", strict_min=0.0)
        count = _integer(rng["count"], "$.eta_range.count", minimum=2)
        etas = np.linspace(start, stop, count).tolist()
    # every row is computed before any is written, so a refused table
    # writes nothing
    rows = [["eta", "dual_value", "argmax_x"]]
    for i, e in enumerate(etas):
        path = f"$.eta_values[{i}]" if "eta_values" in doc else "$.eta_range"
        if e < 0.0:
            _fail(path, "dual arguments must be nonnegative")
        if e == 0.0:
            # closed at the origin by continuity; no finite maximizer
            rows.append(["0", "0", "0"])
            continue
        if e / gamma == 0.0:
            _fail(path, f"eta {e!r} over gamma {gamma!r} underflows to 0")
        with np.errstate(over="ignore", invalid="ignore"):
            val = conjugate_exponential(gamma, a, e)
        x_star = (a - math.log(e / gamma)) / gamma
        if not (math.isfinite(val) and math.isfinite(x_star)):
            _fail(path, f"eta {e!r} gives dual value {val!r} and maximizer {x_star!r}: both must be finite")
        rows.append([f"{e:.12g}", f"{val:.12g}", f"{x_star:.12g}"])

    if out_path is None:
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(out_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return VerificationReport()


def _consecutive_ranges(streams):
    """The ranges ``(lo, hi)`` of consecutive streams that cover the sorted,
    distinct ``streams`` exactly."""
    ranges = []
    for s in streams:
        if ranges and ranges[-1][1] == s:
            ranges[-1][1] = s + 1
        else:
            ranges.append([s, s + 1])
    return ranges


def _selected_path_tables(spec, gamma0, a0, n_steps, seed, antithetic, fam, indices):
    """Yield ``(i, path_table)`` for each path index of ``indices`` in
    order. Only the selected paths' streams are simulated, on the full
    grid, in runs of at most ``DRAW_BUDGET // n_steps`` streams; a path's
    table is held from its run until its last selection is written, so
    sorted indices hold one run."""
    per = 2 if antithetic else 1
    last_pos = {i: pos for pos, i in enumerate(indices)}
    held, pos = {}, 0
    streams = sorted({i // per for i in last_pos})
    for lo, hi in _stream_runs(_consecutive_ranges(streams), n_steps):
        bundle = simulate_paths(
            spec, n_steps, per * (hi - lo), seed, antithetic=antithetic, stream_offset=lo
        )
        fields = build_forward_exponential(spec, gamma0, a0, bundle)
        densities = {label: martingale_density(bundle, nu) for label, nu in fam.items()}
        for i in range(per * lo, per * hi):
            if i in last_pos:
                held[i] = path_table(bundle, fields, densities, i)
        del bundle, fields, densities
        while pos < len(indices) and indices[pos] in held:
            i = indices[pos]
            yield i, held[i]
            if last_pos[i] == pos:
                del held[i]
            pos += 1


def run_export_paths(doc, out_path, seed_override=None):
    _check_keys(
        doc,
        "$",
        ("schema_version", "kind", "model", "gamma0", "n_steps", "n_paths", "seed"),
        ("a0", "antithetic", "nu", "paths"),
    )
    if out_path is None:
        raise ScenarioError("export-paths needs --out for the CSV file")
    spec, gamma0, a0, n_steps, n_paths, seed, antithetic = _simulation_inputs(
        doc, seed_override, min_paths=1
    )
    fam = _nu_family_from_scenario(doc, n_steps) or {
        "mart": np.zeros(n_steps),
    }
    indices = doc.get("paths")
    if indices is not None:
        indices = _integer_list(indices, "$.paths", minimum=0)
        for i in indices:
            if i >= n_paths:
                _fail("$.paths", f"path index {i} out of range")
    else:
        indices = range(min(n_paths, 10))
    # refuse a grid that misses a breakpoint even when no path is selected
    spec.per_step_values(n_steps)
    tables = _selected_path_tables(spec, gamma0, a0, n_steps, seed, antithetic, fam, indices)
    n_rows = write_paths_csv(out_path, list(fam), tables)
    print(f"wrote {n_rows} rows to {out_path}", file=sys.stderr)
    return VerificationReport()


# -- entry point ---------------------------------------------------------


def _emit(report, args):
    if args.format == "json":
        text = report.to_json()
    else:
        text = report.to_text()
    if args.out and args.command == "run":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``main`` runs
    many times in one process (tests, the benchmark), and each parse
    makes a fresh namespace, so the shared parser keeps no state between
    calls. Callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="forwardperf",
        description="verify self-generating utility fields on trees and diffusion models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks requested by a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON document")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )

    p_conj = sub.add_parser("conjugate", help="tabulate the dual slice of an exponential utility")
    p_conj.add_argument("--gamma", type=float, required=True, help="risk aversion, positive")
    p_conj.add_argument("--a", type=float, default=0.0, help="additive shift")
    p_conj.add_argument("--eta", type=float, nargs="+", required=True, help="dual arguments")
    p_conj.add_argument("--out", help="write CSV here instead of stdout")

    p_exp = sub.add_parser("export-paths", help="simulate a model and dump paths as CSV")
    p_exp.add_argument("scenario", help="path to an export-paths scenario")
    p_exp.add_argument("--out", required=True, help="CSV output path")
    p_exp.add_argument("--seed", type=int, help="override the scenario seed")
    return parser


def _seed_override(args):
    if getattr(args, "seed", None) is not None:
        return _seed(args.seed, "--seed")
    env = os.environ.get("FORWARDPERF_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ScenarioError(f"FORWARDPERF_SEED must be an integer, got {env!r}") from exc
        return _seed(value, "FORWARDPERF_SEED")
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "conjugate":
            doc = {
                "schema_version": SCHEMA_VERSION,
                "kind": "conjugate-table",
                "gamma": args.gamma,
                "a": args.a,
                "eta_values": args.eta,
            }
            run_conjugate_table(doc, args.out)
            return 0

        doc = load_scenario(args.scenario)
        kind = doc["kind"]
        seed_override = _seed_override(args)
        if args.command == "export-paths":
            if kind != "export-paths":
                raise ScenarioError(f"$.kind: expected 'export-paths', got {kind!r}")
            run_export_paths(doc, args.out, seed_override)
            return 0
        if kind == "tree-verify":
            report = run_tree_scenario(doc, base_dir=os.path.dirname(args.scenario) or ".")
        elif kind == "ito-verify":
            report = run_ito_scenario(doc, seed_override)
        elif kind == "conjugate-table":
            run_conjugate_table(doc, args.out)
            return 0
        elif kind == "export-paths":
            raise ScenarioError("use the export-paths subcommand for this kind")
        else:
            raise ScenarioError(f"$.kind: unknown kind {kind!r}")
        _emit(report, args)
        return 0 if report.all_passed else 1
    except (ForwardPerfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
