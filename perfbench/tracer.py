"""Spans and counters recorded around the public functions of forwardperf.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces
each target function at every module binding that holds it, that is at
the name the caller resolves (``forwardperf.tree_verifier.barrier_minimize``
as well as ``forwardperf.solvers.barrier_minimize``), and ``uninstall``
puts the originals back. Spans are kept in memory and written once, when
the run ends.

A span is ``[name, start, end, parent, scenario]``: ``parent`` is the index
of the enclosing span (-1 at top level) and all spans of one scenario share
the scenario id. Self time is a span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

SCENARIO_SPAN = "scenario"


def _records(args, kwargs, out):
    return {"report.records": len(args[0])}


def _newton(args, kwargs, out):
    return {"solvers.barrier_minimize.newton_iterations": out[2]["newton_iterations"]}


def _measures(args, kwargs, out):
    return {"tree_market.enumerate_product_measures.measures": len(out)}


def _paths(args, kwargs, out):
    return {"ito_engine.simulate_paths.paths": out.n_paths}


def _blocks(args, kwargs, out):
    return {"kernels.philox4x64.blocks": len(out)}


def _elements(args, kwargs, out):
    return {"kernels.pairwise_sum.elements": np.size(args[0])}


# (span name, defining module, attribute, counter hook). A hook of None
# records a span; COUNT_ONLY records a call count without a span.
COUNT_ONLY = "count-only"
TARGETS = (
    ("cli.load_scenario", "forwardperf.cli", "load_scenario", None),
    ("report.to_json", "forwardperf.report", "VerificationReport.to_json", _records),
    *(
        (f"tree_verifier.{fn}", "forwardperf.tree_verifier", fn, None)
        for fn in (
            "solve_entropy_shift",
            "check_self_generation_primal",
            "check_self_generation_dual",
            "check_value_conjugacy",
            "check_exponential_conditions",
            "check_forward_supermartingale",
            "primal_value",
            "dual_value",
        )
    ),
    ("solvers.barrier_minimize", "forwardperf.solvers", "barrier_minimize", _newton),
    ("solvers.minimize_exp_sum", "forwardperf.solvers", "minimize_exp_sum", None),
    # timing a call this small would cost more than the call itself
    ("fields.entropy_kernel", "forwardperf.fields", "entropy_kernel", COUNT_ONLY),
    (
        "tree_market.enumerate_product_measures",
        "forwardperf.tree_market",
        "enumerate_product_measures",
        _measures,
    ),
    ("tree_market.density_process", "forwardperf.tree_market", "density_process", None),
    (
        "tree_market.measure_from_leaf_masses",
        "forwardperf.tree_market",
        "measure_from_leaf_masses",
        None,
    ),
    ("tree_market.check_nflvr", "forwardperf.tree_market", "check_nflvr", None),
    ("ito_engine.simulate_paths", "forwardperf.ito_engine", "simulate_paths", _paths),
    (
        "ito_engine.build_forward_exponential",
        "forwardperf.ito_engine",
        "build_forward_exponential",
        None,
    ),
    ("ito_engine.density_path", "forwardperf.ito_engine", "density_path", None),
    ("kernels.gaussian_field", "forwardperf.kernels", "gaussian_field", None),
    ("kernels.philox4x64", "forwardperf.kernels", "philox4x64", _blocks),
    ("kernels.pairwise_sum", "forwardperf.kernels", "pairwise_sum", _elements),
    *(
        (f"mc_verifier.{fn}", "forwardperf.mc_verifier", fn, None)
        for fn in (
            "check_dual_submartingale",
            "check_dual_martingale_at_optimum",
            "check_inverse_gamma_mean_mc",
            "check_forward_drift_mc",
            "mc_mean_test",
        )
    ),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._scenario = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._scenario])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def scenario(self, scenario_id: int):
        """Top-level span around one scenario; its spans share the id."""
        self._scenario = scenario_id
        idx = self._open(SCENARIO_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, hook):
        counters = self.counters
        if hook == COUNT_ONLY:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                counters.update(hook(args, kwargs, out))
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target at each binding that callers resolve."""
        for name, module_name, attr, hook in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth), hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "") or "").startswith("forwardperf") and (
                    getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, scenario in self.spans:
                fh.write(json.dumps([scenario, name, start, end, parent]) + "\n")


# -- arithmetic on span trees ---------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return dict(out)


def top_level_coverage(spans, wall_s: float) -> float:
    """Share of the traced wall time that top-level spans cover."""
    if wall_s <= 0.0:
        return 0.0
    return sum(s[2] - s[1] for s in spans if s[3] < 0) / wall_s
