"""Exact verification of self-generation and duality on event trees.

Primal value by backward dynamic programming:

    u(xi; t, T) = sup over trading strategies of E[U(T, xi + sum pi dS) | t-node].

For exponential fields with a replicable inverse risk aversion
(1/gamma_child = 1/gamma_node + psi * dS on every branch), wealth separates
multiplicatively and the DP collapses to a scalar factor recursion

    C(node) = inf_pi sum_c p_c C(c) exp(-gamma_c pi dS_c),   C(T-node) = e^a,

with u(xi) = -exp(-gamma xi) C(node); the log-factor equals the additive
shift a self-generation demands, so gaps are reported in those units and do
not depend on the wealth argument. Without replicability there is no such
recursion, and 1/gamma cannot keep its conditional mean under every
martingale measure, so the field cannot self-generate: the primal value
refuses it. Exponential fields are the only field type either value
accepts.

Dual value as one convex program per (window, start):

    v(eta; t, T) = min over terminal conditional masses r of
                   sum_w p_w V(w, eta r_w / p_w)

subject to r >= 0, sum r = 1, and one linear martingale constraint per
interior node; solved by the log-barrier Newton method in ``solvers``, at
eta = 1 only. The objective is eta log(eta) m(r) + eta J(r), with J free
of eta and m(r) = sum_w r_w / gamma_w, which is 1/gamma at the start for
every measure of the window when 1/gamma is replicable. So the minimiser
(the minimal-entropy martingale measure) serves every eta, read as
v(eta) = eta v(1) + eta log(eta) m; without replicability the read is
refused. v(1) is the conditional entropy functional (the splitting
identity for the entropy kernel kills the extra term), which also drives
the backward construction of the consistent additive shift.

Conjugacy u(xi) = inf over eta of v(eta) + xi eta is read from the same
eta = 1 program in closed form: the infimum of eta (v(1) + xi) +
eta log(eta) m is -m e^E, attained at eta = e^E with E = -(v(1) + xi)/m - 1.
It needs no solve beyond the window's one program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Mapping

import numpy as np

from .errors import (
    ArbitrageError,
    ConvergenceError,
    ForwardPerfError,
    ReplicationError,
    WealthRangeError,
)
from .fields import ExponentialFieldParams, conjugate_exponential, entropy_kernel
from .report import CheckRecord, VerificationReport
from .solvers import barrier_minimize, minimize_exp_sum
from .tree_market import (
    EventTree,
    NodePolytope,
    _window_vertices,
    node_polytope,
    vertex_recursion,
)

_REPLICATION_TOL = 1e-10
_INVERSE_GAMMA_TOL = 1e-9  # conditional mean of 1/gamma, per node
_DUAL_READ = "a dual value at eta other than 1 is read from the eta = 1 program"


# -- results -------------------------------------------------------------


@dataclass
class PrimalResult:
    t: int
    T: int
    values: dict[str, float]
    xi: Mapping[str, float]
    log_factor: dict[str, float]
    policy: dict[str, float]
    replication: dict[str, float]
    # per start: u(xi) = -exp(-gamma xi) factor
    gamma: dict[str, float]
    factor: dict[str, float]

    def at(self, xi) -> PrimalResult:
        """The same window at wealth xi (scalar or per-node), read from its
        factors without solving the window again."""
        xi_by_node = _per_node(xi, self.xi, "xi")
        values = _primal_values(self.gamma, self.factor, xi_by_node)
        return replace(self, values=values, xi=xi_by_node)


@dataclass
class DualResult:
    t: int
    T: int
    values: dict[str, float]
    eta: Mapping[str, float]
    replication: ReplicationResult
    # per start, from the window's eta = 1 program that .at reads: its
    # value (the minimal conditional entropy), m = sum_w r*_w / gamma_w at
    # its minimiser r*, and r* itself as {time-T node: mass given the start}
    entropy: dict[str, float] = dc_field(default_factory=dict)
    inverse_gamma_mean: dict[str, float] = dc_field(default_factory=dict)
    leaf_masses: dict[str, dict[str, float]] = dc_field(default_factory=dict)
    kkt_residual: dict[str, float] = dc_field(default_factory=dict)
    near_boundary: dict[str, bool] = dc_field(default_factory=dict)
    newton_iterations: dict[str, int] = dc_field(default_factory=dict)

    def at(self, eta) -> DualResult:
        """The same window at dual argument eta (scalar or per-node), read
        from its eta = 1 program: v(eta) = eta v(1) + eta log(eta) m, and 0
        at eta = 0. The minimiser and the solver evidence are the eta = 1
        program's. The read is exact only when 1/gamma is replicable, so
        without replication an eta other than 1 is refused."""
        eta_by_node = _eta_by_node(eta, self.eta, self.replication)
        nodes = list(eta_by_node)
        values = _dual_read(self, nodes, np.array(list(eta_by_node.values())))
        return replace(self, values=dict(zip(nodes, values.tolist())), eta=eta_by_node)


@dataclass
class ReplicationResult:
    feasible: bool
    psi: dict[str, float] | None
    failed_node: str | None
    residual: float


# -- small helpers -------------------------------------------------------


def _per_node(arg, nodes, name):
    """Broadcast a scalar or per-node mapping onto the given nodes."""
    if isinstance(arg, Mapping):
        missing = [n for n in nodes if n not in arg]
        if missing:
            raise ValueError(f"{name} missing at nodes {missing!r}")
        return {n: float(arg[n]) for n in nodes}
    val = float(arg)
    return {n: val for n in nodes}


def _at_nodes(mapping, nodes):
    """The values of ``mapping`` at ``nodes``, in order, as a float array."""
    return np.array([mapping[n] for n in nodes], dtype=float)


def _dual_read(unit, nodes, eta):
    """v(eta) = eta v(1) + eta log(eta) m at ``nodes`` from the eta = 1
    program ``unit``, elementwise over an array ``eta`` that broadcasts
    against them (one eta per node, or a column of grid points), with
    eta log(eta) taken per eta by ``math.log`` and 0 at eta = 0."""
    eta_log_eta = [e * math.log(e) if e > 0.0 else 0.0 for e in eta.ravel().tolist()]
    m = _at_nodes(unit.inverse_gamma_mean, nodes)
    return eta * _at_nodes(unit.entropy, nodes) + np.reshape(eta_log_eta, eta.shape) * m


def _scan_max(rows, acc):
    """Per column, Python's max over ``acc`` and then each of ``rows`` in
    order: a value replaces the running maximum only when it is greater,
    so a NaN never replaces one (``np.maximum`` would propagate it)."""
    for row in rows:
        acc = np.where(row > acc, row, acc)
    return acc


def _require_replication(rep, what):
    """ReplicationError for ``what`` when ``rep`` replicates no 1/gamma."""
    if not rep.feasible:
        raise ReplicationError(
            f"{what}: no portfolio replicates 1/gamma at node {rep.failed_node!r} "
            f"(residual {rep.residual:.3g})"
        )


def _eta_by_node(eta, nodes, rep):
    """Nonnegative eta per node; one other than 1 needs replication."""
    eta_by_node = _per_node(eta, nodes, "eta")
    if any(e < 0.0 for e in eta_by_node.values()):
        raise ValueError("eta must be nonnegative")
    if any(e != 1.0 for e in eta_by_node.values()):
        _require_replication(rep, _DUAL_READ)
    return eta_by_node


# -- the per-scenario context --------------------------------------------


@dataclass(frozen=True)
class _Window:
    """The program data of the window [time(start), T] below one start."""

    leaves: tuple[str, ...]
    p: np.ndarray  # reference mass of each leaf given the start
    A: np.ndarray  # the unit-mass row, then one martingale row per interior node
    interior: np.ndarray  # strictly positive feasible leaf masses
    nodes: tuple[str, ...]  # the nodes before T, start first, in DFS order


def _walk_window(duals, start, T):
    """The ``_Window`` below ``start`` from one walk down it, in DFS order.
    A martingale row puts the price move of each branch on every leaf below
    it; the interior point is the product of the one-step vertex centroids."""
    tree = duals.tree
    found = []  # per leaf: (leaf, reference mass, centroid mass, moves above it)
    nodes = []
    stack = [(start, 1.0, 1.0, ())]
    while stack:
        nid, prob, mass, moves = stack.pop()
        if tree.time_of(nid) == T:
            found.append((nid, prob, mass, moves))
            continue
        nodes.append(nid)  # its martingale row is row len(nodes)
        center = duals.centroid(nid)
        for j, br in reversed(tuple(enumerate(tree.branches_of(nid)))):
            move = moves + ((len(nodes), br.dprice),)
            stack.append((br.child, prob * br.prob, mass * float(center[j]), move))
    leaves, p, masses, moves = zip(*found)
    A = np.zeros((len(nodes) + 1, len(leaves)))
    A[0] = 1.0
    for col, above in enumerate(moves):
        for row, dprice in above:
            A[row, col] = dprice
    return _Window(leaves, np.array(p), A, np.array(masses), tuple(nodes))


class WindowDuals:
    """The tree engine's per-scenario context: one tree and one gamma, and
    what the checks of a scenario read more than once, each built on first
    use and kept.

    A scenario probes the same windows again and again: the shift
    construction's eta = 1 programs to the horizon, the dual
    self-generation grid, the conjugacy eta grid, the eta = 1 entropy
    minimiser of the exponential-condition and forward checks, and the
    primal factor recursion of every window. The entries, by their keys:

    - per tree: each node's one-step polytope (``polytope``) and its vertex
      centroid, refused when the node has no equivalent one-step measure
      (``centroid``); and the replication of 1/gamma (``replication``);
    - per T: the vertex table (``vertices``); and, keyed also by the
      bits of a_shift at the time-T nodes, the factor C(node) of each node
      some window ending at T has needed (``factors``): both depend on the
      window's end and not on its start;
    - per (t, T): the (max, min) range of E^Q[1/gamma_T | node] over the
      product vertices (``inverse_gamma_range``);
    - per (start, T): the window's leaves, their reference masses, its
      martingale rows, its interior starting point and its nodes before T
      (``window``);
    - per (t, T), keyed also by the bits of a_shift at the time-T nodes:
      the window's one dual program, solved at eta = 1 by ``dual_value``
      and read at every eta (``dual``). A window's program reads the field
      only through gamma and a_shift at its time-T nodes, so a shift moved
      before T (a perturbed root) reads the solves of the shift
      construction, and one moved at a time-T node solves afresh.

    Every entry is what a fresh call returns, bit for bit. The gamma is
    fixed: a check given the context of another tree or gamma refuses it.
    """

    def __init__(self, tree: EventTree, gamma: Mapping[str, float]):
        self.tree = tree
        self.gamma = dict(gamma)
        self._polytopes: dict[str, NodePolytope] = {}
        self._centroids: dict[str, np.ndarray | None] = {}
        self._replication: ReplicationResult | None = None
        self._vertices: dict[int, dict[str, tuple]] = {}
        self._factors: dict[tuple[int, bytes], tuple[dict, dict]] = {}
        self._inverse_gamma: dict[tuple[int, int], dict] = {}
        self._windows: dict[tuple[str, int], _Window] = {}
        self._solved: dict[tuple[int, int, bytes], DualResult] = {}

    def _shift_key(self, a_shift, T):
        """The bits of a_shift at the time-T nodes: all of the shift that a
        window ending at T reads."""
        return np.array([a_shift[w] for w in self.tree.nodes_at(T)], dtype=float).tobytes()

    def polytope(self, nid: str) -> NodePolytope:
        if nid not in self._polytopes:
            self._polytopes[nid] = node_polytope(self.tree, nid)
        return self._polytopes[nid]

    def centroid(self, nid: str) -> np.ndarray:
        """The vertex centroid of a node's one-step polytope, a strictly
        positive measure; ArbitrageError when the node has none."""
        if nid not in self._centroids:
            poly = self.polytope(nid)
            equivalent = not poly.empty and poly.has_equivalent_point()
            self._centroids[nid] = poly.centroid() if equivalent else None
        center = self._centroids[nid]
        if center is None:
            raise ArbitrageError(
                f"node {nid!r}: no equivalent one-step martingale measure; "
                "dual program has no interior point"
            )
        return center

    def replication(self) -> ReplicationResult:
        if self._replication is None:
            self._replication = replicate_inverse_gamma(self.tree, self.gamma)
        return self._replication

    def vertices(self, T: int) -> dict[str, tuple]:
        if T not in self._vertices:
            self._vertices[T] = _window_vertices(self.tree, T)
        return self._vertices[T]

    def factors(self, a_shift: Mapping[str, float], T: int) -> tuple[dict, dict]:
        """The (C, policy) maps of the factor recursion to T that
        ``_exponential_factors`` fills, for this a_shift at the time-T nodes."""
        key = (T, self._shift_key(a_shift, T))
        if key not in self._factors:
            self._factors[key] = ({}, {})
        return self._factors[key]

    def inverse_gamma_range(self, t: int, T: int) -> dict[str, dict]:
        if (t, T) not in self._inverse_gamma:
            self._inverse_gamma[(t, T)] = _inverse_gamma_range(self, t, T)
        return self._inverse_gamma[(t, T)]

    def window(self, start: str, T: int) -> _Window:
        if (start, T) not in self._windows:
            self._windows[(start, T)] = _walk_window(self, start, T)
        return self._windows[(start, T)]

    def dual(self, field: ExponentialFieldParams, eta: float, t: int, T: int) -> DualResult:
        """``dual_value(tree, field, eta, t, T)``: the window's program,
        solved once at eta = 1 and read at eta (``DualResult.at``)."""
        key = (t, T, self._shift_key(field.a_shift, T))
        if key not in self._solved:
            self._solved[key] = dual_value(self.tree, field, 1.0, t, T, duals=self)
        unit = self._solved[key]
        return unit if eta == 1.0 else unit.at(eta)


def _window_duals(duals, tree, gamma):
    """The given context, checked against (tree, gamma), or a fresh one."""
    if duals is None:
        return WindowDuals(tree, gamma)
    if duals.tree is not tree or duals.gamma != dict(gamma):
        raise ValueError("window duals were built for another tree or gamma")
    return duals


# -- primal --------------------------------------------------------------


def replicate_inverse_gamma(tree: EventTree, gamma: Mapping[str, float]) -> ReplicationResult:
    """Per-node portfolio replicating 1/gamma increments, or the first
    inconsistent node.

    Solves psi * dS_c = 1/gamma_c - 1/gamma_node across children in least
    squares; a residual above 1e-10 is an infeasibility certificate.
    """
    psi: dict[str, float] = {}
    worst = 0.0
    for nid in tree._dfs_order:
        if tree.is_leaf(nid):
            continue
        if gamma[nid] <= 0.0:
            raise ValueError(f"gamma must be positive, node {nid!r}")
        branches = tree.branches_of(nid)
        d = np.array([br.dprice for br in branches])
        rhs = np.array([1.0 / gamma[br.child] - 1.0 / gamma[nid] for br in branches])
        denom = float(d @ d)
        coeff = float(d @ rhs) / denom if denom > 0.0 else 0.0
        residual = float(np.max(np.abs(coeff * d - rhs)))
        worst = max(worst, residual)
        if residual > _REPLICATION_TOL:
            return ReplicationResult(
                feasible=False, psi=None, failed_node=nid, residual=residual
            )
        psi[nid] = coeff
    return ReplicationResult(feasible=True, psi=psi, failed_node=None, residual=worst)


def _leaf_factor(node, a):
    """C = e^a at a window leaf; a shift whose factor leaves the float
    range (a above about 709.78 or below about -745.13) is refused."""
    try:
        c = math.exp(a)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ForwardPerfError(
            f"a_shift={a:g} at node {node!r}: the factor exp(a) is outside the float range"
        )
    return c


def _exponential_factors(duals, field, t, T):
    """Scalar factor recursion C plus the one-step base policy per node of
    the window [t, T], levels t..T. C(node) depends on T and not on t, so
    the nodes an earlier window to T solved are read from ``duals``."""
    tree = duals.tree
    C, policy = duals.factors(field.a_shift, T)
    for w in tree.nodes_at(T):
        if w not in C:
            C[w] = _leaf_factor(w, field.a_shift[w])
    order = [n for s in range(T - 1, t - 1, -1) for n in tree.nodes_at(s)]
    for nid in order:
        if nid in C:
            continue
        branches = tree.branches_of(nid)
        weights = np.array([br.prob * C[br.child] for br in branches])
        slopes = np.array([-field.gamma[br.child] * br.dprice for br in branches])
        try:
            pi0, value = minimize_exp_sum(weights, slopes)
        except ValueError as exc:
            raise ArbitrageError(f"node {nid!r}: {exc}") from exc
        except ConvergenceError as exc:
            raise ConvergenceError(f"factor recursion at node {nid!r} on [{t}, {T}]: {exc}") from exc
        C[nid] = value
        policy[nid] = pi0
    return C, {n: policy[n] for n in order}


def _check_field_type(field):
    if not isinstance(field, ExponentialFieldParams):
        raise TypeError(f"field must be ExponentialFieldParams, got {type(field).__name__}")


def _utility(node, xi, exponent, factor=1.0):
    """-exp(exponent) * factor, an exponential utility at wealth xi; a wealth
    at which it leaves the float range is refused."""
    try:
        u = -math.exp(exponent) * factor
    except OverflowError:
        u = -math.inf
    if u == -math.inf:
        raise WealthRangeError(f"xi={xi:g} at node {node!r}: the utility is outside the float range")
    return u


def _primal_values(gamma, factor, xi_by_node):
    return {n: _utility(n, x, -gamma[n] * x, factor[n]) for n, x in xi_by_node.items()}


def primal_value(
    tree: EventTree,
    field: ExponentialFieldParams,
    xi,
    t: int = 0,
    T: int | None = None,
    duals: WindowDuals | None = None,
) -> PrimalResult:
    """Primal value field on [t, T] at wealth xi (scalar or per-node).

    The exact factor recursion C gives u(xi) = -exp(-gamma xi) C. It needs
    a portfolio replicating the increments of 1/gamma at every node; a
    gamma without one is refused with ``ReplicationError`` before anything
    is solved, naming the first such node. The program depends on the
    window only, so ``PrimalResult.at`` reads it at any other wealth. A
    wealth at which u leaves the float range is refused with
    ``WealthRangeError``, and a leaf shift whose factor e^a does with
    ``ForwardPerfError``. A field with no data at levels t..T raises
    ``KeyError`` naming the first such node, by level, then in DFS order.
    ``duals`` shares the replication and the factor recursion with the
    other windows of a scenario.
    """
    _check_field_type(field)
    if T is None:
        T = tree.horizon
    if not (0 <= t <= T <= tree.horizon):
        raise ValueError(f"bad window [{t}, {T}] for horizon {tree.horizon}")
    starts = tree.nodes_at(t)
    xi_by_node = _per_node(xi, starts, "xi")
    for s in range(t, T + 1):
        for nid in tree.nodes_at(s):
            if not field.defined_at(nid):
                raise KeyError(f"field has no data at node {nid!r}")
    duals = _window_duals(duals, tree, field.gamma)
    rep = duals.replication()
    _require_replication(rep, "primal value requires the exponential fast path")
    C, policy = _exponential_factors(duals, field, t, T)
    gamma = {n: field.gamma[n] for n in starts}
    factor = {n: C[n] for n in starts}
    return PrimalResult(
        t=t,
        T=T,
        values=_primal_values(gamma, factor, xi_by_node),
        xi=xi_by_node,
        log_factor={n: math.log(C[n]) for n in starts},
        policy=policy,
        replication=rep.psi,
        gamma=gamma,
        factor=factor,
    )


# -- dual ----------------------------------------------------------------


def _exp_phi(field, leaves, p):
    """The eta = 1 dual objective of each leaf, p h(r / (p gamma)) - r a / gamma,
    as (values, gradients, second derivatives)."""
    gam = np.array([field.gamma[w] for w in leaves])
    ash = np.array([field.a_shift[w] for w in leaves])
    kappa = 1.0 / (p * gam)
    lin = ash / gam
    slope = 1.0 / gam

    def phi(r):
        # entropy_kernel(y) = y log y - y, extended by 0 at y = 0, with
        # the logarithm taken once for the value and the gradient
        y = kappa * r
        log_y = np.log(y)
        v = p * np.where(y > 0.0, y * log_y - y, 0.0) - lin * r
        g = slope * log_y - lin
        h = 1.0 / (gam * r)
        return v, g, h

    return phi


def dual_value(
    tree: EventTree,
    field: ExponentialFieldParams,
    eta,
    t: int = 0,
    T: int | None = None,
    duals: WindowDuals | None = None,
) -> DualResult:
    """Dual value field on [t, T] at dual argument eta (scalar or per-node).

    Minimizes the terminal dual expectation over all absolutely continuous
    martingale measures of the window at eta = 1, per start, and reads eta
    from that program (``DualResult.at``); the minimiser is reported as its
    leaf masses (``leaf_masses``), with a near-boundary flag rather than an
    interiority assumption. Without a portfolio replicating 1/gamma, an eta
    other than 1 is refused with ``ReplicationError`` before anything is
    solved. ``duals`` shares the window data and the replication with the
    other programs of a scenario.
    """
    _check_field_type(field)
    if T is None:
        T = tree.horizon
    if not (0 <= t <= T <= tree.horizon):
        raise ValueError(f"bad window [{t}, {T}] for horizon {tree.horizon}")
    starts = tree.nodes_at(t)
    duals = _window_duals(duals, tree, field.gamma)
    rep = duals.replication()
    eta_by_node = _eta_by_node(eta, starts, rep)
    unit = DualResult(t=t, T=T, values={}, eta=dict.fromkeys(starts, 1.0), replication=rep)
    for start in starts:
        win = duals.window(start, T)
        b = np.zeros(win.A.shape[0])
        b[0] = 1.0
        phi = _exp_phi(field, win.leaves, win.p)
        gam = _at_nodes(field.gamma, win.leaves)

        def entropy_and_mass(r):
            """sum(phi(r)) and sum(r / gamma), refused when either is not
            finite: the objective has left the float range."""
            entropy = float(phi(r)[0].sum())
            m = float((r / gam).sum())
            if not (math.isfinite(entropy) and math.isfinite(m)):
                raise ConvergenceError(
                    f"dual program below node {start!r} on [{t}, {T}] leaves the float "
                    f"range: entropy {entropy!r}, m {m!r}"
                )
            return entropy, m

        # checked at the start too, where the solver's Newton step would
        # not be finite; the overflows on the way print no warning
        with np.errstate(over="ignore", invalid="ignore"):
            entropy_and_mass(win.interior)
            try:
                r, _, info = barrier_minimize(phi, win.A, b, win.interior)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"dual program below node {start!r} on [{t}, {T}]: {exc}"
                ) from exc
            entropy, m = entropy_and_mass(r)
        unit.entropy[start] = entropy
        unit.inverse_gamma_mean[start] = m
        unit.leaf_masses[start] = {w: float(ri) for w, ri in zip(win.leaves, r)}
        unit.kkt_residual[start] = float(info["gap_bound"] + info["eq_residual"])
        unit.near_boundary[start] = bool(r.min() < 1e-7)
        unit.newton_iterations[start] = info["newton_iterations"]
    return unit.at(eta_by_node)


# -- entropy -------------------------------------------------------------


def _implied_shift(g, eta, v):
    """The shift a whose exponential slice at risk aversion ``g`` has the
    dual value ``v`` at ``eta`` > 0: v = entropy_kernel(eta/g) - (eta/g) a
    solved for a, a = (g/eta) (entropy_kernel(eta/g) - v)."""
    return (g / eta) * (entropy_kernel(eta / g) - v)


def solve_entropy_shift(
    tree: EventTree,
    gamma: Mapping[str, float],
    terminal_a,
    duals: WindowDuals | None = None,
) -> dict[str, float]:
    """Backward construction of the additive shift from the entropy identity.

    Verifies first that every one-step polytope vertex preserves the
    conditional mean of 1/gamma (else the construction is refused, citing
    the failing node), then sets, level by level,

        a[node] = gamma * (entropy_kernel(1/gamma) - min entropy to horizon).

    The dynamic-programming principle of the entropy minimum makes the
    resulting shift consistent over every window, not just to the horizon.
    The eta = 1 programs to the horizon read only the terminal shift, so
    through ``duals`` the checks of the scenario read them too.
    """
    leaves = tree.leaves()
    a_term = _per_node(terminal_a, leaves, "terminal_a")
    for nid in tree._dfs_order:
        if not (gamma[nid] > 0.0):
            raise ValueError(f"gamma must be positive, node {nid!r}")
    duals = _window_duals(duals, tree, gamma)
    for nid in tree._dfs_order:
        if tree.is_leaf(nid):
            continue
        poly = duals.polytope(nid)
        if poly.empty:
            raise ArbitrageError(f"node {nid!r}: empty one-step polytope")
        inv_children = np.array([1.0 / gamma[c] for c in poly.children])
        for v in poly.vertices:
            got = float(v @ inv_children)
            if abs(got - 1.0 / gamma[nid]) > _INVERSE_GAMMA_TOL:
                raise ValueError(
                    f"inverse-gamma conditional mean violated at node {nid!r}: "
                    f"vertex gives {got:.12g}, field has {1.0 / gamma[nid]:.12g}"
                )
    # the programs to the horizon read only the leaf shifts
    terminal = ExponentialFieldParams(gamma, {n: a_term.get(n, 0.0) for n in gamma})
    a_out: dict[str, float] = dict(a_term)
    for t in range(tree.horizon - 1, -1, -1):
        ent = duals.dual(terminal, 1.0, t, tree.horizon)
        nodes = tree.nodes_at(t)
        shift = _implied_shift(_at_nodes(gamma, nodes), 1.0, _at_nodes(ent.values, nodes))
        a_out.update(zip(nodes, shift.tolist()))
    return a_out


# -- checks --------------------------------------------------------------


def _gap_record(tag, gaps, tol, **extra):
    """The record of the largest gap of ``gaps`` ({node: gap}, in scan
    order) against 0 within ``tol``. Only a failing record names a node:
    the first attaining that gap. A passing record's argmax sits at the
    rounding floor and would name a node by noise."""
    worst = max(gaps.values())
    passed = worst <= tol
    node = None if passed else next(n for n, g in gaps.items() if g == worst)
    return CheckRecord(
        tag, verdict=passed, value=worst, target=0.0, tolerance=tol, worst_node=node, **extra
    )


def _overall_record(tag, records, tol):
    """The roll-up of per-window gap records: the first with the largest
    value, under ``tag`` and without details; a pass at 0 with no windows."""
    if not records:
        return CheckRecord(tag, verdict=True, value=0.0, target=0.0, tolerance=tol)
    return replace(max(records, key=lambda r: r.value), check_tag=tag, details={})


def check_self_generation_primal(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    xi_grid,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Per (t, T) and per xi: does the computed value reproduce the slice.

    Each window's primal program is solved once, at xi = 0, and read at
    every wealth of the grid. The gap is reported in shift units
    (|log C - a|), which is independent of the wealth argument; the worst
    raw value difference over the grid is recorded alongside. A gamma that
    no portfolio replicates is refused by ``primal_value``. ``duals``
    shares the factor recursion to each T with the other checks.
    """
    duals = _window_duals(duals, tree, field.gamma)
    windows = []
    for (t, T) in time_pairs:
        res = primal_value(tree, field, 0.0, t, T, duals=duals)
        gaps = {n: abs(res.log_factor[n] - field.a_shift[n]) for n in tree.nodes_at(t)}
        value_gap = 0.0
        for x in xi_grid:
            x = float(x)
            resx = res.at(x)
            for n in tree.nodes_at(t):
                Ux = _utility(n, x, -field.gamma[n] * x + field.a_shift[n])
                value_gap = max(value_gap, abs(resx.values[n] - Ux))
        windows.append(
            _gap_record(
                f"primal-self-generation[t={t},T={T}]",
                gaps,
                tol,
                details={"value_gap": value_gap, "method": "exponential"},
            )
        )
    return VerificationReport(windows + [_overall_record("primal-self-generation", windows, tol)])


def check_self_generation_dual(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    eta_grid,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Per (t, T) and per eta: does the dual value reproduce the dual slice.

    Gaps are reported in shift units via the implied shift
    a_implied = (gamma/eta) (entropy_kernel(eta/gamma) - v), so a root
    perturbation of the field shows up at exactly its own size. Each
    window's eta = 1 program is read at every eta of the grid, so without
    replication of 1/gamma a grid with an eta other than 1 is refused
    before anything is solved, as is a grid with no positive eta (it
    implies no shift). The record carries the read's certificate,
    max over starts of |m - 1/gamma| (``DualResult.at``), and per start the
    program's Newton iterations, KKT residual and near-boundary flag.
    ``duals`` shares the dual solves with the other checks of a scenario.
    """
    eta_grid = [float(e) for e in eta_grid]
    if not any(e > 0.0 for e in eta_grid):
        raise ValueError("dual self-generation needs a positive eta in the grid")
    duals = _window_duals(duals, tree, field.gamma)
    if any(e != 1.0 for e in eta_grid):
        _require_replication(duals.replication(), _DUAL_READ)
    if any(e < 0.0 for e in eta_grid):
        raise ValueError("eta must be nonnegative")
    eta = np.array(eta_grid)[:, None]
    positive = eta[:, 0] > 0.0
    windows = []
    for (t, T) in time_pairs:
        unit = duals.dual(field, 1.0, t, T)
        starts = tree.nodes_at(t)
        g = _at_nodes(field.gamma, starts)
        a = _at_nodes(field.a_shift, starts)
        # per (eta, start): the read, its gap to the slice's closed-form
        # dual, and the gap of the shift it implies at a positive eta
        v = _dual_read(unit, starts, eta)
        value_gaps = _scan_max(np.abs(v - conjugate_exponential(g, a, eta)), 0.0)
        shift_gaps = np.abs(_implied_shift(g, eta[positive], v[positive]) - a)
        m = unit.inverse_gamma_mean
        windows.append(
            _gap_record(
                f"dual-self-generation[t={t},T={T}]",
                dict(zip(starts, _scan_max(shift_gaps, 0.0).tolist())),
                tol,
                details={
                    "value_gap": max(value_gaps.tolist()),
                    "read_certificate": max(abs(m[n] - 1.0 / field.gamma[n]) for n in m),
                    "newton_iterations": unit.newton_iterations,
                    "kkt_residual": unit.kkt_residual,
                    "near_boundary": unit.near_boundary,
                },
            )
        )
    return VerificationReport(windows + [_overall_record("dual-self-generation", windows, tol)])


def _conjugate_read(unit, n, xi):
    """(u, eta_hat) at start n and wealth xi, read from the window's eta = 1
    program ``unit``: v(eta) + xi eta = eta (v(1) + xi) + eta log(eta) m is
    least at eta_hat = e^E, E = -(v(1) + xi) / m - 1, where it equals
    -m eta_hat. A wealth at which eta_hat or u leaves the float range is
    refused."""
    m = unit.inverse_gamma_mean[n]
    try:
        eta_hat = math.exp(-(unit.entropy[n] + xi) / m - 1.0)
    except OverflowError:
        eta_hat = math.inf
    u = -m * eta_hat
    if not (0.0 < eta_hat < math.inf and -math.inf < u < 0.0):
        raise WealthRangeError(
            f"xi={xi:g} at node {n!r}: the optimal dual argument or the value "
            "is outside the float range"
        )
    return u, eta_hat


def _scaled_gap(value, target):
    """|value - target| / max(1, |target|), elementwise: absolute for
    values of order one, relative for larger ones (Higham 2002). A NaN
    |target| scales by 1, as Python's max(1, NaN) does."""
    size = np.abs(target)
    return np.abs(value - target) / np.where(size > 1.0, size, 1.0)


def check_value_conjugacy(
    tree: EventTree,
    field: ExponentialFieldParams,
    t: int,
    T: int,
    xi_grid,
    eta_grid,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Fenchel conjugacy between the computed value fields.

    Per start node, both directions between the window's eta = 1 dual
    program, read as v(eta) = eta v(1) + eta log(eta) m (``DualResult.at``),
    and the primal u(xi) = -exp(-gamma xi) C of the factor recursion
    (``PrimalResult.at``):

    - primal from dual: u(xi) against inf over eta > 0 of (v(eta) + xi eta),
      which for that read is -m eta_hat at eta_hat = e^E,
      E = -(v(1) + xi) / m - 1, in closed form. The record carries eta_hat
      at the first grid wealth and, per start, the eta = 1 program's
      Newton iterations, KKT residual (gap bound plus equality residual)
      and near-boundary flag, as the dual-self-generation records do.
    - dual from primal: v(eta) on the eta grid against max over xi of
      (u(xi) - xi eta), which for u(xi) = -exp(-gamma xi + log_factor) is
      ``conjugate_exponential(gamma, log_factor, eta)`` in closed form.

    Each gap is scaled by max(1, |target|), the target being u(xi) on one
    side and the closed-form conjugate on the other, since both sides
    carry the relative rounding error of v(1) and |u| grows with e^a; each
    record's value is its worst scaled gap. A wealth at which eta_hat or
    u leaves the float range is refused with ``WealthRangeError`` before
    the primal is read there. ``duals`` shares the eta = 1 program, the
    window data and the factor recursion with the other checks of a
    scenario. A gamma whose reciprocal no portfolio replicates is refused
    by ``primal_value`` before anything is solved.
    """
    xi_grid = [float(x) for x in xi_grid]
    eta_grid = sorted(float(e) for e in eta_grid)
    if not xi_grid or not eta_grid:
        raise ValueError("conjugacy check needs nonempty grids")
    if any(e <= 0.0 for e in eta_grid):
        raise ValueError("eta grid entries must be positive")
    starts = tree.nodes_at(t)

    duals = _window_duals(duals, tree, field.gamma)
    base = primal_value(tree, field, 0.0, t, T, duals=duals)
    unit = duals.dual(field, 1.0, t, T)
    conjugates = [[_conjugate_read(unit, n, x) for n in starts] for x in xi_grid]
    primals = np.array([_at_nodes(base.at(x).values, starts) for x in xi_grid])
    # per (wealth, start) and per (eta, start); each start's worst over
    # its grid, in grid order
    primal_gaps = _scaled_gap(np.array([[u for u, _ in row] for row in conjugates]), primals)
    eta = np.array(eta_grid)[:, None]
    dual_gaps = _scaled_gap(
        _dual_read(unit, starts, eta),
        conjugate_exponential(_at_nodes(field.gamma, starts), _at_nodes(base.log_factor, starts), eta),
    )
    return VerificationReport(
        [
            _gap_record(
                f"conjugacy-primal-from-dual[t={t},T={T}]",
                dict(zip(starts, _scan_max(primal_gaps[1:], primal_gaps[0]).tolist())),
                tol,
                details={
                    "eta_hat": {n: eta_hat for n, (_, eta_hat) in zip(starts, conjugates[0])},
                    "newton_iterations": unit.newton_iterations,
                    "kkt_residual": unit.kkt_residual,
                    "near_boundary": unit.near_boundary,
                },
            ),
            _gap_record(
                f"conjugacy-dual-from-primal[t={t},T={T}]",
                dict(zip(starts, _scan_max(dual_gaps[1:], dual_gaps[0]).tolist())),
                tol,
            ),
        ]
    )


def _inverse_gamma_range(duals, t, T):
    """Per start, per charged window node: (max, min) of E^Q[1/gamma_T | node]
    over the product vertices Q of [t, T]."""
    gamma = duals.gamma

    def local(_nid, _kids, verts, kid_values):
        hi = max(sum(v * c_hi for v, (c_hi, _) in zip(vert, kid_values)) for vert in verts)
        lo = min(sum(v * c_lo for v, (_, c_lo) in zip(vert, kid_values)) for vert in verts)
        return hi, lo

    return vertex_recursion(
        duals.tree, t, T, lambda w: (1.0 / gamma[w],) * 2, local, duals.vertices(T)
    )


def _inverse_gamma_gap(g, hi_lo):
    """Largest |E^Q[1/gamma_T | node] - 1/g| over a (max, min) range."""
    hi, lo = hi_lo
    return max(hi - 1.0 / g, 1.0 / g - lo)


def check_exponential_conditions(
    tree: EventTree,
    gamma: Mapping[str, float],
    a_shift: Mapping[str, float],
    time_pairs,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """The three-way characterization for exponential fields.

    Positivity of gamma (adaptedness and integrability are automatic on a
    finite tree), preservation of the conditional mean of 1/gamma by every
    product vertex of the measure polytope, and the entropy identity
    entropy_kernel(1/gamma) - a/gamma = min entropy, per time pair.

    The product vertices are not listed: the largest and smallest
    conditional means of 1/gamma_T over them come from one backward
    recursion over the one-step vertex sets (``_inverse_gamma_range``), and
    the gap at a start is the larger distance of either from 1/gamma there.
    The entropy minima are the eta = 1 window duals of the field (gamma,
    a_shift); they and the (max, min) ranges are read from ``duals`` when
    given.
    """
    report = VerificationReport()

    bad_gamma = [n for n in tree._dfs_order if not (gamma[n] > 0.0)]
    report.add(
        CheckRecord(
            check_tag="exp-condition-positivity",
            verdict=not bad_gamma,
            worst_node=bad_gamma[0] if bad_gamma else None,
            notes=(
                "adaptedness and integrability hold by construction on a finite tree",
            ),
        )
    )

    # without time pairs no field is built, so a non-positive gamma only
    # fails the positivity record
    if time_pairs:
        field = ExponentialFieldParams(gamma, a_shift)
        duals = _window_duals(duals, tree, gamma)
    inverse_gamma, entropy = [], []
    for (t, T) in time_pairs:
        ranges = duals.inverse_gamma_range(t, T)
        inverse_gamma.append(
            _gap_record(
                f"exp-condition-inverse-gamma-martingale[t={t},T={T}]",
                {n: _inverse_gamma_gap(gamma[n], by_node[n]) for n, by_node in ranges.items()},
                tol,
            )
        )
        ent = duals.dual(field, 1.0, t, T)
        starts = tree.nodes_at(t)
        gaps = np.abs(
            _implied_shift(_at_nodes(gamma, starts), 1.0, _at_nodes(ent.values, starts))
            - _at_nodes(a_shift, starts)
        )
        entropy.append(
            _gap_record(
                f"exp-condition-entropy-identity[t={t},T={T}]",
                dict(zip(starts, gaps.tolist())),
                tol,
            )
        )
    for rec in inverse_gamma + entropy:
        report.add(rec)
    report.add(_overall_record("exp-condition-inverse-gamma-martingale", inverse_gamma, tol))
    report.add(_overall_record("exp-condition-entropy-identity", entropy, tol))
    return report


def _forward_drift(weights, probs, kid_values):
    """One step of the forward drift recursion at a node:
    sum_c q~_c (D(c) - log(q~_c / p_c)) over the children c of positive
    weight, with q~ the weights normalised, p the reference conditionals
    and D(c) in ``kid_values``."""
    total = sum(weights)
    value = 0.0
    for w, p, d in zip(weights, probs, kid_values):
        if w > 0.0:
            q = w / total
            value += q * (d - math.log(q / p))
    return value


def check_forward_supermartingale(
    tree: EventTree,
    gamma: Mapping[str, float],
    a_shift: Mapping[str, float],
    t: int = 0,
    T: int | None = None,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Forward-measure drift of the shifted log density.

    For every product vertex Q of the window polytope, with Q_g its
    reweighting by gamma_0/gamma_T, the process a - log Z^{Q_g} must not
    drift up between any window node and the terminal time (nodes Q_g
    avoids are skipped); the entropy-minimizing measure must achieve
    equality. Positivity and the inverse-gamma mean condition are verified
    first and raise when violated.

    Both records run node by node, without listing the product vertices or
    building a measure on the tree. A window node is charged when every
    edge from its start to it gets mass above the vertex tolerance at some
    vertex of its parent: exactly the nodes some Q reaches. The
    inverse-gamma mean condition must hold at every charged node for every
    choice below it, which the (max, min) recursion of
    ``_inverse_gamma_range`` decides. Once it holds, the reweighting is per
    edge, q~_c = (v_c / gamma_c) / sum_j (v_j / gamma_j) at a vertex v, so
    the drift at a node depends only on the choices at and below it, and
    its worst case over Q is the backward recursion

        D(w) = a_w at time T,
        D(m) = max over v of sum_c q~_c (D(c) - log(q~_c / p_c)),

    with D(m) - a_m the worst drift at m; the record takes the largest over
    the charged nodes. At the entropy minimiser r* (the eta = 1 window dual
    of the field) the same step (``_forward_drift``) runs at that one
    measure: q~_c is the share of c's time-T descendants w in the sum of
    r*_w gamma_start / gamma_w, and |D(m) - a_m| must vanish at every node
    the minimiser reaches. The minimiser, the (max, min) range and the
    vertex table to T are read from ``duals`` when given.
    """
    if T is None:
        T = tree.horizon
    if not (0 <= t < T <= tree.horizon):
        raise ValueError(f"need a nondegenerate window, got [{t}, {T}]")
    for n in tree._dfs_order:
        if not (gamma[n] > 0.0):
            raise ValueError(f"gamma must be positive, node {n!r}")
    duals = _window_duals(duals, tree, gamma)

    # vertex-level inverse-gamma mean precondition
    for by_node in duals.inverse_gamma_range(t, T).values():
        for m, hi_lo in by_node.items():
            if _inverse_gamma_gap(gamma[m], hi_lo) > _INVERSE_GAMMA_TOL:
                raise ValueError(
                    f"inverse-gamma conditional mean fails at node {m!r}; "
                    "forward measures are not probabilities"
                )

    def worst_drift(m, kids, verts, kid_values):
        probs = [tree.branch_to(c).prob for c in kids]
        best = -math.inf
        for vert in verts:
            weights = [v / gamma[c] for v, c in zip(vert, kids)]
            best = max(best, _forward_drift(weights, probs, kid_values))
        return best

    drifts = vertex_recursion(tree, t, T, lambda w: a_shift[w], worst_drift, duals.vertices(T))

    def optimum_gaps(start, masses):
        """|D(m) - a_m| at the minimiser with leaf masses ``masses``, per
        window node it reaches, start first, in DFS order."""
        weight = {w: masses[w] * gamma[start] / gamma[w] for w in masses}
        drift = {}
        interior = duals.window(start, T).nodes
        for m in reversed(interior):
            kids = tree.children(m)
            weights = [weight[c] for c in kids]
            weight[m] = sum(weights)
            probs = [br.prob for br in tree.branches_of(m)]
            kid_values = [drift[c] if c in drift else a_shift[c] for c in kids]
            drift[m] = _forward_drift(weights, probs, kid_values)
        return {
            m: abs(drift[m] - a_shift[m]) for m in interior if m == start or weight[m] > 0.0
        }

    ent = duals.dual(ExponentialFieldParams(gamma, a_shift), 1.0, t, T)
    # the starts' subtrees are disjoint, so each record keys its gaps by node
    return VerificationReport(
        [
            _gap_record(
                f"forward-supermartingale[t={t},T={T}]",
                {m: d - a_shift[m] for by_node in drifts.values() for m, d in by_node.items()},
                tol,
                notes=("positive drift of the shifted log density violates the bound",),
            ),
            _gap_record(
                f"forward-martingale-at-optimum[t={t},T={T}]",
                {
                    m: gap
                    for start in tree.nodes_at(t)
                    for m, gap in optimum_gaps(start, ent.leaf_masses[start]).items()
                },
                tol,
            ),
        ]
    )
