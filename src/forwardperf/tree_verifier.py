"""Exact verification of self-generation and duality on event trees.

Primal value by backward dynamic programming:

    u(xi; t, T) = sup over trading strategies of E[U(T, xi + sum pi dS) | t-node].

For exponential fields with a replicable inverse risk aversion
(1/gamma_child = 1/gamma_node + psi * dS on every branch), wealth separates
multiplicatively and the DP collapses to a scalar factor recursion in logs

    log C(n) = log inf_pi sum_c exp(log p_c + log C(c) - gamma_c pi dS_c),

log C = a at time T, with u(xi) = -exp(-gamma xi + log C(node)); the
log-factor equals the additive shift a self-generation demands, so gaps
are reported in those units and do not depend on the wealth argument.
Without replicability there is no such recursion, and 1/gamma cannot keep
its conditional mean under every martingale measure, so the field cannot
self-generate: the primal value refuses it. Exponential fields are the
only field type either value accepts.

Two symmetries leave every gap unchanged. A constant c added to a
everywhere multiplies U by e^c and moves log C, and every shift the dual
implies, by c. Scaling gamma by lambda, with pi -> pi / lambda, leaves C
unchanged, so u at xi / lambda is the unscaled u at xi, and the dual
slice V(y) = entropy_kernel(y / gamma) - (y / gamma) a at lambda eta is
the unscaled one at eta. So no solver carries a scale of its own
(``minimize_exp_sum``, ``_Sweep._solve``), the replication residual is
relative to 1/gamma and the inverse-gamma gaps are in its units.

Dual value of the window [t, T] at a time-t start: the minimum of
sum_w p_w V(w, eta r_w / p_w) over the window's martingale measures, with r
their terminal conditional masses. It is solved at eta = 1 only: the
objective is eta log(eta) m(r) + eta J(r), with J free of eta and
m(r) = sum_w r_w / gamma_w, which is 1/gamma at the start for every
measure of the window when 1/gamma is replicable, so v(eta) =
eta v(1) + eta log(eta) m. v(1) is the conditional entropy functional,
which also drives the backward construction of the shift.

The eta = 1 program splits into one-step programs. With m_w = 1/gamma_w and
c_w = h(m_w) - a_w m_w (h the entropy kernel), its objective is
sum_w r_w (m_w log(r_w / p_w) + c_w). Let f_n(z) be its minimum over the
masses below node n that sum to z; at a time-T node f_w(z) = z (m_w log z
+ c_w). If f_k(z) = z (m_k log z + c_k) at every child k of n, then over
the one-step conditionals q of n

    f_n(z) = min over q of z [log z sum_k q_k m_k
                              + sum_k q_k (m_k log(q_k / p_k) + c_k)].

Replicability makes sum_k q_k m_k = m_n for every one-step martingale
measure q, so the minimising q does not depend on z, and
f_n(z) = z (m_n log z + c_n) with c_n the one-step program's value. That
program is the leaf objective p h(q / (p gamma)) - q a / gamma over the
children, each child's a its implied shift (c_k = h(m_k) - a m_k). A
window's value at its start is c_start, and its minimiser is the product
of the one-step minimisers along each path. So every window ending at T
is read from one sweep of the one-step programs before T
(``WindowDuals.sweep``), which carries the shift each c_n implies, read
off its program in the node's units (``_Sweep._solve``). Error bound, in
shift units: a child's shift enters its parent's objective through the
weights q_k gamma_n / gamma_k, a convex combination, so errors of at most
e_k in the children's shifts move the parent's by at most max_k e_k: a
window's implied shift is within the largest sum of node bounds (gap bound
plus equality residual) along a path from its start (``kkt_residual``).
Without replicability the field cannot self-generate: the dual value
refuses it, and the dual records fail with the replication certificate.

A one-step program's other inputs (its node's branch probabilities,
price moves and children's gammas, and the node's vertex centroid where
the solve starts) are fixed for the scenario, so the program is fixed by
its node and the bits of its children's shifts: every sweep that meets
those bits shares one solve (``WindowDuals``), and adds its own sums
over it (m and the bounds along paths to its T). ``barrier_minimize``
solves each program of a stack as it would alone, so a shared outcome
has the bits of a fresh one. For the shift ``solve_entropy_shift``
builds, the shift at a time-T node is, bit for bit, the one the sweep to
the horizon implies there; by induction up the levels, the sweep to T
then meets the horizon sweep's children's shifts at every node and reads
its programs, so the scenario solves one program per internal node.

The forward check's equality is the drift recursion
D(n) = sum_k q~_k (D(k) - log(q~_k / p_k)), D = a at time T, at the
minimiser r* of a window [t, T] reweighted by gamma_start / gamma_w: a
node c of the window gets the weight sum_w r*_w gamma_start / gamma_w over
its time-T descendants w, and q~ at a node is its children's weights
normalised. With r*_w the product of the one-step minimisers q along the
path, that weight is (prod of q along start -> c) gamma_start m_c, m_c the
nested sum_k q_k m_k below c, which is 1/gamma_c by replicability. So
q~_k = q_k m_k / m_n at every node n, whatever the start, and the
recursion runs on the sweep's one-step minimisers alone. It is the
recursion of the implied shifts: with c_k = h(m_k) - s_k m_k, s_k the
child's implied shift, and sum_k q_k m_k = m_n, the one-step objective is

    sum_k q_k (m_k log(q_k / p_k) + c_k)
        = h(m_n) - m_n sum_k q~_k (s_k - log(q~_k / p_k)),

and its value at the minimiser is c_n = h(m_n) - s_n m_n, so
s_n = sum_k q~_k (s_k - log(q~_k / p_k)): the drift step at the
children's shifts. From s = a at time T, D(n) = s_n at every node, for
every field, self-generating or not. The equality's gap at m, |D(m) - a_m|,
is the sweep's |shift(m) - a_m|, the entropy-identity gap of [time(m), T]
at m. The check reads it there, and reports it as one roll-up over its
windows: a per-window record would restate entropy-identity gaps.

The forward check's worst drift is the factor recursion. With 1/gamma
replicable, q -> q~ = gamma_n q / gamma maps a node's one-step martingale
polytope onto {q~ >= 0, sum q~ = 1, sum_c q~_c gamma_c dS_c = 0}, since
sum_c q_c / gamma_c = 1/gamma_n on it. The drift step
sum_c q~_c (D_c - log(q~_c / p_c)) is concave in q~; by the Gibbs
variational principle its maximum there is
log min over pi of sum_c p_c exp(D_c - gamma_c pi dS_c), with no duality
gap, as Slater's condition holds at the node's (strictly positive) vertex
centroid. The step increases in each D_c, so the nested maximum is the
maximum over product measures, and with D = a at time T it is log C
(Delbaen et al., Math. Finance 12, 2002; Frittelli, Math. Finance 10,
2000): the worst drift at n is log C(n) - a_n.

Conjugacy u(xi) = inf over eta of v(eta) + xi eta is read from the same
eta = 1 value in closed form: the infimum of eta (v(1) + xi) +
eta log(eta) m is -m e^E, attained at eta = e^E with E = -(v(1) + xi)/m - 1.

The paper characterizes an exponential field that self-generates by three
conditions. The first, gamma > 0 adapted and integrable, holds for every
field a check accepts: values attach to nodes, so the field is adapted;
every random variable on a finite tree is integrable; and
``ExponentialFieldParams`` refuses a gamma that is not positive and
finite. ``check_exponential_conditions`` reports the two that such a
field can fail: 1/gamma keeps its conditional mean under every martingale
measure, and the entropy identity.

The inverse-gamma condition holds one step at a time. Write M = 1/gamma.
The martingale measures of a window compose one-step choices made at
each node independently, a rectangular set (Epstein & Schneider, JET
2003), so by the tower property, for such a measure Q and a time-t start n,

    E^Q[M_T | n] - M_n = sum over s = t..T-1 of E^Q[E^Q[M_{s+1} | F_s] - M_s | n],

where at a level-s node k the inner term is sum_c q_c M_c - M_k, q the
one-step measure Q picks there. That term is linear in q, so its
extremes over the node's polytope lie at the vertices: with hi_k and
lo_k the largest and smallest sum_c v_c M_c over them, the node's
one-step gap, in units of M_k, is
g_k = gamma_k max(hi_k - M_k, M_k - lo_k) (``_one_step_gap``). Hence the
gap of [t, T] at n, in units of M_n, is at most

    gamma_n sum over s = t..T-1 of max over the level-s nodes k below n of g_k / gamma_k,

which vanishes when every g_k of levels t..T-1 does. A window with a
node there that has no equivalent one-step measure is refused, as the
sweep refuses it (``WindowDuals.centroid``). With one at every node, the
window's measures reach every node of levels t..T-1 and may pick any
point of its polytope there, so no g_k is of a node or a vertex the
window cannot use. The condition then holds on every pair t <= T iff
every g_k vanishes: the bound gives one direction, and the one-step
windows [s, s + 1], whose gaps are the g_k, the other. So the record of
[t, T] reports the largest g_k over its nodes. It can fail where the
window's own mean holds by cancellation across levels, never where
every one-step window inside it passes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArbitrageError, ConvergenceError, ReplicationError, WealthRangeError
from .fields import ExponentialFieldParams, conjugate_exponential
from .report import CheckRecord, VerificationReport
from .solvers import barrier_minimize, minimize_exp_sum
from .tree_market import EventTree, node_polytope

_PRIMAL = "primal value requires the exponential fast path"
_DUAL_SPLIT = "the dual value is composed from one-step programs"
_UNREPLICATED = "no portfolio replicates 1/gamma: the dual program does not split, and is not solved"
_FORWARD = "forward measures need a replicable 1/gamma"


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
    # per start: u(xi) = -exp(-gamma xi + log_factor)
    gamma: dict[str, float]

    def at(self, xi) -> PrimalResult:
        """The same window at wealth xi (scalar or per-node), read from its
        log factors without solving the window again."""
        xi_by_node = _per_node(xi, self.xi, "xi")
        return replace(self, values=_primal_values(self.gamma, self.log_factor, xi_by_node), xi=xi_by_node)


@dataclass
class DualResult:
    t: int
    T: int
    values: dict[str, float]
    eta: Mapping[str, float]
    # per start: the eta = 1 value .at reads (the minimal entropy), its
    # implied shift, m = sum_w r*_w / gamma_w at the minimiser r*, r* as
    # {time-T node: mass given the start}, and the sweep's evidence
    entropy: dict[str, float]
    shift: dict[str, float]
    inverse_gamma_mean: dict[str, float]
    leaf_masses: dict[str, dict[str, float]]
    kkt_residual: dict[str, float]
    near_boundary: dict[str, bool]
    newton_iterations: dict[str, int]

    def at(self, eta) -> DualResult:
        """The same window at dual argument eta (scalar or per-node), read
        from its eta = 1 program: v(eta) = eta v(1) + eta log(eta) m, and 0
        at eta = 0. The minimiser and the solver evidence are the eta = 1
        program's."""
        eta_by_node = _eta_by_node(eta, self.eta)
        nodes = list(eta_by_node)
        values = _dual_read(self, nodes, np.array(list(eta_by_node.values())))
        return replace(self, values=dict(zip(nodes, values.tolist())), eta=eta_by_node)


@dataclass
class ReplicationResult:
    feasible: bool
    psi: dict[str, float] | None
    failed_node: str | None
    # in units of a node's largest 1/gamma: the worst, or the failed node's
    residual: float
    tolerance: float | None = None


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
    eta log(eta) taken per eta by ``math.log``; 0 at eta = 0, v(1) inf too."""
    eta_log_eta = [e * math.log(e) if e > 0.0 else 0.0 for e in eta.ravel().tolist()]
    m = _at_nodes(unit.inverse_gamma_mean, nodes)
    with np.errstate(invalid="ignore"):
        return np.where(eta > 0.0, eta * _at_nodes(unit.entropy, nodes) + np.reshape(eta_log_eta, eta.shape) * m, 0.0)


def _require_finite(eta, starts, gaps):
    """WealthRangeError at the first eta of the column ``eta``, then the
    first start, where ``gaps`` (a row per eta, a column per start) is not
    finite: the read there, its target or the shift it implies is outside
    the float range."""
    bad = np.argwhere(~np.isfinite(gaps))
    if len(bad):
        i, j = bad[0]
        raise WealthRangeError(
            f"eta={eta[i, 0]:g} at node {starts[j]!r}: the dual value, its "
            "closed-form target or the shift it implies is outside the float range"
        )


def _require_replication(rep, what):
    """ReplicationError for ``what`` when ``rep`` replicates no 1/gamma."""
    if not rep.feasible:
        raise ReplicationError(
            f"{what}: no portfolio replicates 1/gamma at node {rep.failed_node!r} "
            f"(residual {rep.residual:.3g})"
        )


def _eta_by_node(eta, nodes):
    """Nonnegative eta per node."""
    eta_by_node = _per_node(eta, nodes, "eta")
    if any(e < 0.0 for e in eta_by_node.values()):
        raise ValueError("eta must be nonnegative")
    return eta_by_node


# -- the per-scenario context --------------------------------------------


class WindowDuals:
    """The tree engine's per-scenario context: one tree and one gamma, and
    what the checks of a scenario read more than once, each built on first
    use and kept.

    The entries, by their keys:

    - per tree: each node's vertex centroid, refused when the node has no
      equivalent one-step measure (``centroid``), from its one-step
      polytope, which the tree keeps (``node_polytope``); each node's
      one-step inverse-gamma gap (``inverse_gamma_gaps``); and the
      replication of 1/gamma (``replication``);
    - per T, keyed also by the bits of a_shift at the time-T nodes: the
      log factor (``factors``), which the primal and forward checks both
      read, and the sweep of one-step dual programs to T (``sweep``),
      which every dual read of a window ending at T composes. Each holds
      the nodes some window ending at T has needed; they depend on the
      window's end and not on its start. A shift moved before T (a
      perturbed root) reads the sweeps of the shift construction; one
      moved at a time-T node builds a new sweep;
    - per node, keyed also by the bits of its children's shifts: the
      outcome of its one-step dual program (minimiser, implied shift, its
      bound, iterations and failure), which every sweep meeting those
      shifts reads (``_Sweep.extend``). A sweep with a moved shift solves
      only the programs above the move.

    Every entry is what a fresh call returns, bit for bit. The gamma is
    fixed: a check given the context of another tree or gamma refuses it.
    """

    def __init__(self, tree: EventTree, gamma: Mapping[str, float]):
        self.tree = tree
        self.gamma = dict(gamma)
        self._centroids: dict[str, np.ndarray | None] = {}
        self._replication: ReplicationResult | None = None
        self._gaps: dict[str, float] = {}
        self._factors: dict[tuple[int, bytes], tuple[dict, dict]] = {}
        self._sweeps: dict[tuple[int, bytes], _Sweep] = {}
        self._programs: dict[tuple[str, bytes], tuple] = {}

    def _shift_key(self, a_shift, T):
        """The bits of a_shift at the time-T nodes: all of the shift that a
        window ending at T reads."""
        return np.array([a_shift[w] for w in self.tree.nodes_at(T)], dtype=float).tobytes()

    def centroid(self, nid: str) -> np.ndarray:
        """The vertex centroid of a node's one-step polytope, a strictly
        positive measure; ArbitrageError when the node has none."""
        if nid not in self._centroids:
            poly = node_polytope(self.tree, nid)
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

    def factors(self, a_shift: Mapping[str, float], T: int) -> tuple[dict, dict]:
        """The (log C, policy) maps of the factor recursion to T that
        ``_exponential_factors`` fills, for this a_shift at the time-T nodes."""
        key = (T, self._shift_key(a_shift, T))
        if key not in self._factors:
            self._factors[key] = ({}, {})
        return self._factors[key]

    def inverse_gamma_gaps(self, t: int, T: int) -> dict[str, float]:
        """The one-step gap (``_one_step_gap``) of each node of levels
        t..T-1, start by start, in DFS order (``tree.window_interior``);
        each node's is computed once. A node with no equivalent one-step
        measure is refused first (``centroid``)."""
        if not (0 <= t <= T <= self.tree.horizon):
            raise ValueError(f"bad window [{t}, {T}] for horizon {self.tree.horizon}")
        window = [m for start in self.tree.nodes_at(t) for m in self.tree.window_interior(start, T)]
        for m in window:
            self.centroid(m)
        for m in window:
            if m not in self._gaps:
                self._gaps[m] = _one_step_gap(self.tree, self.gamma, m)
        return {m: self._gaps[m] for m in window}

    def sweep(self, a_shift: Mapping[str, float], t: int, T: int) -> _Sweep:
        """The sweep to T for this a_shift at the time-T nodes, solved down
        to level t (``_Sweep.extend``)."""
        key = (T, self._shift_key(a_shift, T))
        if key not in self._sweeps:
            self._sweeps[key] = _Sweep(self, a_shift, T)
        self._sweeps[key].extend(t)
        return self._sweeps[key]


def _window_duals(duals, tree, gamma):
    """The given context, checked against (tree, gamma), or a fresh one."""
    if duals is None:
        return WindowDuals(tree, gamma)
    if duals.tree is not tree or duals.gamma != dict(gamma):
        raise ValueError("window duals were built for another tree or gamma")
    return duals


# -- primal --------------------------------------------------------------


def _replication_tol(k):
    """The replication residual's rounding bound at a node of k children,
    in units of u = 2^-53 and of M, the largest 1/gamma there. Each 1/gamma
    read is within 5u M of a replicable value (four roundings build a gamma,
    as the replicate mode's product, sum and reciprocal do, and one takes
    its reciprocal here), so each right-hand side is within 11u M of one;
    the residual map I - d d'/(d'd), of infinity norm at most 1 + sqrt(k),
    carries that to 11 (1 + sqrt(k)) u M. The dot products of length k and
    their quotient move the projection, at most sqrt(k) M, by (2k + 1) u,
    and the product coefficient * d_c rounds once more."""
    root = math.sqrt(k)
    return (11.0 * (1.0 + root) + (2 * k + 2) * root) * 2.0**-53


def replicate_inverse_gamma(tree: EventTree, gamma: Mapping[str, float]) -> ReplicationResult:
    """Per-node portfolio replicating 1/gamma increments, or the first
    inconsistent node.

    Solves psi * dS_c = 1/gamma_c - 1/gamma_node across children in least
    squares; a residual, in units of the largest 1/gamma over the node and
    its children, above its rounding bound is an infeasibility certificate.
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
        inv = np.array([1.0 / gamma[br.child] for br in branches])
        rhs = inv - 1.0 / gamma[nid]
        denom = float(d @ d)
        coeff = float(d @ rhs) / denom if denom > 0.0 else 0.0
        residual = float(np.max(np.abs(coeff * d - rhs))) / max(float(inv.max()), 1.0 / gamma[nid])
        worst = max(worst, residual)
        tol = _replication_tol(len(branches))
        if not residual <= tol:  # NaN too: an infinite 1/gamma gives inf - inf
            return ReplicationResult(feasible=False, psi=None, failed_node=nid, residual=residual, tolerance=tol)
        psi[nid] = coeff
    return ReplicationResult(feasible=True, psi=psi, failed_node=None, residual=worst)


def _exponential_factors(duals, field, t, T):
    """The factor recursion in log units, log C, plus the one-step base
    policy per node of the window [t, T], levels t..T (see the module
    docstring). log C(node) depends on T and not on t, so the nodes an
    earlier window to T solved are read from ``duals``."""
    tree = duals.tree
    log_c, policy = duals.factors(field.a_shift, T)
    for w in tree.nodes_at(T):
        log_c.setdefault(w, float(field.a_shift[w]))
    order = [n for s in range(T - 1, t - 1, -1) for n in tree.nodes_at(s)]
    for nid in order:
        if nid in log_c:
            continue
        branches = tree.branches_of(nid)
        log_weights = [math.log(br.prob) + log_c[br.child] for br in branches]
        slopes = [-field.gamma[br.child] * br.dprice for br in branches]
        try:
            policy[nid], log_c[nid] = minimize_exp_sum(log_weights, slopes)
        except ValueError as exc:
            raise ArbitrageError(f"node {nid!r}: {exc}") from exc
        except ConvergenceError as exc:
            raise ConvergenceError(f"factor recursion at node {nid!r} on [{t}, {T}]: {exc}") from exc
    return log_c, {n: policy[n] for n in order}


def _check_field_type(field):
    if not isinstance(field, ExponentialFieldParams):
        raise TypeError(f"field must be ExponentialFieldParams, got {type(field).__name__}")


def _utility(node, xi, exponent):
    """-exp(exponent), an exponential utility at wealth xi; a wealth at
    which it leaves the float range is refused."""
    try:
        return -math.exp(exponent)
    except OverflowError:
        raise WealthRangeError(f"xi={xi:g} at node {node!r}: the utility is outside the float range") from None


def _primal_values(gamma, log_factor, xi_by_node):
    return {n: _utility(n, x, -gamma[n] * x + log_factor[n]) for n, x in xi_by_node.items()}


def _require_window_data(tree, field, t, T):
    """The field type, the window [t, T] and the field's data at levels
    t..T, as ``primal_value`` refuses them."""
    _check_field_type(field)
    if not (0 <= t <= T <= tree.horizon):
        raise ValueError(f"bad window [{t}, {T}] for horizon {tree.horizon}")
    for s in range(t, T + 1):
        for nid in tree.nodes_at(s):
            if not field.defined_at(nid):
                raise KeyError(f"field has no data at node {nid!r}")


def primal_value(
    tree: EventTree,
    field: ExponentialFieldParams,
    xi,
    t: int = 0,
    T: int | None = None,
    duals: WindowDuals | None = None,
) -> PrimalResult:
    """Primal value field on [t, T] at wealth xi (scalar or per-node).

    The exact factor recursion, in log units, gives
    u(xi) = -exp(-gamma xi + log C). It needs a portfolio replicating the
    increments of 1/gamma at every node; a gamma without one is refused
    with ``ReplicationError`` before anything is solved, naming the first
    such node. The program depends on the window only, so
    ``PrimalResult.at`` reads it at any other wealth. A wealth at which u
    leaves the float range is refused with ``WealthRangeError``. A field
    with no data at levels t..T raises ``KeyError`` naming the first such
    node, by level, then in DFS order.
    ``duals`` shares the replication and the factor recursion with the
    other windows of a scenario.
    """
    if T is None:
        T = tree.horizon
    _require_window_data(tree, field, t, T)
    starts = tree.nodes_at(t)
    xi_by_node = _per_node(xi, starts, "xi")
    duals = _window_duals(duals, tree, field.gamma)
    _require_replication(duals.replication(), _PRIMAL)
    log_c, policy = _exponential_factors(duals, field, t, T)
    gamma = {n: field.gamma[n] for n in starts}
    log_factor = {n: log_c[n] for n in starts}
    return PrimalResult(
        t=t,
        T=T,
        values=_primal_values(gamma, log_factor, xi_by_node),
        xi=xi_by_node,
        log_factor=log_factor,
        policy=policy,
        replication=duals.replication().psi,
        gamma=gamma,
    )


# -- dual ----------------------------------------------------------------


def _one_step_objective(p, gam, ash):
    """The eta = 1 dual objective p h(q / (p gamma)) - q a / gamma per child
    (branch probability, gamma, shift) of a stack of one-step programs, as
    ``phi(rows)``: the objective of the programs ``rows`` (increasing
    indices), a map from their iterates q to (values, gradients, second
    derivatives)."""
    kappa = 1.0 / (p * gam)
    lin = ash / gam
    slope = 1.0 / gam

    def phi(rows):
        kappa_r, p_r, lin_r, slope_r, gam_r = (x if len(rows) == len(p) else x[rows] for x in (kappa, p, lin, slope, gam))

        def objective(q):
            # entropy_kernel(y) = y log y - y, extended by 0 at y = 0, with
            # the logarithm taken once for the value and the gradient
            y = kappa_r * q
            log_y = np.log(y)
            v = p_r * np.where(y > 0.0, y * log_y - y, 0.0) - lin_r * q
            g = slope_r * log_y - lin_r
            h = 1.0 / (gam_r * q)
            return v, g, h

        return objective

    return phi


class _Sweep:
    """The one-step dual programs before T for one a_shift at the time-T
    nodes, solved level by level from T - 1 down (``extend``). Per solved
    node: its minimiser ``q`` as (child, mass) pairs; the ``shift`` the
    eta = 1 value of [time(node), T] implies there, which its parent's
    program reads, and which is the forward drift at the minimiser (see
    the module docstring); m (sum_k q_k m_k, ``inverse_gamma_mean``); the
    largest sum of node bounds along a path below it (``kkt``) and the
    Newton iterations summed below it (``newton``). At time T, the shift is
    a_shift."""

    def __init__(self, duals, a_shift, T):
        self.duals, self.T, self.level = duals, T, T
        ends = duals.tree.nodes_at(T)
        self.shift = {w: float(a_shift[w]) for w in ends}
        self.inverse_gamma_mean = {w: 1.0 / duals.gamma[w] for w in ends}
        self.kkt, self.newton, self.q = dict.fromkeys(ends, 0.0), dict.fromkeys(ends, 0), {}

    def extend(self, t):
        """Solve the levels below the lowest solved one down to t. A level's
        programs that the scenario has not solved for their node and
        children's shifts (``WindowDuals``) are solved as one
        ``barrier_minimize`` stack per shape (children, and whether a price
        moves) and kept; then each node's sums are read from its program. A
        level with a failing program is refused with ConvergenceError,
        naming the first in tree order."""
        tree, programs = self.duals.tree, self.duals._programs
        for s in range(self.level - 1, t - 1, -1):
            level, groups, failed = tree.nodes_at(s), {}, []
            keys = {n: (n, _at_nodes(self.shift, tree.children(n)).tobytes()) for n in level}
            for n in level:
                branches = tree.branches_of(n)
                if keys[n] not in programs:
                    groups.setdefault((len(branches), any(br.dprice != 0.0 for br in branches)), []).append(n)
            for nodes in groups.values():
                programs.update(zip([keys[n] for n in nodes], self._solve(nodes)))
            for n in level:
                qn, shift, bound, iterations, failure = programs[keys[n]]
                pairs = [(br.child, x) for br, x in zip(tree.branches_of(n), qn)]
                m = sum(x * self.inverse_gamma_mean[k] for k, x in pairs)
                where = f"dual program below node {n!r} on [{s}, {self.T}]"
                if failure is not None and iterations:
                    failed.append(f"{where}: {failure}")
                elif failure is not None or not (math.isfinite(shift) and math.isfinite(m)):
                    # a failure at the start is an objective out of the float range
                    failed.append(f"{where} leaves the float range: shift {shift!r}, m {m!r}")
                self.q[n], self.shift[n], self.inverse_gamma_mean[n] = pairs, shift, m
                self.kkt[n] = bound + max(self.kkt[k] for k, _ in pairs)
                self.newton[n] = iterations + sum(self.newton[k] for k, _ in pairs)
            if failed:
                raise ConvergenceError(failed[0])
            self.level = s

    def _solve(self, nodes):
        """One stack from the nodes' vertex centroids, with rows [1; dprice];
        per program, its minimiser, implied shift, gap bound plus equality
        residual, iterations and failure. Each program runs in its node's
        own scale, at gammas gamma / g (g = gamma_node) and shifts a - top
        (top their largest): as sum_k q_k g / gamma_k = 1 on the feasible
        set, its value V' is g c + log g + top, c the node's, so the shift
        g (h(1/g) - c) is top - 1 - V', free of the scale of gamma and of a,
        and the program's own bound bounds it."""
        tree, gamma = self.duals.tree, self.duals.gamma
        data = [[(br.prob, gamma[br.child], self.shift[br.child], br.dprice) for br in tree.branches_of(n)] for n in nodes]
        p, gam, ash, dprice = np.array(data).transpose(2, 0, 1)
        g_node, top = _at_nodes(gamma, nodes), ash.max(axis=1)
        A = np.ones((len(nodes), 2, dprice.shape[1]))
        A[:, 1] = dprice
        b = np.zeros((len(nodes), 2))
        b[:, 0] = 1.0
        r0 = np.array([self.duals.centroid(n) for n in nodes])
        # the overflows on the way print no warning
        with np.errstate(over="ignore", invalid="ignore"):
            q, _, info = barrier_minimize(_one_step_objective(p, gam / g_node[:, None], ash - top[:, None]), A, b, r0)
            shift = top - 1.0 - info["value"]
        kkt = (info["gap_bound"] + info["eq_residual"]).tolist()
        return zip(q.tolist(), shift.tolist(), kkt, info["iterations"].tolist(), info["failure"])

    def leaf_masses(self, start):
        """The minimiser's mass on each time-T node below ``start``, in DFS
        order: the product of the one-step minimisers along its path."""
        out, stack = {}, [(start, 1.0)]
        while stack:
            n, mass = stack.pop()
            if n in self.q:
                stack.extend([(k, mass * x) for k, x in reversed(self.q[n])])
            else:
                out[n] = mass
        return out


def dual_value(
    tree: EventTree,
    field: ExponentialFieldParams,
    eta,
    t: int = 0,
    T: int | None = None,
    duals: WindowDuals | None = None,
) -> DualResult:
    """Dual value field on [t, T] at dual argument eta (scalar or per-node).

    The minimum over the window's martingale measures at eta = 1, per
    start, composed from the sweep to T (``WindowDuals.sweep``), read at
    eta by ``DualResult.at``. The minimiser is reported as its leaf masses,
    with a near-boundary flag rather than an interiority assumption. A
    refusal names the first failing one-step program, by its node and
    window [time(node), T], of the first level solved that has one. Without
    a portfolio replicating 1/gamma every eta is refused with
    ``ReplicationError`` before anything is solved. ``duals`` shares the
    sweeps with the other windows of a scenario.
    """
    _check_field_type(field)
    if T is None:
        T = tree.horizon
    if not (0 <= t <= T <= tree.horizon):
        raise ValueError(f"bad window [{t}, {T}] for horizon {tree.horizon}")
    starts = tree.nodes_at(t)
    duals = _window_duals(duals, tree, field.gamma)
    eta_by_node = _eta_by_node(eta, starts)
    _require_replication(duals.replication(), _DUAL_SPLIT)
    sweep = duals.sweep(field.a_shift, t, T)
    masses = {s: sweep.leaf_masses(s) for s in starts}
    shift, m, kkt, newton = (
        {s: x[s] for s in starts} for x in (sweep.shift, sweep.inverse_gamma_mean, sweep.kkt, sweep.newton)
    )
    g = _at_nodes(field.gamma, starts)
    # v(1) = h(1/g) - a/g = (h(1) - a - log g) / g: inf, never NaN, past the float range
    with np.errstate(over="ignore"):
        entropy = conjugate_exponential(1.0, _at_nodes(shift, starts) + np.log(g), 1.0) / g
    entropy = dict(zip(starts, entropy.tolist()))
    near = {s: min(x.values()) < 1e-7 for s, x in masses.items()}
    return DualResult(t, T, {}, dict.fromkeys(starts, 1.0), entropy, shift, m, masses, kkt, near, newton).at(eta_by_node)


# -- entropy -------------------------------------------------------------


def solve_entropy_shift(
    tree: EventTree,
    gamma: Mapping[str, float],
    terminal_a,
    duals: WindowDuals | None = None,
) -> dict[str, float]:
    """Backward construction of the additive shift from the entropy identity.

    Requires first that a portfolio replicates 1/gamma (the context's
    ``replication``: then every one-step martingale measure keeps the
    conditional mean of 1/gamma); else the construction is refused with a
    ``ValueError`` naming the node and the residual. Then sets, level by level,

        a[node] = top - 1 - V',

    V' the node's one-step program in its units and top its children's
    largest shift (``_Sweep._solve``): gamma (h(1/gamma) - min entropy to
    horizon). That is the sweep to the horizon (``WindowDuals.sweep``),
    whose implied shifts are consistent over every window by the
    dynamic-programming principle of the entropy minimum; it refuses a node
    with no equivalent one-step measure with ``ArbitrageError``. Through
    ``duals`` the checks of the scenario read that sweep too.
    """
    a_term = _per_node(terminal_a, tree.leaves(), "terminal_a")
    for nid in tree._dfs_order:
        if not (gamma[nid] > 0.0 and math.isfinite(1.0 / float(gamma[nid]))):
            raise ValueError(f"gamma must be positive, with 1/gamma finite, node {nid!r}")
    duals = _window_duals(duals, tree, gamma)
    rep = duals.replication()
    if not rep.feasible:
        raise ValueError(
            f"inverse-gamma conditional mean violated at node {rep.failed_node!r} "
            f"(replication residual {rep.residual:.3g})"
        )
    return dict(duals.sweep(a_term, 0, tree.horizon).shift)


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


def _unreplicated_record(tag, rep):
    """The failing record of a window whose dual program is not solved:
    no portfolio replicates 1/gamma, with the replication's residual at
    its failing node as the evidence."""
    return CheckRecord(
        tag, verdict=False, value=rep.residual, target=0.0, tolerance=rep.tolerance,
        worst_node=rep.failed_node, notes=(_UNREPLICATED,),
    )


def _overall_record(tag, records, tol):
    """The roll-up of per-window gap records: the first with the largest
    value, under ``tag`` and without details; a pass at 0 with no windows."""
    if not records:
        return CheckRecord(tag, verdict=True, value=0.0, target=0.0, tolerance=tol)
    r = max(records, key=lambda r: r.value)
    return CheckRecord(tag, r.verdict, r.value, r.target, r.tolerance, r.std_error, r.worst_node, r.notes)


def check_self_generation_primal(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Per (t, T): does the primal value reproduce the slice.

    u(xi) = -exp(-gamma xi + log C) reproduces U(xi) = -exp(-gamma xi + a)
    at every wealth iff log C = a, so the gap at a start is |log C - a| in
    shift units, read from the factor recursion (``_exponential_factors``)
    with no utility evaluated. A window is refused as ``primal_value``
    refuses it: a field that is not exponential, a window outside the
    tree, a node of levels t..T without field data, or a gamma that no
    portfolio replicates (``ReplicationError``). ``duals`` shares the
    factor recursion to each T with the other checks.
    """
    duals = _window_duals(duals, tree, field.gamma)
    windows = []
    for (t, T) in time_pairs:
        _require_window_data(tree, field, t, T)
        _require_replication(duals.replication(), _PRIMAL)
        log_c, _ = _exponential_factors(duals, field, t, T)
        gaps = {n: abs(log_c[n] - field.a_shift[n]) for n in tree.nodes_at(t)}
        windows.append(_gap_record(f"primal-self-generation[t={t},T={T}]", gaps, tol))
    return VerificationReport(windows + [_overall_record("primal-self-generation", windows, tol)])


def check_self_generation_dual(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Per (t, T): does the dual value reproduce the dual slice.

    The gap at a start is |a_implied - a|, a_implied the shift the
    window's eta = 1 dual value implies (``DualResult.shift``): v(eta) is
    read from eta = 1 in closed form, so every eta implies it, and a root
    perturbation of the field shows up at exactly its own size. Without
    replication of 1/gamma every record fails with the replication
    certificate, and nothing is solved. A record carries the read's certificate, max over
    starts of |m - 1/gamma|, and per start the window's Newton iterations,
    KKT residual and near-boundary flag. ``duals`` shares the sweeps
    with the other checks of a scenario.
    """
    duals = _window_duals(duals, tree, field.gamma)
    rep = duals.replication()
    windows = []
    for (t, T) in time_pairs:
        tag = f"dual-self-generation[t={t},T={T}]"
        if not rep.feasible:
            windows.append(_unreplicated_record(tag, rep))
            continue
        unit = dual_value(tree, field, 1.0, t, T, duals=duals)
        m = unit.inverse_gamma_mean
        windows.append(
            _gap_record(
                tag,
                {n: abs(unit.shift[n] - field.a_shift[n]) for n in tree.nodes_at(t)},
                tol,
                details={
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
    values of order one, relative for larger ones (Higham 2002)."""
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

    No scenario runs this check. Its two sides are two computations of one
    value, so it diagnoses agreement between the primal and dual solvers,
    not the field: no field fails it. The tests hold the same agreement on
    every window of a random corpus in shift units. It stays importable
    here while the scenario benchmark's tracer resolves it by name, and
    belongs with the test oracles (``tests/oracles.py``) once that tracer
    target is gone.

    Per start node, both directions between the window's eta = 1 dual
    program, read as v(eta) = eta v(1) + eta log(eta) m (``DualResult.at``),
    and the primal u(xi) = -exp(-gamma xi + log C) of the factor recursion
    (``PrimalResult.at``):

    - primal from dual: u(xi) against inf over eta > 0 of (v(eta) + xi eta),
      which for that read is -m eta_hat at eta_hat = e^E,
      E = -(v(1) + xi) / m - 1, in closed form. The record carries eta_hat
      at the first grid wealth and the solver evidence of the
      dual-self-generation records.
    - dual from primal: v(eta) on the eta grid against max over xi of
      (u(xi) - xi eta), which for u(xi) = -exp(-gamma xi + log_factor) is
      ``conjugate_exponential(gamma, log_factor, eta)`` in closed form.

    Each gap is scaled by max(1, |target|), the target being u(xi) on one
    side and the closed-form conjugate on the other, since both sides
    carry the relative rounding error of v(1) and |u| grows with e^a; each
    record's value is its worst scaled gap. The primal is solved at the
    grid's first wealth, and refused there with ``WealthRangeError`` if its
    u leaves the float range; at every wealth, one at which eta_hat or the
    dual's u leaves it is refused before the primal is read there, and so
    is an eta at which the dual gap is not finite. ``duals`` shares the
    dual value and the factor recursion with the other checks of a
    scenario. A gamma whose reciprocal no portfolio replicates is refused
    before anything is solved.
    """
    xi_grid = [float(x) for x in xi_grid]
    eta_grid = sorted(float(e) for e in eta_grid)
    if not xi_grid or not eta_grid:
        raise ValueError("conjugacy check needs nonempty grids")
    if any(e <= 0.0 for e in eta_grid):
        raise ValueError("eta grid entries must be positive")
    starts = tree.nodes_at(t)

    duals = _window_duals(duals, tree, field.gamma)
    base = primal_value(tree, field, xi_grid[0], t, T, duals=duals)
    unit = dual_value(tree, field, 1.0, t, T, duals=duals)
    conjugates = [[_conjugate_read(unit, n, x) for n in starts] for x in xi_grid]
    primals = np.array([_at_nodes(base.at(x).values, starts) for x in xi_grid])
    # per (wealth, start) and per (eta, start); each start's worst over its grid
    primal_gaps = _scaled_gap(np.array([[u for u, _ in row] for row in conjugates]), primals)
    eta = np.array(eta_grid)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        dual_gaps = _scaled_gap(
            _dual_read(unit, starts, eta),
            conjugate_exponential(_at_nodes(field.gamma, starts), _at_nodes(base.log_factor, starts), eta),
        )
    _require_finite(eta, starts, dual_gaps)
    return VerificationReport(
        [
            _gap_record(
                f"conjugacy-primal-from-dual[t={t},T={T}]",
                dict(zip(starts, primal_gaps.max(axis=0).tolist())),
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
                dict(zip(starts, dual_gaps.max(axis=0).tolist())),
                tol,
            ),
        ]
    )


def _one_step_gap(tree, gamma, nid):
    """gamma_n max(hi - 1/gamma_n, 1/gamma_n - lo) at node n, with hi and lo
    the largest and smallest sum_c v_c / gamma_c over the vertices v of its
    one-step polytope: the largest move of the conditional mean of 1/gamma
    over one step, in units of 1/gamma_n."""
    kids, rows = node_polytope(tree, nid).charged
    inv = [1.0 / gamma[c] for c in kids]
    means = [sum(v * x for v, x in zip(vert, inv)) for vert in rows]
    inv_n = 1.0 / gamma[nid]
    return gamma[nid] * max(max(means) - inv_n, inv_n - min(means))


def check_exponential_conditions(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """The two conditions of the characterization that a validated field
    can fail (see the module docstring), per time pair: preservation of
    the conditional mean of 1/gamma by every martingale measure, and the
    entropy identity entropy_kernel(1/gamma) - a/gamma = min entropy.

    The condition on 1/gamma holds one step at a time (see the module
    docstring): a window's record is the largest one-step gap, in units of
    the node's 1/gamma, over its nodes of levels t..T-1, start by start in
    DFS order (``WindowDuals.inverse_gamma_gaps``). A window with a node
    there that has no equivalent one-step measure is refused first, with
    ``ArbitrageError``. A window of no step passes at 0.

    The entropy identity is one record, the first window with the largest
    gap; its gap at a start is |a_implied - a|, a_implied the shift of the
    window's eta = 1 dual value, read from the sweep to T. Per window that
    is the ``dual-self-generation`` gap. Without replication of 1/gamma it
    fails with the replication certificate, and nothing is solved. The
    one-step gaps and the sweeps are read from ``duals`` when given.
    """
    _check_field_type(field)
    duals = _window_duals(duals, tree, field.gamma)
    a_shift, rep, tag = field.a_shift, duals.replication(), "exp-condition-entropy-identity"
    inverse_gamma, entropy = [], []
    for (t, T) in time_pairs:
        gaps = duals.inverse_gamma_gaps(t, T) or dict.fromkeys(tree.nodes_at(t), 0.0)
        inverse_gamma.append(_gap_record(f"exp-condition-inverse-gamma-martingale[t={t},T={T}]", gaps, tol))
        if not rep.feasible:
            entropy.append(_unreplicated_record(tag, rep))
            continue
        shift = duals.sweep(a_shift, t, T).shift
        entropy.append(_gap_record(tag, {n: abs(shift[n] - a_shift[n]) for n in tree.nodes_at(t)}, tol))
    return VerificationReport(
        inverse_gamma
        + [_overall_record("exp-condition-inverse-gamma-martingale", inverse_gamma, tol), _overall_record(tag, entropy, tol)]
    )


def check_forward_supermartingale(
    tree: EventTree,
    field: ExponentialFieldParams,
    time_pairs,
    tol: float = 1e-6,
    duals: WindowDuals | None = None,
) -> VerificationReport:
    """Forward-measure drift of the shifted log density, per (t, T).

    For every martingale measure Q of the window, with Q_g its reweighting
    by gamma_start/gamma_T, the process a - log Z^{Q_g} must not drift up
    between any window node and the terminal time; the entropy-minimizing
    measure must achieve equality. Q_g is a probability for every Q only
    when 1/gamma keeps its conditional mean under every martingale measure.
    So, before anything is computed, a field that is not an
    ``ExponentialFieldParams`` is refused with ``TypeError``, a window that
    is not 0 <= t < T <= horizon with ``ValueError``, and a gamma that no
    portfolio replicates with ``ReplicationError``, as the dual value
    refuses it.

    Both records run node by node, without listing the measures. With
    1/gamma replicable the reweighting is per edge, q~_c = gamma_n q_c /
    gamma_c, and the drift to T is the step D(n) = sum_c q~_c (D(c) -
    log(q~_c / p_c)) from D = a at time T. Its worst case over every
    martingale measure is log C(n), the factor recursion (see the module
    docstring), so the worst drift at m is log C(m) - a_m, read from
    ``_exponential_factors``, whose table the primal check shares through
    ``duals``. At the entropy minimiser the drift is the sweep's implied
    shift at every node (see the module docstring), so the equality's gap
    at m is |shift(m) - a_m|, the entropy-identity gap of [time(m), T] at
    m, read from the sweep to T. The sweep runs first: it refuses a node
    of levels t..T-1 with no equivalent one-step measure
    (``ArbitrageError``) by name, before the factor recursion, whose
    duality needs one, is read.

    Each window's gap is the largest over its nodes, start by start, in
    DFS order (``tree.window_interior``). The drift's sign is its own
    record per window (``forward-supermartingale[t,T]``); the equality,
    whose gaps are entropy-identity gaps, is one roll-up
    (``forward-martingale-at-optimum``): the first window with the
    largest gap.
    """
    _check_field_type(field)
    for (t, T) in time_pairs:
        if not (0 <= t < T <= tree.horizon):
            raise ValueError(f"need a nondegenerate window, got [{t}, {T}]")
    duals = _window_duals(duals, tree, field.gamma)
    _require_replication(duals.replication(), _FORWARD)
    a_shift, tag, drifts, equalities = field.a_shift, "forward-martingale-at-optimum", [], []
    for (t, T) in time_pairs:
        shift = duals.sweep(a_shift, t, T).shift
        log_c, _ = _exponential_factors(duals, field, t, T)
        # the starts' subtrees are disjoint, so each record keys its gaps by node
        window = [m for start in tree.nodes_at(t) for m in tree.window_interior(start, T)]
        drifts.append(
            _gap_record(
                f"forward-supermartingale[t={t},T={T}]",
                {m: log_c[m] - a_shift[m] for m in window},
                tol,
                notes=("positive drift of the shifted log density violates the bound",),
            )
        )
        equalities.append(_gap_record(tag, {m: abs(shift[m] - a_shift[m]) for m in window}, tol))
    return VerificationReport(drifts + [_overall_record(tag, equalities, tol)])
