"""Finite event-tree markets.

An event tree is a finite filtered probability space: nodes are information
sets, edges carry the reference conditional probability and the price
increment of the single risky asset (numeraire already applied). Time is
the node depth; all leaves sit at the horizon.

One-step martingale measures at a node form the polytope

    {q >= 0, sum_c q_c = 1, sum_c q_c * dS_c = 0},

described exactly by its vertices: basic feasible solutions have support of
size <= 2, so closed-form enumeration over singletons and pairs replaces an
LP and is exact. Absolutely continuous martingale measures over a window
are compositions of one-step choices, and may put mass zero on whole
subtrees.

The set of those compositions is rectangular: each node picks its one-step
measure independently of every other node (Epstein & Schneider,
"Recursive multiple-priors", JET 2003), with its vertices restricted to
the children that admit a measure to the window's end T
(``_window_vertices``). So no check ranges over whole compositions: the
inverse-gamma records read each node's one-step vertices, one step at a
time (``tree_verifier``). Listing the products themselves
(``enumerate_product_measures``) grows exponentially with depth. No check
uses it: it stays, outside the package namespace, for the brute-force
oracles of the tests and for perfbench's trace.

No check builds a measure on the whole tree either: the forward records
read the worst drift from the primal's factor recursion and the drift at
the entropy minimiser from the sweep of one-step dual programs.
``TreeMeasure``, ``density_process`` and ``measure_from_leaf_masses``
serve only the tests' oracles and perfbench's trace.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArbitrageError, ScenarioError, TreeStructureError
from .report import CheckRecord, VerificationReport

_VERTEX_TOL = 1e-12
_PROB_SUM_TOL = 1e-9  # |sum of branch probabilities - 1| that validate_tree allows
_MASS_TOL = 1e-15  # window nodes at or below this mass keep reference conditionals
_MEASURE_TOL = 1e-9  # negative entries and |sum - 1| that TreeMeasure.validate allows


@dataclass(frozen=True)
class Branch:
    child: str
    prob: float
    dprice: float


@dataclass(frozen=True)
class TreeNode:
    id: str
    time: int
    branches: tuple[Branch, ...]


class EventTree:
    """Immutable rooted tree with per-edge probabilities and price increments.

    Structural problems (duplicate ids, broken linkage, wrong times, leaves
    off the horizon) raise TreeStructureError at construction; numeric
    policy (probabilities positive and summing to one, finite increments)
    is refused by validate_tree, which ``from_dict`` calls by default.
    """

    def __init__(self, horizon: int, nodes: Iterable[TreeNode]):
        self.horizon = int(horizon)
        self.nodes: dict[str, TreeNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise TreeStructureError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        if not self.nodes:
            raise TreeStructureError("empty tree")
        if self.horizon < 0:
            raise TreeStructureError("horizon must be nonnegative")

        self.parent: dict[str, str] = {}
        for node in self.nodes.values():
            for br in node.branches:
                if br.child not in self.nodes:
                    raise TreeStructureError(
                        f"node {node.id!r} references unknown child {br.child!r}"
                    )
                if br.child in self.parent:
                    raise TreeStructureError(f"node {br.child!r} has two parents")
                self.parent[br.child] = node.id

        roots = [n for n in self.nodes if n not in self.parent]
        if len(roots) != 1:
            raise TreeStructureError(f"expected a unique root, found {roots!r}")
        self.root = roots[0]

        # reachability doubles as the cycle check: parent linkage is
        # single-valued, so unreachable nodes mean detached cycles
        order = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            for br in reversed(self.nodes[nid].branches):
                stack.append(br.child)
        if len(order) != len(self.nodes):
            missing = set(self.nodes) - set(order)
            raise TreeStructureError(f"nodes not reachable from root: {sorted(missing)!r}")
        self._dfs_order = tuple(order)

        for nid in self.nodes:
            t_expect = 0 if nid == self.root else self.nodes[self.parent[nid]].time + 1
            if self.nodes[nid].time != t_expect:
                raise TreeStructureError(
                    f"node {nid!r} has time {self.nodes[nid].time}, expected {t_expect}"
                )
        for nid, node in self.nodes.items():
            if not node.branches and node.time != self.horizon:
                raise TreeStructureError(f"leaf {nid!r} at time {node.time} != horizon")
            if node.branches and node.time >= self.horizon:
                raise TreeStructureError(f"node {nid!r} at the horizon has children")
        levels: list[list[str]] = [[] for _ in range(self.horizon + 1)]
        for nid in order:
            levels[self.nodes[nid].time].append(nid)
        self._levels = tuple(tuple(level) for level in levels)

        self._path_cache: dict[str, tuple[str, ...]] = {}
        self._polytopes = {}  # node_polytope's, by (node, allowed children)

    # -- basic queries ---------------------------------------------------

    def is_leaf(self, nid: str) -> bool:
        return not self.nodes[nid].branches

    def time_of(self, nid: str) -> int:
        return self.nodes[nid].time

    def branches_of(self, nid: str) -> tuple[Branch, ...]:
        return self.nodes[nid].branches

    def children(self, nid: str) -> tuple[str, ...]:
        return tuple(br.child for br in self.nodes[nid].branches)

    def nodes_at(self, t: int) -> tuple[str, ...]:
        """Nodes at time t, in canonical DFS order; () outside 0..horizon."""
        return self._levels[t] if 0 <= t <= self.horizon else ()

    def leaves(self) -> tuple[str, ...]:
        return self.nodes_at(self.horizon)

    def path_from_root(self, nid: str) -> tuple[str, ...]:
        cached = self._path_cache.get(nid)
        if cached is not None:
            return cached
        path = [nid]
        cur = nid
        while cur != self.root:
            cur = self.parent[cur]
            path.append(cur)
        out = tuple(reversed(path))
        self._path_cache[nid] = out
        return out

    def descendants_at(self, nid: str, t: int) -> tuple[str, ...]:
        """Descendants of nid at time t, in canonical DFS order."""
        if self.nodes[nid].time > t:
            raise ValueError(f"node {nid!r} is later than time {t}")
        out = []
        stack = [nid]
        while stack:
            cur = stack.pop()
            if self.nodes[cur].time == t:
                out.append(cur)
                continue
            for br in reversed(self.nodes[cur].branches):
                stack.append(br.child)
        return tuple(out)

    def window_interior(self, nid: str, T: int) -> tuple[str, ...]:
        """Nodes strictly inside [time(nid), T) below nid, DFS order, nid first."""
        out = []
        stack = [nid]
        while stack:
            cur = stack.pop()
            if self.nodes[cur].time >= T:
                continue
            out.append(cur)
            for br in reversed(self.nodes[cur].branches):
                stack.append(br.child)
        return tuple(out)

    def branch_to(self, child: str) -> Branch:
        par = self.parent[child]
        for br in self.nodes[par].branches:
            if br.child == child:
                return br
        raise TreeStructureError(f"linkage broken at {child!r}")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "nodes": [
                {
                    "id": node.id,
                    "time": node.time,
                    "branches": [
                        {"child": br.child, "prob": br.prob, "dprice": br.dprice}
                        for br in node.branches
                    ],
                }
                for node in (self.nodes[n] for n in self._dfs_order)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping, validate: bool = True) -> "EventTree":
        if not isinstance(data, Mapping):
            raise ScenarioError("tree document must be an object")
        unknown = set(data) - {"horizon", "nodes"}
        if unknown:
            raise ScenarioError(f"unknown tree keys: {sorted(unknown)}")
        if "horizon" not in data or "nodes" not in data:
            raise ScenarioError("tree document needs 'horizon' and 'nodes'")
        nodes = []
        for i, rec in enumerate(_typed(data["nodes"], "nodes", list)):
            _typed(rec, f"nodes[{i}]", Mapping)
            bad = set(rec) - {"id", "time", "branches"}
            if bad:
                raise ScenarioError(f"nodes[{i}]: unknown keys {sorted(bad)}")
            try:
                nid = rec["id"]
                t = rec["time"]
            except KeyError as exc:
                raise ScenarioError(f"nodes[{i}]: missing {exc}")
            _typed(nid, f"nodes[{i}].id", str)
            _typed(t, f"nodes[{i}].time", int)
            branches = []
            raw = _typed(rec.get("branches", []), f"nodes[{i}].branches", list)
            for j, brec in enumerate(raw):
                path = f"nodes[{i}].branches[{j}]"
                bad = set(_typed(brec, path, Mapping)) - {"child", "prob", "dprice"}
                if bad:
                    raise ScenarioError(f"{path}: unknown keys {sorted(bad)}")
                try:
                    child, prob, dprice = brec["child"], brec["prob"], brec["dprice"]
                except KeyError as exc:
                    raise ScenarioError(f"{path}: {exc}")
                _typed(child, f"{path}.child", str)
                prob = json_float(prob, f"{path}.prob")
                dprice = json_float(dprice, f"{path}.dprice")
                branches.append(Branch(child=child, prob=prob, dprice=dprice))
            nodes.append(TreeNode(id=nid, time=t, branches=tuple(branches)))
        tree = cls(horizon=_typed(data["horizon"], "horizon", int), nodes=nodes)
        if validate:
            validate_tree(tree)
        return tree

    @classmethod
    def from_json(cls, path, validate: bool = True) -> "EventTree":
        """``from_dict`` on a JSON file; each refusal of the document
        begins with the file's path."""

        def _reject_const(token):
            raise ScenarioError(f"{path}: non-finite number {token!r} in tree file")

        with open(path) as fh:
            try:
                data = json.load(fh, parse_constant=_reject_const)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
            except ValueError as exc:  # an integer longer than Python's int-string conversion limit
                raise ScenarioError(f"{path}: {exc}") from None
        try:
            return cls.from_dict(data, validate=validate)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from None


def _typed(value, path, kind):
    """``value`` when an instance of ``kind`` but not a bool; a tree
    document's field of another type is refused with its path."""
    if isinstance(value, bool) or not isinstance(value, kind):
        names = {list: "a list", Mapping: "an object", int: "an integer", str: "a string"}
        raise ScenarioError(
            f"{path}: expected {names.get(kind, 'a number')}, got {type(value).__name__}"
        )
    return value


def json_float(value, path):
    """A document's JSON number as a float, refused with its path when
    of another type or too large."""
    try:
        return float(_typed(value, path, (int, float)))
    except OverflowError:
        raise ScenarioError(f"{path}: too large for a float") from None


def validate_tree(tree: EventTree) -> None:
    """Refuse a tree whose numbers the model cannot take: branch
    probabilities strictly positive and summing to one within
    ``_PROB_SUM_TOL``, and finite price increments. Structure is already
    enforced at construction.

    Raises TreeStructureError naming each family of fault the tree has,
    in the order of their names, with its first node in DFS order.
    """
    faults = {}
    for nid in tree._dfs_order:
        branches = tree.nodes[nid].branches
        if not branches:
            continue
        total = sum(br.prob for br in branches)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            faults.setdefault("tree-branch-prob-sums", f"node {nid}: probabilities sum to {total:.6g}")
        if not all(0.0 < br.prob < math.inf for br in branches):
            faults.setdefault(
                "tree-branch-prob-positive", f"node {nid}: nonpositive or nonfinite branch probability"
            )
        if not all(math.isfinite(br.dprice) for br in branches):
            faults.setdefault("tree-price-increments-finite", f"node {nid}: nonfinite price increment")
    if faults:
        msgs = "; ".join(f"{family}: {faults[family]}" for family in sorted(faults))
        raise TreeStructureError(f"tree fails validation: {msgs}")


# -- one-step polytopes -------------------------------------------------


def one_step_vertices(dprices) -> np.ndarray:
    """Vertices of {q >= 0, sum q = 1, sum q*d = 0} as an (n_vertices, m) array.

    Basic feasible solutions have support <= 2 (two equality constraints):
    singletons need d = 0, pairs need increments of opposite sign. Exact
    closed forms on Python floats, deterministic order (singletons by
    index, then pairs lexicographically), duplicates dropped.
    """
    d = [float(x) for x in dprices]
    m = len(d)
    verts = []

    def _push(v):
        if not any(all(abs(x - y) <= _VERTEX_TOL for x, y in zip(seen, v)) for seen in verts):
            verts.append(v)

    for j in range(m):
        if d[j] == 0.0:
            v = [0.0] * m
            v[j] = 1.0
            _push(v)
    for i in range(m):
        for j in range(i + 1, m):
            den = d[j] - d[i]
            if den == 0.0:
                continue
            qi = d[j] / den
            qj = -d[i] / den
            if qi < 0.0 or qj < 0.0:
                continue
            v = [0.0] * m
            v[i] = qi
            v[j] = qj
            _push(v)
    return np.array(verts) if verts else np.empty((0, m))


@dataclass(frozen=True)
class NodePolytope:
    """One node's one-step martingale measures: constraints and vertices."""

    node: str
    children: tuple[str, ...]
    dprices: tuple[float, ...]
    vertices: np.ndarray  # (n_vertices, n_children), zero off the allowed children

    @property
    def empty(self) -> bool:
        return self.vertices.shape[0] == 0

    def centroid(self) -> np.ndarray:
        if self.empty:
            raise ArbitrageError(f"node {self.node!r}: empty one-step polytope")
        return self.vertices.mean(axis=0)

    def has_equivalent_point(self) -> bool:
        """True iff some strictly positive measure exists (then the centroid is one)."""
        return not self.empty and len(self.charged[0]) == len(self.children)

    @cached_property
    def charged(self):
        """``(kids, rows)``: the children some vertex gives mass above the
        vertex tolerance, and the vertices' masses on them, zero at or below it."""
        rows = self.vertices.tolist()
        cols = [j for j in range(len(self.children)) if max(v[j] for v in rows) > _VERTEX_TOL]
        return (
            tuple(self.children[j] for j in cols),
            tuple(tuple(v[j] if v[j] > _VERTEX_TOL else 0.0 for j in cols) for v in rows),
        )


def node_polytope(tree: EventTree, nid: str, allowed=None) -> NodePolytope:
    """The polytope with mass on the ``allowed`` children only (default
    all), built once per tree and set of allowed children."""
    branches = tree.branches_of(nid)
    on = [allowed is None or br.child in allowed for br in branches]
    key = (nid, tuple(on))
    if key not in tree._polytopes:
        sub = one_step_vertices([br.dprice for br, x in zip(branches, on) if x])
        verts = np.zeros((sub.shape[0], len(branches)))
        verts[:, on] = sub
        d = tuple(br.dprice for br in branches)
        tree._polytopes[key] = NodePolytope(nid, tree.children(nid), d, verts)
    return tree._polytopes[key]


def check_nflvr(tree: EventTree) -> tuple[bool, VerificationReport]:
    """Existence of an equivalent one-step martingale measure at every node.

    Equivalent to no free lunch with vanishing risk on finite trees. A node
    passes iff its vertex set is nonempty and every child carries positive
    mass at some vertex; the vertex centroid is then strictly positive.
    """
    failing = {}
    for nid in tree._dfs_order:
        if tree.is_leaf(nid):
            continue
        poly = node_polytope(tree, nid)
        if poly.empty:
            failing[nid] = "no one-step martingale measure (arbitrage)"
        elif not poly.has_equivalent_point():
            starved = [c for c in poly.children if c not in poly.charged[0]]
            failing[nid] = f"no equivalent measure: children {starved} get zero mass"
    ok = not failing
    report = VerificationReport(
        [
            CheckRecord(
                check_tag="nflvr",
                verdict=ok,
                worst_node=next(iter(failing), None),
                notes=tuple(f"node {n}: {reason}" for n, reason in failing.items()),
                details={"failing_nodes": dict(failing)},
            )
        ]
    )
    return ok, report


# -- measures and densities ---------------------------------------------


@dataclass(frozen=True)
class TreeMeasure:
    """One-step conditional probabilities per node, aligned with branch order."""

    cond: Mapping[str, tuple[float, ...]]

    def at(self, nid: str) -> tuple[float, ...]:
        return self.cond[nid]

    def edge_prob(self, tree: EventTree, child: str) -> float:
        par = tree.parent[child]
        idx = tree.children(par).index(child)
        return self.cond[par][idx]

    def node_mass(self, tree: EventTree, nid: str, start: str | None = None) -> float:
        """Measure of the node given its ancestor ``start`` (root default)."""
        path = tree.path_from_root(nid)
        if start is None:
            start = tree.root
        mass = 1.0
        for child in path[path.index(start) + 1 :]:
            mass *= self.edge_prob(tree, child)
        return mass

    def validate(self, tree: EventTree, nodes: Iterable[str] | None = None):
        """Raise ValueError unless normalized nonnegative on the given nodes."""
        check = nodes if nodes is not None else [n for n in tree._dfs_order if not tree.is_leaf(n)]
        for nid in check:
            if nid not in self.cond:
                raise ValueError(f"measure missing conditionals at node {nid!r}")
            qs = self.cond[nid]
            if len(qs) != len(tree.branches_of(nid)):
                raise ValueError(f"measure at node {nid!r} has wrong arity")
            if any(q < -_MEASURE_TOL for q in qs):
                raise ValueError(f"measure at node {nid!r} has negative entries")
            if abs(sum(qs) - 1.0) > _MEASURE_TOL:
                raise ValueError(f"measure at node {nid!r} sums to {sum(qs):.6g}")


def reference_measure(tree: EventTree) -> TreeMeasure:
    """P itself as a TreeMeasure."""
    return TreeMeasure(
        cond={
            nid: tuple(br.prob for br in tree.branches_of(nid))
            for nid in tree._dfs_order
            if not tree.is_leaf(nid)
        }
    )


@dataclass(frozen=True)
class DensityPath:
    """The density process of a measure against P: z per node, z(root) = 1."""

    z: Mapping[str, float]

    def at(self, nid: str) -> float:
        return self.z[nid]


def density_process(tree: EventTree, q: TreeMeasure) -> DensityPath:
    """z(node) = product over the path of q_edge / p_edge. Absorbing at zero."""
    q.validate(tree)
    z: dict[str, float] = {tree.root: 1.0}
    for nid in tree._dfs_order:
        if tree.is_leaf(nid):
            continue
        zn = z[nid]
        for idx, br in enumerate(tree.branches_of(nid)):
            z[br.child] = zn * (q.cond[nid][idx] / br.prob)
    return DensityPath(z=z)


# -- feasibility and extreme measures -----------------------------------


def _window_vertices(tree: EventTree, T: int) -> dict[str, tuple]:
    """The vertex table of the windows ending at T, built deepest level first.

    Maps each node before T that some measure on [time(node), T] gives full
    mass (a feasible node) to ``(kids, rows)``: its one-step vertices
    restricted to feasible children, as tuples aligned with ``kids``, the
    children some vertex gives mass above the vertex tolerance, with masses
    at or below it set to zero. Time-T nodes are feasible.
    """
    table: dict[str, tuple] = {}
    for s in range(T - 1, -1, -1):
        for nid in tree.nodes_at(s):
            poly = node_polytope(tree, nid, {c for c in tree.children(nid) if s + 1 == T or c in table})
            if not poly.empty:
                table[nid] = poly.charged
    return table


def enumerate_product_measures(
    tree: EventTree, t: int = 0, T: int | None = None, max_count: int = 200000
) -> list[TreeMeasure]:
    """All products of one-step vertices on [t, T]: the extreme candidates.

    A brute-force and diagnostic tool: the count grows exponentially with
    the window depth and is refused above ``max_count``. The checks do not
    use it.

    Nodes that a choice leaves with zero mass get reference conditionals
    (any choice there leaves the induced measure unchanged). Restricted to
    feasible children so every returned measure genuinely composes to a
    martingale measure.
    """
    if T is None:
        T = tree.horizon
    if not (0 <= t <= T <= tree.horizon):
        raise ValueError(f"bad window [{t}, {T}]")
    feasible = _window_vertices(tree, T)  # its keys: the feasible nodes before T
    pref = reference_measure(tree)

    def expand(nid: str) -> list[dict[str, tuple[float, ...]]]:
        if tree.time_of(nid) >= T:
            return [{}]
        if nid not in feasible:
            raise ArbitrageError(f"no martingale measure below node {nid!r}")
        children = tree.children(nid)
        allowed = {c for c in children if c in feasible or tree.time_of(c) == T}
        verts = node_polytope(tree, nid, allowed).vertices
        out: list[dict[str, tuple[float, ...]]] = []
        for v in verts:
            partials: list[dict[str, tuple[float, ...]]] = [{nid: tuple(float(x) for x in v)}]
            for j, child in enumerate(children):
                if v[j] <= _VERTEX_TOL:
                    continue
                child_choices = expand(child)
                partials = [
                    {**p, **c} for p in partials for c in child_choices
                ]
                if len(partials) > max_count:
                    raise ValueError("enumerate_product_measures: too many vertices")
            out.extend(partials)
            if len(out) > max_count:
                raise ValueError("enumerate_product_measures: too many vertices")
        return out

    measures: list[TreeMeasure] = []
    start_nodes = tree.nodes_at(t)
    assignments: list[dict[str, tuple[float, ...]]] = [{}]
    for start in start_nodes:
        choices = expand(start)
        assignments = [{**a, **c} for a in assignments for c in choices]
        if len(assignments) > max_count:
            raise ValueError("enumerate_product_measures: too many vertices")
    for assign in assignments:
        cond = dict(assign)
        for nid in tree._dfs_order:
            if tree.is_leaf(nid) or nid in cond:
                continue
            cond[nid] = pref.cond[nid]
        measures.append(TreeMeasure(cond=cond))
    return measures


def measure_from_leaf_masses(
    tree: EventTree,
    start: str,
    T: int,
    masses: Mapping[str, float],
) -> TreeMeasure:
    """Rebuild one-step conditionals on [time(start), T] from terminal masses.

    ``masses`` maps each time-T descendant of ``start`` to its conditional
    measure given ``start``. Nodes with (numerically) zero mass get
    reference conditionals; everything outside the window also falls back
    to the reference measure so the result is a complete TreeMeasure.
    """
    pref = reference_measure(tree)
    node_mass: dict[str, float] = {}
    for target in tree.descendants_at(start, T):
        m = float(masses[target])
        path = tree.path_from_root(target)
        for nid in path[path.index(start) :]:
            node_mass[nid] = node_mass.get(nid, 0.0) + m
    cond = dict(pref.cond)
    for nid in tree.window_interior(start, T):
        total = node_mass.get(nid, 0.0)
        if total <= _MASS_TOL:
            continue
        qs = []
        for child in tree.children(nid):
            qs.append(node_mass.get(child, 0.0) / total)
        cond[nid] = tuple(qs)
    return TreeMeasure(cond=cond)
