"""Deterministic tree and field builders shared across the test modules.

The random generator is seeded numpy only; every tree it emits has both-sign
price increments at every node (so an equivalent one-step martingale measure
always exists) and a risk aversion whose reciprocal is replicable by a
per-node portfolio (so entropy shifts are solvable without further checks).
"""

import math

import numpy as np

from forwardperf.fields import ExponentialFieldParams
from forwardperf.tree_market import EventTree
from forwardperf.tree_verifier import WindowDuals, solve_entropy_shift


def binomial_tree(p_up=0.8, d=(1.0, -1.0)):
    return EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "branches": [
                        {"child": "u", "prob": p_up, "dprice": d[0]},
                        {"child": "d", "prob": 1.0 - p_up, "dprice": d[1]},
                    ],
                },
                {"id": "u", "time": 1, "branches": []},
                {"id": "d", "time": 1, "branches": []},
            ],
        }
    )


def trinomial_tree(probs=(0.5, 0.3, 0.2), d=(1.0, 0.0, -1.0)):
    return EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "branches": [
                        {"child": "u", "prob": probs[0], "dprice": d[0]},
                        {"child": "m", "prob": probs[1], "dprice": d[1]},
                        {"child": "d", "prob": probs[2], "dprice": d[2]},
                    ],
                },
                {"id": "u", "time": 1, "branches": []},
                {"id": "m", "time": 1, "branches": []},
                {"id": "d", "time": 1, "branches": []},
            ],
        }
    )


def uniform_trinomial_tree():
    third = 1.0 / 3.0
    return trinomial_tree(probs=(third, third, third))


def two_period_tree():
    """Asymmetric 2-period binomial with distinct conditionals per node."""
    return EventTree.from_dict(
        {
            "horizon": 2,
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "branches": [
                        {"child": "a", "prob": 0.6, "dprice": 1.0},
                        {"child": "b", "prob": 0.4, "dprice": -1.0},
                    ],
                },
                {
                    "id": "a",
                    "time": 1,
                    "branches": [
                        {"child": "a1", "prob": 0.5, "dprice": 1.0},
                        {"child": "a2", "prob": 0.5, "dprice": -1.0},
                    ],
                },
                {
                    "id": "b",
                    "time": 1,
                    "branches": [
                        {"child": "b1", "prob": 0.55, "dprice": 0.5},
                        {"child": "b2", "prob": 0.45, "dprice": -1.5},
                    ],
                },
                {"id": "a1", "time": 2, "branches": []},
                {"id": "a2", "time": 2, "branches": []},
                {"id": "b1", "time": 2, "branches": []},
                {"id": "b2", "time": 2, "branches": []},
            ],
        }
    )


def starved_tree():
    """Two periods; root increments (+1, 0), so the only one-step measure at
    the root puts all mass on m and no martingale measure reaches u's
    subtree (the tree admits arbitrage)."""

    def node(nid, t, branches=()):
        return {
            "id": nid,
            "time": t,
            "branches": [{"child": c, "prob": p, "dprice": d} for c, p, d in branches],
        }

    return EventTree.from_dict(
        {
            "horizon": 2,
            "nodes": [
                node("r", 0, [("u", 0.5, 1.0), ("m", 0.5, 0.0)]),
                node("u", 1, [("u1", 0.5, 1.0), ("u2", 0.5, -1.0)]),
                node("m", 1, [("m1", 0.4, 0.5), ("m2", 0.6, -1.5)]),
                *(node(w, 2) for w in ("u1", "u2", "m1", "m2")),
            ],
        }
    )


def mid_arbitrage_tree():
    """Two periods; node a's increments (+1, +2) admit no martingale
    measure, so the root's measures are confined to b and c."""

    def node(nid, t, branches=()):
        return {
            "id": nid,
            "time": t,
            "branches": [{"child": c, "prob": p, "dprice": d} for c, p, d in branches],
        }

    return EventTree.from_dict(
        {
            "horizon": 2,
            "nodes": [
                node("r", 0, [("a", 0.3, 1.0), ("b", 0.3, -1.0), ("c", 0.4, 0.5)]),
                node("a", 1, [("a1", 0.5, 1.0), ("a2", 0.5, 2.0)]),
                node("b", 1, [("b1", 0.5, 1.0), ("b2", 0.5, -1.0)]),
                node("c", 1, [("c1", 0.4, 1.5), ("c2", 0.6, -1.0)]),
                *(node(w, 2) for w in ("a1", "a2", "b1", "b2", "c1", "c2")),
            ],
        }
    )


def lopsided_scenario(up, down, psi_root=0.25):
    """The default ``tree-verify`` scenario on two periods: root
    increments ``up`` and ``down``, then +1 and -1 below each child, with
    1/gamma replicated from gamma0 1 (psi ``psi_root`` at the root, 0.25
    below it) and the shift solved from terminal 0. At up = 1 and
    down = -1/rho the root's opposite-sign moves have the ratio rho."""

    def node(nid, t, branches=()):
        return {
            "id": nid,
            "time": t,
            "branches": [{"child": c, "prob": 0.5, "dprice": d} for c, d in branches],
        }

    tree = {
        "horizon": 2,
        "nodes": [
            node("r", 0, [("u", up), ("d", down)]),
            node("u", 1, [("u1", 1.0), ("u2", -1.0)]),
            node("d", 1, [("d1", 1.0), ("d2", -1.0)]),
            *(node(w, 2) for w in ("u1", "u2", "d1", "d2")),
        ],
    }
    return {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": tree,
        "gamma": {"mode": "replicate", "gamma0": 1.0, "psi": {"r": psi_root, "u": 0.25, "d": 0.25}},
        "a_shift": {"mode": "solve", "terminal": 0.0},
    }


def random_tree(seed, periods=2, max_branching=3, branching=None):
    """Random tree, <= max_branching branches, both-sign increments per node.

    ``branching(t, path)``, with ``path`` the branch indices from the root,
    fixes the branch counts instead: a fixed shape with random values.
    """
    rng = np.random.default_rng(seed)
    nodes = []
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    def grow(nid, t, path):
        if t == periods:
            nodes.append({"id": nid, "time": t, "branches": []})
            return
        if branching is None:
            k = int(rng.integers(2, max_branching + 1))
        else:
            k = branching(t, path)
        # one strictly negative, one strictly positive, rest anywhere
        d = [-float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))]
        for _ in range(k - 2):
            d.append(float(rng.uniform(-2.0, 2.0)))
        rng.shuffle(d)
        p = rng.uniform(0.2, 1.0, size=k)
        p = p / p.sum()
        branches = []
        kids = []
        for j in range(k):
            cid = fresh()
            kids.append(cid)
            branches.append({"child": cid, "prob": float(p[j]), "dprice": d[j]})
        nodes.append({"id": nid, "time": t, "branches": branches})
        for j, cid in enumerate(kids):
            grow(cid, t + 1, path + (j,))

    grow("r", 0, ())
    return EventTree.from_dict({"horizon": periods, "nodes": nodes})


def suite_shaped_tree(seed):
    """Depth 2 in one fixed shape: three root branches, then 2, 3 and 2."""
    return random_tree(seed, branching=lambda t, path: 3 if t == 0 else (2, 3, 2)[path[0]])


def replicable_gamma(tree, seed, gamma0=None):
    """Per-node gamma with 1/gamma increments spanned by the price increments.

    psi at each node is capped at half of (1/gamma)/max|dS| so the
    reciprocal stays strictly positive down the whole tree.
    """
    rng = np.random.default_rng(seed)
    g0 = float(rng.uniform(0.5, 2.0)) if gamma0 is None else float(gamma0)
    inv = {tree.root: 1.0 / g0}
    psi = {}
    for nid in tree._dfs_order:
        if tree.is_leaf(nid):
            continue
        dmax = max(abs(br.dprice) for br in tree.branches_of(nid))
        cap = 0.5 * inv[nid] / dmax
        psi[nid] = float(rng.uniform(-cap, cap))
        for br in tree.branches_of(nid):
            inv[br.child] = inv[nid] + psi[nid] * br.dprice
    return {nid: 1.0 / inv[nid] for nid in inv}, psi


def solved_field(tree, seed, gamma0=None, terminal_scale=1.0, solve=solve_entropy_shift):
    """Replicable gamma plus the entropy-consistent shift, as field params;
    ``solve`` is the entropy-shift construction, this package's by
    default."""
    gamma, _ = replicable_gamma(tree, seed, gamma0=gamma0)
    rng = np.random.default_rng(seed + 10_000)
    terminal = {
        w: float(rng.uniform(-terminal_scale, terminal_scale)) for w in tree.leaves()
    }
    a_shift = solve(tree, gamma, terminal)
    return ExponentialFieldParams(gamma=gamma, a_shift=a_shift)


def constant_field(tree, gamma=1.0, a=0.0):
    return ExponentialFieldParams(
        gamma={nid: gamma for nid in tree._dfs_order},
        a_shift={nid: a for nid in tree._dfs_order},
    )


def with_offsets(field, offsets):
    """A copy of ``field`` with a_shift[node] += offset for each given node."""
    a_shift = dict(field.a_shift)
    for node, off in offsets.items():
        a_shift[node] = a_shift[node] + off
    return ExponentialFieldParams(field.gamma, a_shift)


def ito_tree(depth, theta, delta, phi, rho, gamma_on_rho=True):
    """The Ito parametrization on a tree: ``depth`` periods of
    dt = 1 / depth, four branches per node with (dB, dW) = (+-sqrt(dt),
    +-sqrt(dt)) and probability 1/4 each, and dS = theta dt + dB. 1/gamma
    is replicated with psi = delta / gamma, so 1/gamma_child =
    (1/gamma)(1 + delta dS) from gamma = 1 at the root, and the shift is
    the closed form of ``ito_engine.build_forward_exponential`` along each
    path, at constant coefficients:

        a = gamma rho S + (1/2) t ((theta - delta)^2 - phi^2) - phi W.

    ``gamma_on_rho=False`` drops the gamma on the hedgeable part, a = rho S
    + ..., a field that does not self-generate. Returns (tree, field)."""
    dt = 1.0 / depth
    moves = [(db, dw) for db in (math.sqrt(dt), -math.sqrt(dt)) for dw in (math.sqrt(dt), -math.sqrt(dt))]
    nodes, inv_gamma, a_shift = [], {}, {}

    def grow(nid, t, inv, s, w):
        inv_gamma[nid] = inv
        hedge = rho * s / inv if gamma_on_rho else rho * s
        a_shift[nid] = hedge + 0.5 * t * dt * ((theta - delta) ** 2 - phi**2) - phi * w
        kids = [(f"{nid}{j}", theta * dt + db, dw) for j, (db, dw) in enumerate(moves)] if t < depth else []
        nodes.append({"id": nid, "time": t, "branches": [{"child": c, "prob": 0.25, "dprice": ds} for c, ds, _ in kids]})
        for c, ds, dw in kids:
            grow(c, t + 1, inv * (1.0 + delta * ds), s + ds, w + dw)

    grow("r", 0, 1.0, 0.0, 0.0)
    tree = EventTree.from_dict({"horizon": depth, "nodes": nodes})
    return tree, ExponentialFieldParams({n: 1.0 / x for n, x in inv_gamma.items()}, a_shift)


class _NeverHits(dict):
    """A program store in which no outcome is ever found."""

    def __contains__(self, key):
        return False


def unshared_duals(tree, gamma):
    """A ``WindowDuals`` that solves every one-step program afresh, as if
    no other sweep of the scenario had solved it."""
    duals = WindowDuals(tree, gamma)
    duals._programs = _NeverHits()
    return duals
