"""Event trees: structure, polytopes, measures, densities, and supports."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from forwardperf.errors import ArbitrageError, ScenarioError, TreeStructureError
from forwardperf.tree_market import (
    EventTree,
    TreeMeasure,
    _window_vertices,
    check_nflvr,
    density_process,
    enumerate_product_measures,
    measure_from_leaf_masses,
    node_polytope,
    one_step_vertices,
    reference_measure,
    validate_tree,
)
from treegen import (
    binomial_tree,
    mid_arbitrage_tree,
    random_tree,
    starved_tree,
    trinomial_tree,
    two_period_tree,
)


def node(nid, t, branches=()):
    return {"id": nid, "time": t, "branches": list(branches)}


def br(child, prob, dprice):
    return {"child": child, "prob": prob, "dprice": dprice}


# -- construction --------------------------------------------------------


def test_roundtrip_to_dict():
    tree = two_period_tree()
    again = EventTree.from_dict(tree.to_dict())
    assert again.to_dict() == tree.to_dict()
    assert again._dfs_order == tree._dfs_order


def test_duplicate_id_rejected():
    with pytest.raises(TreeStructureError, match="duplicate"):
        EventTree.from_dict(
            {
                "horizon": 1,
                "nodes": [
                    node("r", 0, [br("x", 1.0, 0.0)]),
                    node("x", 1),
                    node("x", 1),
                ],
            }
        )


def test_unknown_child_rejected():
    with pytest.raises(TreeStructureError, match="unknown child"):
        EventTree.from_dict(
            {"horizon": 1, "nodes": [node("r", 0, [br("ghost", 1.0, 0.0)])]}
        )


def test_two_parents_rejected():
    with pytest.raises(TreeStructureError, match="two parents"):
        EventTree.from_dict(
            {
                "horizon": 1,
                "nodes": [
                    node("r", 0, [br("x", 0.5, 1.0), br("x", 0.5, -1.0)]),
                    node("x", 1),
                ],
            }
        )


def test_detached_cycle_rejected():
    with pytest.raises(TreeStructureError, match="not reachable"):
        EventTree.from_dict(
            {
                "horizon": 0,
                "nodes": [
                    node("r", 0),
                    node("x", 1, [br("y", 1.0, 0.0)]),
                    node("y", 2, [br("x", 1.0, 0.0)]),
                ],
            },
            validate=False,
        )


def test_wrong_time_rejected():
    with pytest.raises(TreeStructureError, match="time"):
        EventTree.from_dict(
            {
                "horizon": 1,
                "nodes": [node("r", 0, [br("x", 1.0, 0.0)]), node("x", 2)],
            }
        )


def test_leaf_off_horizon_rejected():
    with pytest.raises(TreeStructureError, match="leaf"):
        EventTree.from_dict(
            {
                "horizon": 2,
                "nodes": [node("r", 0, [br("x", 1.0, 0.0)]), node("x", 1)],
            }
        )


@pytest.mark.parametrize("horizon", [10**6, 10**12])
def test_a_horizon_past_the_node_count_is_refused_before_its_levels_are_built(horizon):
    # the levels are built after the walk has checked every node's time,
    # so a one-node tree, whose leaf is off such a horizon, is refused
    # before anything of the horizon's size is allocated
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(TreeStructureError) as raised:
            EventTree.from_dict({"horizon": horizon, "nodes": [node("r", 0)]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "leaf 'r' at time 0 != horizon"
    assert peak < 2**20
    assert time.perf_counter() - start < 1.0


def test_structural_faults_are_named_in_dfs_order_with_detached_cycles_last():
    # one walk from the root checks each node's time and leaf rule as it
    # reaches it, so of several faults the first in DFS order is named,
    # and nodes the walk never reaches only after it: here a leaf off the
    # horizon, at 'b', before a detached cycle and before a wrong time
    # below 'a', which comes later in DFS order though earlier in the list
    leaf_off_horizon = node("b", 1)
    cycle = [node("x", 1, [br("y", 1.0, 0.0)]), node("y", 2, [br("x", 1.0, 0.0)])]
    r = node("r", 0, [br("b", 0.5, 1.0), br("a", 0.5, -1.0)])
    docs = [
        [r, node("a", 1, [br("a1", 1.0, 0.0)]), node("a1", 2), leaf_off_horizon, *cycle],
        [r, node("a1", 3), node("a", 1, [br("a1", 1.0, 0.0)]), leaf_off_horizon],
    ]
    for nodes in docs:
        with pytest.raises(TreeStructureError) as raised:
            EventTree.from_dict({"horizon": 2, "nodes": nodes}, validate=False)
        assert str(raised.value) == "leaf 'b' at time 1 != horizon"


LAYOUT_TREES = {
    **{f"random-{seed}-d{d}": (random_tree, seed, d) for d in range(1, 6) for seed in range(3)},
    **{f.__name__: (f,) for f in (two_period_tree, starved_tree, mid_arbitrage_tree)},
}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("case", LAYOUT_TREES)
def test_layout_queries_match_their_walks(case):
    # every query that reads the one walk's DFS ranges returns what the
    # stack walk it replaced returns, at every node, level and window
    make, *args = LAYOUT_TREES[case]
    tree = make(*args)
    levels = range(-1, tree.horizon + 2)
    assert tree._dfs_order == oracles.dfs_order(tree)
    cache = {}
    for nid in tree._dfs_order:
        assert tree.path_from_root(nid) == oracles.path_from_root(tree, nid, cache)
        for t in levels:
            got = _outcome(tree.descendants_at, nid, t)
            assert got == _outcome(oracles.descendants_at, tree, nid, t)
            assert tree.window_interior(nid, t) == oracles.window_interior(tree, nid, t)
    for t in levels:
        assert tree.nodes_at(t) == oracles.nodes_at(tree, t)
    for t, T in itertools.combinations_with_replacement(range(tree.horizon + 2), 2):
        assert tree.window_nodes(t, T) == oracles.window_nodes(tree, t, T)


def test_schema_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown tree keys"):
        EventTree.from_dict({"horizon": 0, "nodes": [node("r", 0)], "extra": 1})
    with pytest.raises(ScenarioError, match="unknown keys"):
        EventTree.from_dict(
            {"horizon": 0, "nodes": [{"id": "r", "time": 0, "color": "red"}]}
        )


def test_from_json_rejects_nonfinite(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(
        '{"horizon": 1, "nodes": [{"id": "r", "time": 0, "branches":'
        ' [{"child": "x", "prob": 1.0, "dprice": Infinity}]}, {"id": "x", "time": 1}]}'
    )
    with pytest.raises(ScenarioError, match="non-finite"):
        EventTree.from_json(path)


def test_validate_tree_refuses_bad_branches():
    # each family of fault is named with its first node in DFS order, the
    # families in the order of their names
    def tree(r_branches, u_branches):
        return EventTree.from_dict(
            {
                "horizon": 2,
                "nodes": [
                    node("r", 0, r_branches),
                    node("u", 1, u_branches),
                    node("d", 1, [br("dd", 1.0, 0.0)]),
                    node("uu", 2),
                    node("ud", 2),
                    node("dd", 2),
                ],
            },
            validate=False,
        )

    fine = [br("uu", 0.5, 1.0), br("ud", 0.5, -1.0)]
    cases = [
        (
            tree([br("u", 0.7, 1.0), br("d", 0.7, -1.0)], fine),
            "tree-branch-prob-sums: node r: probabilities sum to 1.4",
        ),
        (
            tree([br("u", 1.0, 1.0), br("d", 0.0, -1.0)], fine),
            "tree-branch-prob-positive: node r: nonpositive or nonfinite branch probability",
        ),
        (
            tree([br("u", 0.5, 1.0), br("d", 0.5, -1.0)], [br("uu", 0.5, math.inf), br("ud", 0.5, -1.0)]),
            "tree-price-increments-finite: node u: nonfinite price increment",
        ),
        (
            tree([br("u", 0.5, math.nan), br("d", 0.5, -1.0)], [br("uu", 1.5, 1.0), br("ud", -0.7, -1.0)]),
            "tree-branch-prob-positive: node u: nonpositive or nonfinite branch probability; "
            "tree-branch-prob-sums: node u: probabilities sum to 0.8; "
            "tree-price-increments-finite: node r: nonfinite price increment",
        ),
    ]
    for bad, message in cases:
        want = f"tree fails validation: {message}"
        with pytest.raises(TreeStructureError) as raised:
            validate_tree(bad)
        assert str(raised.value) == want
        # from_dict with validation on refuses the same tree
        with pytest.raises(TreeStructureError) as raised:
            EventTree.from_dict(bad.to_dict())
        assert str(raised.value) == want
    assert validate_tree(tree([br("u", 0.5, 1.0), br("d", 0.5, -1.0)], fine)) is None


def test_queries_on_two_period_tree():
    tree = two_period_tree()
    assert tree.root == "r"
    assert tree.nodes_at(1) == ("a", "b")
    assert tree.nodes_at(-1) == ()
    assert tree.nodes_at(tree.horizon + 1) == ()
    assert tree.leaves() == ("a1", "a2", "b1", "b2")
    assert tree.descendants_at("a", 2) == ("a1", "a2")
    assert tree.window_interior("r", 2) == ("r", "a", "b")
    assert tree.window_interior("r", 1) == ("r",)
    assert tree.path_from_root("b2") == ("r", "b", "b2")
    assert oracles.cond_prob(tree, "r", "a1") == pytest.approx(0.3)
    assert oracles.cond_prob(tree, "b", "b2") == pytest.approx(0.45)


# -- one-step vertices and NFLVR -----------------------------------------


def test_vertices_binomial():
    v = one_step_vertices([1.0, -1.0])
    assert v.shape == (1, 2)
    np.testing.assert_allclose(v[0], [0.5, 0.5])


def test_vertices_symmetric_trinomial():
    v = one_step_vertices([1.0, 0.0, -1.0])
    rows = {tuple(np.round(r, 12)) for r in v}
    assert rows == {(0.0, 1.0, 0.0), (0.5, 0.0, 0.5)}


def test_vertices_deduplicated():
    # the zero-increment singleton reappears as degenerate pairs
    v = one_step_vertices([1.0, -1.0, 0.0])
    rows = {tuple(np.round(r, 12)) for r in v}
    assert rows == {(0.5, 0.5, 0.0), (0.0, 0.0, 1.0)}


def test_vertices_one_sided_empty():
    assert one_step_vertices([1.0, 2.0]).shape == (0, 2)
    assert one_step_vertices([-0.5]).shape == (0, 1)


def test_vertices_zero_singleton():
    v = one_step_vertices([0.0])
    np.testing.assert_allclose(v, [[1.0]])


def _vertex_increments(rng):
    """Increments with zeros of both signs, opposite-sign pairs, and
    near-duplicates that made pairs land within the replaced 1e-12 vertex
    tolerance."""
    kind = rng.integers(4)
    m = int(rng.integers(1, 7))
    d = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
    if kind == 1:
        d[rng.random(m) < 0.4] = rng.choice([0.0, -0.0])
    elif kind == 2:
        # a tiny increment against others of one sign: the pairs through
        # it are all near the singleton at it
        d = np.concatenate([[1e-14 * rng.choice([-1.0, 1.0])], -np.abs(d), np.abs(d[:2])])
    elif kind == 3:
        d = np.concatenate([d, d + 1e-13, -d])
    return d.tolist()


def _opposite_sign_ratio(d):
    """The largest ratio |d_i| / |d_j| over increments of opposite sign (0
    when there are none)."""
    return max((abs(x) / abs(y) for x in d for y in d if min(x, y) < 0.0 < max(x, y)), default=0.0)


def test_vertices_match_numpy_oracle_bit_for_bit():
    # the replaced build dropped a vertex within 1e-12 of an earlier one.
    # A pair through a zero increment is that increment's singleton, and
    # two opposite-sign pairs have other supports, so they agree within
    # 1e-12 only where both give their shared child mass >= 1 - 1e-12,
    # which needs a ratio of at least 1e12 - 1 between its increment and
    # the other's: below it the builds agree bit for bit, and above it
    # the replaced build's rows are some of the exact rows, in order
    rng = np.random.default_rng(12)
    near = 0
    for _ in range(800):
        d = _vertex_increments(rng)
        got, want = one_step_vertices(d), oracles.numpy_one_step_vertices(d)
        assert got.dtype == want.dtype and got.shape[1] == want.shape[1]
        if _opposite_sign_ratio(d) < 1e12 - 1:
            assert got.tobytes() == want.tobytes(), d
            continue
        near += 1
        rows = [r.tobytes() for r in want]
        assert [r for r in (r.tobytes() for r in got) if r in rows] == rows, d
    assert near > 50


def _wide_increments(rng):
    """Increments of one to six children, zeros among them, spread over
    up to 300 decades (+-1e308 and the largest float included)."""
    m = int(rng.integers(1, 7))
    top = rng.choice([308.0, float(rng.uniform(-7.0, 308.0))])
    d = rng.choice([-1.0, 1.0], size=m) * 10.0 ** rng.uniform(top - 300.0, top, size=m)
    if top == 308.0:
        extremes = [-1e308, 1e308, -np.finfo(float).max, np.finfo(float).max]
        d[rng.random(m) < 0.3] = rng.choice(extremes)
    d[rng.random(m) < 0.2] = 0.0
    return d.tolist()


def test_vertices_are_exact_and_distinct():
    # a pair's masses are b / D and -a / D, with a and b its increments
    # over a power of two above the larger and D = fl(b - a): each has
    # one rounding after D's, so (exactly, in fractions) |sum q - 1| and
    # |sum q s| / min(|a|, |b|) are within 2u / (1 - u), u = 2**-53
    u = 2.0**-53
    bound = Fraction(2 * u) / (1 - Fraction(u))
    rng = np.random.default_rng(64)
    for _ in range(3000):
        d = _wide_increments(rng)
        verts = one_step_vertices(d)
        assert verts.shape[0] == d.count(0.0) + sum(x < 0.0 for x in d) * sum(x > 0.0 for x in d)
        supports = [tuple(np.flatnonzero(v)) for v in verts]
        assert len(set(supports)) == len(supports), d
        for v, support in zip(verts, supports):
            if len(support) == 1:
                assert d[support[0]] == 0.0 and v[support[0]] == 1.0
                continue
            i, j = support
            assert min(d[i], d[j]) < 0.0 < max(d[i], d[j])
            e = -math.frexp(max(abs(d[i]), abs(d[j])))[1]
            a, b = Fraction(math.ldexp(d[i], e)), Fraction(math.ldexp(d[j], e))
            qi, qj = Fraction(v[i]), Fraction(v[j])
            assert abs(qi + qj - 1) <= bound, d
            assert abs(qi * a + qj * b) <= bound * min(abs(a), abs(b)), d
    big = np.finfo(float).max
    for x in (1e308, big):
        assert one_step_vertices([x, -x]).tolist() == [[0.5, 0.5]]


def test_nflvr_passes_on_standard_trees():
    for tree in (binomial_tree(), trinomial_tree(), two_period_tree()):
        ok, report = check_nflvr(tree)
        assert ok
        assert report["nflvr"].verdict


def test_nflvr_fails_one_sided():
    bad = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                node("r", 0, [br("u", 0.5, 1.0), br("d", 0.5, 2.0)]),
                node("u", 1),
                node("d", 1),
            ],
        }
    )
    ok, report = check_nflvr(bad)
    assert not ok
    rec = report["nflvr"]
    assert not rec.verdict
    assert rec.worst_node == "r"
    assert "arbitrage" in rec.notes[0]


def test_nflvr_fails_on_starved_child():
    # increments (0, 1, 2): only the singleton on the zero leg is a vertex
    bad = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                node("r", 0, [br("a", 0.4, 0.0), br("b", 0.3, 1.0), br("c", 0.3, 2.0)]),
                node("a", 1),
                node("b", 1),
                node("c", 1),
            ],
        }
    )
    ok, report = check_nflvr(bad)
    assert not ok
    assert "zero mass" in report["nflvr"].notes[0]


def test_node_polytope_centroid():
    poly = node_polytope(trinomial_tree(), "r")
    assert not poly.empty
    assert poly.has_equivalent_point()
    cen = poly.centroid()
    assert cen.sum() == pytest.approx(1.0)
    assert np.all(cen > 0)
    assert float(cen @ np.array(poly.dprices)) == pytest.approx(0.0, abs=1e-14)


# -- measures and densities ----------------------------------------------


def test_reference_measure_and_masses():
    tree = two_period_tree()
    p = reference_measure(tree)
    assert p.at("r") == (0.6, 0.4)
    assert p.node_mass(tree, "b2") == pytest.approx(0.4 * 0.45)
    assert p.node_mass(tree, "a1", start="a") == pytest.approx(0.5)
    assert p.edge_prob(tree, "b1") == pytest.approx(0.55)


def test_measure_validate_rejects_malformed():
    tree = binomial_tree()
    with pytest.raises(ValueError, match="wrong arity"):
        TreeMeasure(cond={"r": (1.0,)}).validate(tree)
    with pytest.raises(ValueError, match="negative"):
        TreeMeasure(cond={"r": (1.5, -0.5)}).validate(tree)
    with pytest.raises(ValueError, match="sums to"):
        TreeMeasure(cond={"r": (0.7, 0.7)}).validate(tree)
    with pytest.raises(ValueError, match="missing"):
        TreeMeasure(cond={}).validate(tree)
    # rounding passes; the tolerance is a module constant, not a parameter
    TreeMeasure(cond={"r": (1.0 + 1e-10, -1e-10)}).validate(tree)
    with pytest.raises(TypeError):
        TreeMeasure(cond={"r": (0.5, 0.5)}).validate(tree, tol=1e-3)


def test_martingale_residual():
    tree = binomial_tree()  # p = (0.8, 0.2), d = (+1, -1)
    p = reference_measure(tree)
    assert oracles.martingale_residual(tree, p, ["r"]) == pytest.approx(0.6)
    q = TreeMeasure(cond={"r": (0.5, 0.5)})
    assert oracles.martingale_residual(tree, q, ["r"]) == 0.0


def test_density_process_values():
    tree = binomial_tree()
    q = TreeMeasure(cond={"r": (0.5, 0.5)})
    z = density_process(tree, q)
    assert z.at("r") == 1.0
    assert z.at("u") == pytest.approx(0.5 / 0.8)
    assert z.at("d") == pytest.approx(0.5 / 0.2)
    # absorbing at zero: a branch the measure kills keeps density 0 below it
    tree = two_period_tree()
    q = TreeMeasure(cond={"r": (0.0, 1.0), "a": (0.5, 0.5), "b": (0.75, 0.25)})
    z = density_process(tree, q)
    assert z.at("a") == 0.0 and z.at("a1") == 0.0


# -- supports and extreme measures ---------------------------------------


def maximal_support(tree, t, T):
    """Time-T nodes that some martingale measure on [t, T] charges: the
    terminal nodes charged below each start by the walk over the vertex
    table (``oracles.vertex_recursion``)."""

    def local(nid, kids, verts, kid_values):
        return set().union(*kid_values)

    walk = oracles.vertex_recursion(tree, t, T, lambda w: {w}, local, _window_vertices(tree, T))
    return set().union(*(values[start] for start, values in walk.items()))


def test_maximal_support_full_on_nflvr_tree():
    tree = two_period_tree()
    assert maximal_support(tree, 0, 2) == set(tree.leaves())


def test_maximal_support_excludes_starved_nodes():
    tree = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                node("r", 0, [br("a", 0.4, 0.0), br("b", 0.3, 1.0), br("c", 0.3, 2.0)]),
                node("a", 1),
                node("b", 1),
                node("c", 1),
            ],
        }
    )
    assert maximal_support(tree, 0, 1) == {"a"}


def test_maximal_support_arbitrage_raises():
    tree = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                node("r", 0, [br("a", 0.5, 1.0), br("b", 0.5, 2.0)]),
                node("a", 1),
                node("b", 1),
            ],
        }
    )
    with pytest.raises(ArbitrageError):
        maximal_support(tree, 0, 1)


def test_enumerate_product_measures_counts():
    assert len(enumerate_product_measures(binomial_tree())) == 1
    assert len(enumerate_product_measures(trinomial_tree())) == 2
    # two-period binomial: one vertex per node, a single product
    assert len(enumerate_product_measures(two_period_tree())) == 1


def test_enumerate_product_measures_are_martingales():
    tree = two_period_tree()
    interior = [n for n in tree._dfs_order if not tree.is_leaf(n)]
    for q in enumerate_product_measures(tree):
        q.validate(tree)
        assert oracles.martingale_residual(tree, q, interior) <= 1e-12
        total = sum(q.node_mass(tree, w) for w in tree.leaves())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_product_measures_cap():
    with pytest.raises(ValueError, match="too many"):
        enumerate_product_measures(trinomial_tree(), max_count=1)


def test_vertex_recursion_charged_nodes_and_vertices():
    # the walk over the vertex table (oracles.vertex_recursion) reaches the
    # nodes charged from each start, and gives each its charged children,
    # their restricted vertices and their values
    tree = starved_tree()
    calls = []

    def local(nid, kids, verts, kid_values):
        calls.append(nid)
        return kids, verts, kid_values

    table = _window_vertices(tree, 2)
    # the window [1, 2] starts at u too, though no measure from the root reaches it
    walk = oracles.vertex_recursion(tree, 1, 2, lambda w: w, local, table)
    assert calls == ["u", "m"] and list(walk) == ["u", "m"]
    # [0, 2] reaches m only, deepest first
    calls.clear()
    walk = oracles.vertex_recursion(tree, 0, 2, lambda w: w, local, table)
    assert calls == ["m", "r"] and list(walk["r"]) == ["r", "m"]
    values = walk["r"]
    assert values["r"][:2] == (("m",), ((1.0,),))
    kids, verts, kid_values = values["m"]
    assert kids == ("m1", "m2") and kid_values == ["m1", "m2"]
    assert verts == pytest.approx([(0.75, 0.25)], abs=1e-15)
    assert values["r"][2] == [values["m"]]
    # a window of no step reads the terminal values only
    assert oracles.vertex_recursion(tree, 2, 2, lambda w: w, local, table) == {w: {w: w} for w in tree.nodes_at(2)}
    assert calls == ["m", "r"]
    # an infeasible node is never evaluated
    tree = mid_arbitrage_tree()
    walk = oracles.vertex_recursion(tree, 0, 2, lambda w: w, local, _window_vertices(tree, 2))
    assert "a" not in walk["r"] and walk["r"]["r"][0] == ("b", "c")


def test_window_vertices_table():
    trees = [random_tree(seed, periods=3) for seed in range(6)]
    trees += [starved_tree(), mid_arbitrage_tree()]
    for tree in trees:
        for T in range(tree.horizon + 1):
            table = _window_vertices(tree, T)
            feasible = {
                n
                for n in tree._dfs_order
                if tree.time_of(n) <= T and oracles.measures_below(tree, n, T) > 0
            }
            assert set(table) == {n for n in feasible if tree.time_of(n) < T}
            for nid, (kids, rows) in table.items():
                children = tree.children(nid)
                allowed = [j for j, c in enumerate(children) if c in feasible]
                verts = one_step_vertices([tree.branches_of(nid)[j].dprice for j in allowed])
                cols = [k for k in range(len(allowed)) if verts[:, k].max() > 1e-12]
                assert kids == tuple(children[allowed[k]] for k in cols)
                assert rows == tuple(
                    tuple(float(v[k]) if v[k] > 1e-12 else 0.0 for k in cols) for v in verts
                )
    # u is feasible though no measure from the root reaches it
    assert _window_vertices(starved_tree(), 2)["r"] == (("m",), ((1.0,),))
    assert "u" in _window_vertices(starved_tree(), 2)
    table = _window_vertices(mid_arbitrage_tree(), 2)
    assert "a" not in table and table["r"][0] == ("b", "c")


def test_vertex_recursion_counts_the_enumerated_measures():
    # the oracles' walk over the vertex table, which the inverse-gamma and
    # forward tests read, ranges over exactly the listed product measures
    def count(nid, kids, verts, kid_values):
        total = 0
        for v in verts:
            n = 1
            for x, c in zip(v, kid_values):
                n *= c if x > 0.0 else 1
            total += n
        return total

    for seed in range(6):
        tree = random_tree(seed, periods=3)
        for T in range(4):
            for t in range(T, -1, -1):
                walk = oracles.vertex_recursion(tree, t, T, lambda w: 1, count, _window_vertices(tree, T))
                got = 1
                for start, values in walk.items():
                    got *= values[start]
                assert got == len(enumerate_product_measures(tree, t, T))


def test_vertex_recursion_refusals():
    # the oracles' walk refuses a start that admits no martingale measure
    tree = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                node("r", 0, [br("a", 0.5, 1.0), br("b", 0.5, 2.0)]),
                node("a", 1),
                node("b", 1),
            ],
        }
    )
    with pytest.raises(ArbitrageError, match="below node 'r'"):
        oracles.vertex_recursion(tree, 0, 1, lambda w: 0.0, lambda *args: 0.0, _window_vertices(tree, 1))


def test_leaf_mass_roundtrip():
    tree = two_period_tree()
    for q in enumerate_product_measures(tree):
        masses = {w: q.node_mass(tree, w) for w in tree.leaves()}
        rebuilt = measure_from_leaf_masses(tree, "r", 2, masses)
        for w in tree.leaves():
            assert rebuilt.node_mass(tree, w) == pytest.approx(masses[w], abs=1e-14)


def test_leaf_mass_zero_mass_nodes_get_reference():
    tree = two_period_tree()
    masses = {"a1": 0.5, "a2": 0.5, "b1": 0.0, "b2": 0.0}
    q = measure_from_leaf_masses(tree, "r", 2, masses)
    # the vanished subtree keeps reference conditionals
    assert q.at("b") == reference_measure(tree).at("b")
    assert q.at("r") == (1.0, 0.0)
    assert q.at("a") == (0.5, 0.5)
