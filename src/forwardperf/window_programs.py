"""The dual program of a tree window, as the tree engine solves it.

For the window [t, T] below one time-t start, the dual value minimises
the eta = 1 dual objective over the window's leaf masses r, subject to
r > 0, unit mass and one martingale row per node before T
(``tree_verifier.dual_value``). Here are the program's data, built by one
walk down the tree (``walk_window``), and its objective on a stack of
windows of one shape (``dual_objective``), the form
``solvers.barrier_minimize`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WindowProgram:
    """The program data of the window [time(start), T] below one start."""

    leaves: tuple[str, ...]
    p: np.ndarray  # reference mass of each leaf given the start
    A: np.ndarray  # the unit-mass row, then one martingale row per interior node
    interior: np.ndarray  # strictly positive feasible leaf masses
    nodes: tuple[str, ...]  # the nodes before T, start first, in DFS order
    shape: tuple[int, int, int]  # A's shape, then its rows that are not all zero


def walk_window(duals, start, T):
    """The ``WindowProgram`` below ``start`` from one walk down it, in DFS order.
    A martingale row puts the price move of each branch on every leaf below
    it; the interior point is the product of the one-step vertex centroids."""
    tree = duals.tree
    found = []  # per leaf: (leaf, reference mass, centroid mass, moves above it)
    nodes = []
    rows = 1  # the rows of A that are not all zero: the unit-mass row, and
    # the row of each node with a price move (every node has leaves at T)
    stack = [(start, 1.0, 1.0, ())]
    while stack:
        nid, prob, mass, moves = stack.pop()
        if tree.time_of(nid) == T:
            found.append((nid, prob, mass, moves))
            continue
        nodes.append(nid)  # its martingale row is row len(nodes)
        center = duals.centroid(nid)
        moved = False
        for j, br in reversed(tuple(enumerate(tree.branches_of(nid)))):
            moved |= br.dprice != 0.0
            move = moves + ((len(nodes), br.dprice),)
            stack.append((br.child, prob * br.prob, mass * float(center[j]), move))
        rows += moved
    leaves, p, masses, moves = zip(*found)
    A = np.zeros((len(nodes) + 1, len(leaves)))
    A[0] = 1.0
    for col, above in enumerate(moves):
        for row, dprice in above:
            A[row, col] = dprice
    return WindowProgram(leaves, np.array(p), A, np.array(masses), tuple(nodes), (*A.shape, rows))


def dual_objective(field, wins):
    """The eta = 1 dual objective of each leaf of a stack of same-shape
    windows, p h(r / (p gamma)) - r a / gamma, as ``phi(rows)``: the
    objective of the windows ``rows`` (increasing indices into ``wins``),
    a map from their iterates r to (values, gradients, second
    derivatives). Also returns the leaves' gamma, one row per window."""
    gam = np.array([[field.gamma[w] for w in win.leaves] for win in wins], dtype=float)
    ash = np.array([[field.a_shift[w] for w in win.leaves] for win in wins], dtype=float)
    p = np.array([win.p for win in wins])
    kappa = 1.0 / (p * gam)
    lin = ash / gam
    slope = 1.0 / gam

    def phi(rows):
        kappa_r, p_r, lin_r, slope_r, gam_r = (
            (kappa, p, lin, slope, gam) if len(rows) == len(wins)
            else (x[rows] for x in (kappa, p, lin, slope, gam))
        )

        def objective(r):
            # entropy_kernel(y) = y log y - y, extended by 0 at y = 0, with
            # the logarithm taken once for the value and the gradient
            y = kappa_r * r
            log_y = np.log(y)
            v = p_r * np.where(y > 0.0, y * log_y - y, 0.0) - lin_r * r
            g = slope_r * log_y - lin_r
            h = 1.0 / (gam_r * r)
            return v, g, h

        return objective

    return phi, gam
