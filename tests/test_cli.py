"""Scenario loading, dispatch, exit codes, and output formats."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import forwardperf
import forwardperf.cli as cli
import forwardperf.ito_engine as ito_engine
import forwardperf.kernels as kernels
import forwardperf.mc_verifier as mc_verifier
import forwardperf.tree_market as tree_market
import forwardperf.tree_verifier as tree_verifier
import oracles
from forwardperf.cli import main, run_ito_scenario
from forwardperf.errors import ScenarioError
from treegen import (
    binomial_tree,
    lopsided_scenario,
    mid_arbitrage_tree,
    random_tree,
    solved_field,
    trinomial_tree,
    two_period_tree,
    unshared_duals,
)

BASE_TREE_DOC = {
    "schema_version": 1,
    "kind": "tree-verify",
    "gamma": {"mode": "explicit", "values": {}},
    "a_shift": {"mode": "solve", "terminal": 0.0},
}


def write_scenario(tmp_path, doc, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def tree_doc(**overrides):
    tree = two_period_tree()
    doc = json.loads(json.dumps(BASE_TREE_DOC))
    doc["tree"] = tree.to_dict()
    doc["gamma"]["values"] = {nid: 1.0 for nid in tree._dfs_order}
    doc.update(overrides)
    return doc


# numpy's float64 exp and log give other bits under its X86_V4 (AVX-512)
# dispatch than without it (numpy 2.4.6; sin, cos and sqrt do not), so
# every report pin holds one exact digest per path: on_this_dispatch(under
# X86_V4, without). A host with X86_V4 checks the other path too, in a
# child with X86_V4 disabled (test_pins_hold_without_x86_v4_dispatch)
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
X86_V4 = bool(__cpu_features__.get("X86_V4"))
NO_X86_V4 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"}


def on_this_dispatch(x86_v4, other):
    """The pinned digest for numpy's dispatch here: ``x86_v4`` under X86_V4,
    ``other`` without it."""
    return x86_v4 if X86_V4 else other


def ito_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3},
        "gamma0": 1.0,
        "n_steps": 8,
        "n_paths": 400,
        "seed": 42,
        "checks": ["inverse-gamma-mean"],
    }
    doc.update(overrides)
    return doc


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -- tree scenarios ------------------------------------------------------


def test_tree_scenario_passes(tmp_path, capsys):
    path = write_scenario(tmp_path, tree_doc())
    code, doc = run_json(capsys, ["run", path])
    assert code == 0
    assert doc["all_passed"] is True
    tags = set(doc["checks"])
    assert "nflvr" in tags
    assert "primal-self-generation" in tags
    assert "dual-self-generation" in tags


def test_tree_scenario_perturbation_fails(tmp_path, capsys):
    doc = tree_doc()
    doc["a_shift"]["offsets"] = {"r": 0.1}
    path = write_scenario(tmp_path, doc)
    code, rep = run_json(capsys, ["run", path])
    assert code == 1
    assert rep["all_passed"] is False


def test_tree_scenario_text_format(tmp_path, capsys):
    doc = tree_doc(checks=["nflvr"])
    path = write_scenario(tmp_path, doc)
    code = main(["run", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] nflvr" in out
    assert out.strip().endswith("overall: PASS")


def test_tree_scenario_check_subset(tmp_path, capsys):
    doc = tree_doc(checks=["nflvr"])
    path = write_scenario(tmp_path, doc)
    code, rep = run_json(capsys, ["run", path])
    assert code == 0
    assert set(rep["checks"]) == {"nflvr"}


def test_tree_structure_is_not_a_check(tmp_path, capsys):
    # the boundary refuses a tree with bad branches before any check runs,
    # so a record of them could never fail: the name is unknown
    assert main(["run", write_scenario(tmp_path, tree_doc(checks=["tree-structure"]))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.checks[0]: unknown check 'tree-structure'; known: nflvr, ")
    doc = tree_doc()
    doc["tree"]["nodes"][0]["branches"][0]["prob"] += 0.4
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree fails validation: tree-branch-prob-sums: node r: probabilities sum to 1.4")


def test_tree_scenario_solves_each_window_dual_once(monkeypatch):
    calls = []
    original = tree_verifier.dual_value

    def counted(tree, field, eta, t=0, T=None, **kwargs):
        calls.append((t, T, float(eta)))
        return original(tree, field, eta, t, T, **kwargs)

    monkeypatch.setattr(tree_verifier, "dual_value", counted)
    report = cli.run_tree_scenario(tree_doc())
    assert report.all_passed, report.to_text()
    # each of the 3 windows once, at eta = 1, by the dual self-generation
    # check, in its order: solve_entropy_shift and the exponential-condition
    # and forward checks read the sweeps to each T, and no window's value
    assert calls == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_exponential_conditions_scenario_reads_no_window_dual_value(monkeypatch):
    # the entropy identity reads the sweep's implied shifts, so a scenario
    # of the exponential conditions alone composes no window's dual value
    calls = []
    original = tree_verifier.dual_value

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return original(*args, **kwargs)

    monkeypatch.setattr(tree_verifier, "dual_value", counted)
    report = cli.run_tree_scenario(tree_doc(checks=["exponential-conditions"]))
    assert report.all_passed, report.to_text()
    assert "exp-condition-entropy-identity" in report
    assert calls == []


def test_tree_scenario_solves_each_one_step_program_once(monkeypatch):
    programs = []
    original = tree_verifier.barrier_minimize

    def counted(phi, r0, price=None):
        programs.append(len(r0))
        return original(phi, r0, price)

    monkeypatch.setattr(tree_verifier, "barrier_minimize", counted)
    tree = two_period_tree()
    internal = sum(len(tree.nodes_at(t)) for t in range(tree.horizon))
    # on the solved field each one-step program is solved once for the
    # whole scenario, a row of a stack: the sweep to the horizon solves one
    # per internal node, and every sweep to an earlier T reads them, as its
    # shifts at T are the horizon sweep's implied shifts. The root-perturbed
    # twin moves no shift a sweep reads, so it adds none
    for doc in (tree_doc(), tree_doc(a_shift={"mode": "solve", "terminal": 0.0, "offsets": {"r": 0.1}})):
        programs.clear()
        report = cli.run_tree_scenario(doc)
        assert report.all_passed == ("offsets" not in doc["a_shift"]), report.to_text()
        assert sum(programs) == internal


@pytest.mark.parametrize("offsets", [None, {"r": 0.1}])
def test_tree_scenario_shared_duals_match_fresh_checks(monkeypatch, offsets):
    doc = tree_doc()
    if offsets is not None:
        doc["a_shift"]["offsets"] = offsets
    shared = cli.run_tree_scenario(doc).to_json()
    # without a shared context the shift and every check build their own
    monkeypatch.setattr(cli, "WindowDuals", lambda tree, gamma: None)
    assert cli.run_tree_scenario(doc).to_json() == shared


def random_tree_doc(a_shift, periods=4):
    """The default scenario on random_tree(7, periods) with the gamma of
    solved_field(tree, 7) given explicitly and the shift ``a_shift(tree,
    field)`` makes."""
    tree = random_tree(7, periods=periods)
    field = solved_field(tree, 7)
    doc = {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": tree.to_dict(),
        "gamma": {"mode": "explicit", "values": field.gamma},
        "a_shift": a_shift(tree, field),
    }
    return doc


def test_tree_scenario_builds_the_field_once_for_the_forward_check(monkeypatch):
    # the default scenario at d = 4 (every window): one forward call over
    # all windows, and one field built, the scenario's, which every check
    # is given
    builds, forward = [], []
    original = cli.check_forward_supermartingale

    class Counted(cli.ExponentialFieldParams):
        def __init__(self, gamma, a_shift):
            builds.append(1)
            super().__init__(gamma, a_shift)

    def counted(*args, **kwargs):
        forward.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "ExponentialFieldParams", Counted)
    monkeypatch.setattr(tree_verifier, "ExponentialFieldParams", Counted)
    monkeypatch.setattr(cli, "check_forward_supermartingale", counted)
    doc = random_tree_doc(lambda tree, field: {"mode": "explicit", "values": field.a_shift})
    report = cli.run_tree_scenario(doc)
    assert report.all_passed, report.to_text()
    assert sum(r.check_tag.startswith("forward-supermartingale[") for r in report.records()) == 10
    assert len(forward) == 1
    assert len(builds) == 1


# SHA-256 of two tree-verify reports: "explicit" is the default scenario on
# random_tree(7, periods=4) with solved_field(tree, 7) given explicitly,
# "solve" builds the shift from the same terminal values and moves the root
# by 0.1. Re-pinned on purpose when each
# window's dual program came to be solved once, at eta = 1, and read at
# every eta: the dual-self-generation and conjugacy-dual-from-primal
# values moved in their last digits (at most 3.6e-13), some passing
# records' worst_node flipped, and the dual-self-generation records gained
# the read's certificate and the solver evidence; no verdict moved.
# Re-pinned on purpose again when the conjugacy check came to read both of
# its directions from that eta = 1 program, with each gap scaled by
# max(1, |target|): only the two conjugacy records moved (their values,
# and eta_hat and the solver evidence of the primal-from-dual record), and
# no verdict.
# Re-pinned on purpose again when the forward check at the entropy
# minimiser came to run the drift recursion at that one measure, reading
# its conditionals from subtree sums of the minimiser's reweighted leaf
# masses instead of a density process over the whole tree: only the
# forward-martingale-at-optimum values moved (at most 3.4e-16 here), and
# no verdict or worst_node.
# Re-pinned on purpose again when worst_node came to be set only on failing
# gap records: a passing record's argmax sits at the rounding floor, so the
# node it named was noise. Every passing tree gap record lost its
# worst_node; no value, verdict, tolerance, note or detail moved.
# Re-pinned on purpose again when each window's dual program came to be
# composed from one-step programs, one backward sweep per window end:
# the entropies moved in their last digits (the dual-self-generation and
# exp-condition-entropy-identity values by at most 2.2e-13 on the same
# field, forward-martingale-at-optimum by at most 4.1e-12), the solved
# shift with them, and newton_iterations and kkt_residual took their
# composed meaning (summed over the window's one-step programs; the
# largest sum of node bounds along a path); no verdict or worst_node.
# Re-pinned on purpose again when the drift at the entropy minimiser came
# to be one value per node of the sweep to T, at weights q_k m_k, instead
# of a recursion per start over the minimiser's reweighted leaf masses:
# only the forward-martingale-at-optimum values moved (at most 5.6e-16
# here), and no verdict or worst_node.
# Re-pinned on purpose again when the records that could never fail left
# the report: the tree-structure check (tree-branch-prob-sums,
# tree-branch-prob-positive, tree-price-increments-finite), whose
# conditions the tree parser refuses first, and exp-condition-positivity,
# whose gamma > 0 the field refuses first. Every other record kept its
# bytes.
# Re-pinned on purpose again when the tree engine came to carry no scale of
# its own: the primal factor recursion runs in log units at the exp-sum's
# own scale, each one-step dual program is solved in units of its node's
# gamma at its children's shifts less their largest, and the
# inverse-gamma gaps are in units of 1/gamma. The values moved by at most
# 5.9e-14 (primal-self-generation) and 6.5e-16 (every other record), the
# solved shift with them, and the solver evidence in the details; no
# verdict or worst_node.
# Re-pinned on purpose again when the forward check's worst drift came to
# be read from the factor recursion, log C - a, the maximum over every
# martingale measure, where a pass over the one-step vertices took it over
# the product vertices only. Only forward-supermartingale values moved:
# on [0, 1], where the root is trinomial, from -0.0572 to 4.4e-16 (solved)
# and from -0.157 to -0.1 (root shifted by 0.1); elsewhere by at most
# 2.0e-14. No verdict or worst_node moved.
# Re-pinned on purpose again when each exp-condition-inverse-gamma-martingale
# record came to read the largest one-step gap over its window's nodes,
# where a backward pass over the one-step vertices took the range of the
# window's conditional mean over the product vertices. Only those values
# moved, on windows of two or more steps and in their roll-up: from
# 3.2e-16 to 2.4e-16 at most, in both reports; no verdict or worst_node.
# Re-pinned on purpose again when the tree reports came to be in shift
# units only: the conjugacy check and its two record families left, the
# primal records lost their value_gap and method details and the dual
# records their value_gap, and each dual gap is read at eta = 1 only,
# where it was the largest over the eta grid. The dual-self-generation
# values moved by at most 1.6e-15; no other value, and no verdict or
# worst_node, moved.
# Re-pinned on purpose again when the dual sweep came to carry each node's
# implied shift, top - 1 - V' of its program in the node's units, where it
# carried the entropy and read the shift back from it, and kkt_residual
# came to be in shift units. The solved shift moved in its last bits, and
# the programs that read it with it. Values moved by at most 7.8e-16 in
# both reports (the primal, dual, entropy-identity and both forward
# families), the kkt_residual and read_certificate details with them; no
# verdict or worst_node.
# Re-pinned on purpose again when the forward-martingale-at-optimum records
# came to read the sweep's implied shift, |shift - a| per node, where they
# ran the drift recursion at the one-step minimisers beside it: at the
# minimiser the two are one value (the tree_verifier module docstring).
# Only those values moved, by at most 1.8e-15 over these reports and
# perfbench's tree scenarios of seeds 1-10; no verdict, worst_node or exit
# code moved.
# Re-pinned on purpose again when each tree quantity came to be one record
# family: the exp-condition-entropy-identity[t,T] records, bit-equal to the
# dual-self-generation ones, and the forward-martingale-at-optimum[t,T]
# records, the largest of those gaps over each window's levels, left the
# report, and the forward-martingale-at-optimum roll-up (the first window
# with the largest gap) came in. The exp-condition-entropy-identity
# roll-up and every other record kept their bytes; no verdict, worst_node
# or exit code moved on these reports or on perfbench's tree scenarios of
# seeds 1-10.
# Re-pinned on purpose again when the one-step Newton systems came to be
# solved by formula, with no BLAS or LAPACK call: the bytes came to be the
# same under every OpenBLAS kernel (under Haswell or Zen the old ones
# failed here), and moved once by rounding: the solved field these
# documents are built from moved in its last bits, and with it the
# primal-self-generation and forward-supermartingale values (by at most
# 5.6e-16) and the dual records' kkt_residual and read_certificate
# details; no verdict, worst_node or exit code moved, here or on
# perfbench's tree scenarios of seeds 1-10. These two documents have one
# digest with numpy's X86_V4 dispatch and without it.
PINNED_TREE_REPORT_SHA256 = {
    "explicit": on_this_dispatch(
        "cf779b121ce0e8b8a4ed248546320b275b819725f0397afd9c394545b31a664b",
        "cf779b121ce0e8b8a4ed248546320b275b819725f0397afd9c394545b31a664b",
    ),
    "solve": on_this_dispatch(
        "24b39392e975afde296743241501d6136cc41d721372caa5b08b2e9d0d7b9fae",
        "24b39392e975afde296743241501d6136cc41d721372caa5b08b2e9d0d7b9fae",
    ),
}
PINNED_TREE_SHIFTS = {
    "explicit": lambda tree, field: {"mode": "explicit", "values": field.a_shift},
    "solve": lambda tree, field: {
        "mode": "solve",
        "terminal": {w: field.a_shift[w] for w in tree.leaves()},
        "offsets": {"r": 0.1},
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_TREE_REPORT_SHA256))
def test_tree_report_bytes_pinned(case):
    text = cli.run_tree_scenario(random_tree_doc(PINNED_TREE_SHIFTS[case])).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TREE_REPORT_SHA256[case]


def run_in_child(args, env=None, timeout=120):
    """``python args`` in a process of its own, from the checkout's root,
    with the package imported from its ``src``."""
    src = Path(forwardperf.__file__).parents[1]
    child_env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env, cwd=src.parent, timeout=timeout
    )


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS core types are x86-64 ones")
def test_tree_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the tree engine makes no BLAS or LAPACK call, so the kernel OpenBLAS
    # picks for the CPU moves no byte of a tree report. A forced core the
    # CPU lacks dies with SIGILL, so SkylakeX runs only under AVX-512
    cores = ["", "Prescott", "Haswell"] + (["SkylakeX"] if __cpu_features__.get("AVX512_SKX") else [])
    for case in sorted(PINNED_TREE_SHIFTS):
        path = write_scenario(tmp_path, random_tree_doc(PINNED_TREE_SHIFTS[case]), f"{case}.json")
        outputs = set()
        for core in cores:
            proc = run_in_child(["-m", "forwardperf", "run", path], {"OPENBLAS_CORETYPE": core} if core else {})
            assert proc.returncode in (0, 1) and proc.stderr == "", core
            outputs.add(proc.stdout)
        assert len(outputs) == 1, case
        assert hashlib.sha256(outputs.pop().rstrip("\n").encode()).hexdigest() == PINNED_TREE_REPORT_SHA256[case]


def test_tree_scenario_makes_no_linear_algebra_call(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a tree scenario called numpy.linalg")

    for name in ("solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refused)
    text = cli.run_tree_scenario(random_tree_doc(PINNED_TREE_SHIFTS["solve"])).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TREE_REPORT_SHA256["solve"]


@pytest.mark.skipif(not X86_V4, reason="a path numpy already runs here")
def test_pins_hold_without_x86_v4_dispatch():
    # numpy refuses at import to disable a feature the machine lacks, so
    # only a host with X86_V4 can check the other path's digests; the
    # kernels' angle-leg pin has one digest for both
    probe = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(f['X86_V4'])"
    assert run_in_child(["-c", probe], NO_X86_V4).stdout == "False\n"
    files = [__file__, str(Path(__file__).with_name("test_kernels.py"))]
    proc = run_in_child(["-m", "pytest", "-q", "-p", "no:cacheprovider", *files, "-k", "pinned"], NO_X86_V4, 600)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "\n8 passed" in proc.stdout


def _randomly_shifted(tree, field):
    rng = np.random.default_rng(74)
    return {"mode": "explicit", "values": {n: a + float(rng.normal(0.0, 0.3)) for n, a in field.a_shift.items()}}


@pytest.mark.parametrize("a_shift", [*PINNED_TREE_SHIFTS.values(), _randomly_shifted], ids=[*PINNED_TREE_SHIFTS, "random"])
def test_tree_report_bytes_match_programs_solved_afresh(monkeypatch, a_shift):
    # each one-step program solved once per scenario and read by every
    # sweep that needs it, or solved afresh by each sweep: the same bytes
    doc = random_tree_doc(a_shift)
    shared = cli.run_tree_scenario(doc).to_json()
    monkeypatch.setattr(cli, "WindowDuals", unshared_duals)
    assert cli.run_tree_scenario(doc).to_json() == shared


@pytest.mark.parametrize("a_shift", [*PINNED_TREE_SHIFTS.values(), _randomly_shifted], ids=[*PINNED_TREE_SHIFTS, "random"])
def test_dual_and_entropy_identity_records_read_one_gap(a_shift):
    # at eta = 1 the dual self-generation gap is the entropy identity's:
    # the shift the window's dual value implies against the field's. The
    # dual check reports it per window, the exponential conditions as one
    # roll-up, which the scenario benchmark's judge reads: the two roll-ups
    # agree on value, verdict and worst_node
    report = cli.run_tree_scenario(random_tree_doc(a_shift))
    dual, identity = report["dual-self-generation"], report["exp-condition-entropy-identity"]
    assert (dual.verdict, dual.value, dual.worst_node) == (identity.verdict, identity.value, identity.worst_node)
    assert not any(rec.check_tag.startswith("exp-condition-entropy-identity[") for rec in report.records())


def test_tree_report_names_a_node_only_on_failing_gap_records():
    records = cli.run_tree_scenario(random_tree_doc(PINNED_TREE_SHIFTS["solve"])).records()
    windows = {}
    for rec in records:
        if "[t=" in rec.check_tag:
            windows.setdefault(rec.check_tag.split("[")[0], []).append(rec)
    # a passing record's argmax sits at the rounding floor: it names no node
    assert all(rec.worst_node is None for rec in records if rec.verdict)
    failing = [rec for rec in records if not rec.verdict]
    assert failing
    # the entropy identity and the forward equality are roll-ups only
    alone = {"exp-condition-entropy-identity", "forward-martingale-at-optimum"}
    assert all(rec.check_tag.split("[")[0] in windows or rec.check_tag in alone for rec in failing)
    assert all(rec.worst_node is not None for rec in failing)
    rollups = [rec for rec in records if rec.check_tag in windows]
    assert {rec.check_tag for rec in rollups} == {
        "primal-self-generation",
        "dual-self-generation",
        "exp-condition-inverse-gamma-martingale",
    }
    for rollup in rollups:
        worst = max(windows[rollup.check_tag], key=lambda rec: rec.value)
        assert (rollup.verdict, rollup.value, rollup.worst_node) == (
            worst.verdict,
            worst.value,
            worst.worst_node,
        ), rollup.check_tag
    # over every pair t < T both read the dual windows' gaps, at the root
    # moved by 0.1
    dual = max(windows["dual-self-generation"], key=lambda rec: rec.value)
    for tag in alone:
        rollup = next(rec for rec in records if rec.check_tag == tag)
        assert (rollup.verdict, rollup.value, rollup.worst_node) == (dual.verdict, dual.value, "r"), tag


def perfbench_tree_docs(workload, seed):
    """perfbench's ``workload`` scenarios of ``seed``, as ``--seconds 16``
    generates them (``perfbench/workloads.py``)."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [doc for _, doc in workloads.generate(workload, seed, workloads.scenario_count(workload, 16))]


def report_shape_docs(case):
    """The pinned scenario ``case``, or perfbench's ``<workload>-<seed>``."""
    if case in PINNED_TREE_SHIFTS:
        return [random_tree_doc(PINNED_TREE_SHIFTS[case])]
    if case == "random":
        return [random_tree_doc(_randomly_shifted)]
    workload, seed = case.rsplit("-", 1)
    return perfbench_tree_docs(workload, int(seed))


@pytest.mark.parametrize(
    "case", [*PINNED_TREE_SHIFTS, "random", *(f"{w}-{seed}" for w in ("tree-suite", "tree-deep") for seed in (1, 2, 3))]
)
def test_no_two_window_families_report_one_quantity(case):
    # a family whose (value, verdict, worst_node) equals another's on every
    # window, failing on some, reports one quantity twice. Passing gaps sit
    # at the rounding floor, where two quantities can agree by chance (on
    # the 3 windows of a solved tree-suite scenario, the primal gap and the
    # forward drift do)
    for doc in report_shape_docs(case):
        families = {}
        for rec in cli.run_tree_scenario(doc).records():
            family, _, window = rec.check_tag.partition("[")
            if window:
                families.setdefault(family, {})[window] = (rec.value, rec.verdict, rec.worst_node)
        assert set(families) == {
            "primal-self-generation",
            "dual-self-generation",
            "exp-condition-inverse-gamma-martingale",
            "forward-supermartingale",
        }
        for one, two in itertools.combinations(sorted(families), 2):
            if families[one] == families[two]:
                assert all(verdict for _, verdict, _ in families[one].values()), (one, two)


def _family(tag):
    return tag.split("[")[0]


def test_every_tree_record_family_fails_in_some_scenario():
    # a record that no scenario can fail is evidence of nothing: each family
    # of the solved default report at d = 4 fails in one of these scenarios
    solved = random_tree_doc(PINNED_TREE_SHIFTS["explicit"])
    report = cli.run_tree_scenario(solved)
    assert report.all_passed, report.to_text()
    families = {_family(rec.check_tag) for rec in report.records()}
    arbitrage = mid_arbitrage_tree()
    scenarios = [
        # the root's shift moved by 0.1
        random_tree_doc(PINNED_TREE_SHIFTS["solve"]),
        # every shift moved at random: the forward drift goes up somewhere
        random_tree_doc(_randomly_shifted),
        nonreplicable_doc(checks=["exponential-conditions"]),
        tree_doc(
            tree=arbitrage.to_dict(),
            gamma={"mode": "explicit", "values": dict.fromkeys(arbitrage._dfs_order, 1.0)},
            a_shift={"mode": "explicit", "values": dict.fromkeys(arbitrage._dfs_order, 0.0)},
            checks=["nflvr"],
        ),
    ]
    failing = {
        _family(rec.check_tag)
        for doc in scenarios
        for rec in cli.run_tree_scenario(doc).records()
        if not rec.verdict
    }
    assert failing == families, families - failing


def test_tree_scenario_runs_each_factor_recursion_once(monkeypatch):
    calls = []
    original = tree_verifier.minimize_exp_sum

    def counted(weights, slopes, *args, **kwargs):
        calls.append(1)
        return original(weights, slopes, *args, **kwargs)

    monkeypatch.setattr(tree_verifier, "minimize_exp_sum", counted)
    doc = random_tree_doc(PINNED_TREE_SHIFTS["explicit"], periods=3)
    assert cli.run_tree_scenario(doc).all_passed
    tree = random_tree(7, periods=3)
    # C(node) of a window ending at T does not depend on the window's
    # start: one minimisation per interior node and distinct T, across
    # both primal checks and all six windows
    interior = [n for n in tree._dfs_order if not tree.is_leaf(n)]
    assert len(calls) == sum(
        1 for T in range(1, 4) for n in interior if tree.time_of(n) < T
    )


def test_tree_scenario_builds_each_vertex_row_once(monkeypatch):
    doc = random_tree_doc(PINNED_TREE_SHIFTS["explicit"], periods=3)
    calls = []
    original = tree_market.one_step_vertices

    def counted(dprices):
        calls.append(tuple(dprices))
        return original(dprices)

    monkeypatch.setattr(tree_market, "one_step_vertices", counted)
    assert "nflvr" in cli.TREE_CHECKS
    assert cli.run_tree_scenario(doc).all_passed
    tree = random_tree(7, periods=3)
    # a node's one-step vertices depend on which of its children may carry
    # mass, not on the window or the check: one build per node and set of
    # allowed children, shared by nflvr, the dual programs' interior
    # points, the shift construction and both vertex recursions over all
    # six windows. Every child of this tree admits a measure, so each node
    # is built once, over all of its children
    interior = [n for n in tree._dfs_order if not tree.is_leaf(n)]
    assert sorted(calls) == sorted(tuple(br.dprice for br in tree.branches_of(n)) for n in interior)


@pytest.mark.parametrize("case", sorted(PINNED_TREE_SHIFTS))
def test_tree_scenario_builds_no_whole_tree_measure(monkeypatch, case):
    # both forward records read per-node tables over the window's nodes
    # (the factor recursion and the sweep's implied shift): no check builds
    # a measure on the tree, its density, or a node's mass along a path
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for name in ("density_process", "measure_from_leaf_masses"):
        original = getattr(tree_market, name)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("forwardperf") and (
                getattr(mod, name, None) is original
            ):
                monkeypatch.setattr(mod, name, counting(name, original))
    node_mass = tree_market.TreeMeasure.node_mass
    monkeypatch.setattr(tree_market.TreeMeasure, "node_mass", counting("node_mass", node_mass))
    report = cli.run_tree_scenario(random_tree_doc(PINNED_TREE_SHIFTS[case], periods=3))
    assert "forward-martingale-at-optimum" in report and "forward-supermartingale[t=0,T=3]" in report
    assert calls == []


ITO_OUT_OF_RANGE = "its mean, closed-form target or band is outside the float range"
ITO_UNDERFLOW = "its variance underflows on samples that differ"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "eta, checks, record",
    [
        # eta Z / gamma overflows: the dual values are NaN
        (1e308, None, "dual-above-start[nu=0,eta=1e+308,t=0.5]"),
        (1e308, ["dual-martingale-at-optimum"], "dual-martingale-at-optimum[eta=1e+308,t=0.5]"),
        # subnormal dual values: the standard error and the rounding floor
        # underflow to 0 on samples that differ
        (5e-324, None, "dual-above-start[nu=0,eta=4.94066e-324,t=0.5]"),
    ],
)
def test_ito_scenario_refuses_an_eta_outside_the_float_range(tmp_path, capsys, eta, checks, record):
    # both exited 1 with a traceback: the report writer met a NaN or an inf
    doc = ito_doc(eta_list=[eta])
    if checks is None:
        del doc["checks"]
    else:
        doc["checks"] = checks
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = ITO_UNDERFLOW if eta < 1.0 else ITO_OUT_OF_RANGE
    assert captured.err == f"error: gamma0=1, eta={eta:g} at {record}: {reason}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma0", [1e300, 1e-308])
def test_ito_terminal_records_run_at_any_scale_of_gamma0(tmp_path, capsys, gamma0):
    # 1/gamma's mean is tested in units of gamma0, on the forward weight w =
    # ((1/gamma_T) gamma0) Z_T, which is of order one at every scale. Both
    # exited 1 with a traceback: 1/gamma's mean in its own units underflowed
    # (a z-score of -inf) or overflowed
    doc = ito_doc(gamma0=gamma0, checks=["inverse-gamma-mean", "forward-drift"])
    assert main(["run", write_scenario(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = json.loads(captured.out)["checks"]
    assert checks["inverse-gamma-mean[nu=0]"]["target"] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "gamma0, overrides, message",
    [
        # 1/gamma_T = 1e308 exp(0.2 S_T) overflows on some paths
        (
            1e-308,
            {"model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3, "delta": 0.2}},
            f"gamma0=1e-308 at inverse-gamma-mean[nu=0]: {ITO_OUT_OF_RANGE}",
        ),
        # eta Z / gamma is of order 1e-300: the dual values' variance underflows
        (1e300, {}, f"gamma0=1e+300, eta=1 at dual-above-start[nu=0,eta=1,t=0.5]: {ITO_UNDERFLOW}"),
        # of order 1e308: the dual values overflow
        (1e-308, {}, f"gamma0=1e-308, eta=1 at dual-above-start[nu=0,eta=1,t=0.5]: {ITO_OUT_OF_RANGE}"),
    ],
    ids=["delta-inverse-gamma-mean", "1e300-default", "1e-308-default"],
)
def test_ito_scenario_refuses_a_gamma0_outside_the_float_range(
    tmp_path, capsys, gamma0, overrides, message
):
    doc = ito_doc(gamma0=gamma0, **overrides)
    if not overrides:
        del doc["checks"]  # the default suite
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("checks", [["inverse-gamma-mean"], ["forward-drift"]])
def test_ito_constant_statistic_has_a_null_z_score(tmp_path, capsys, checks):
    # Z = 1 on every path, so w = (1/49) 49 = 1 - 2**-53 and the forward
    # statistic is 0: a standard error of 0, and no z-score. The forward
    # check exited 1 with a traceback on a z-score of -inf
    doc = ito_doc(model={"horizon": 1.0}, nu={"0": 0}, gamma0=49, checks=checks)
    assert main(["run", write_scenario(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rec = json.loads(captured.out)["checks"][f"{checks[0]}[nu=0]"]
    assert rec["std_error"] == 0.0 and rec["details"]["z_score"] is None


def nonreplicable_doc(**overrides):
    """A one-period trinomial scenario whose 1/gamma no portfolio replicates."""
    tree = trinomial_tree()
    return tree_doc(
        tree=tree.to_dict(),
        gamma={"mode": "explicit", "values": {"r": 0.5, "u": 0.4, "m": 1 / 2.2, "d": 1 / 1.5}},
        a_shift={"mode": "explicit", "values": {n: 0.0 for n in tree._dfs_order}},
        **overrides,
    )


def constant_gamma_doc(tree, g, a_shift=None):
    """The default scenario on ``tree`` at the constant gamma ``g``, with the
    solved shift of terminal 0, or the explicit shift ``a_shift`` at every
    node."""
    shift = {"mode": "solve", "terminal": 0.0}
    if a_shift is not None:
        shift = {"mode": "explicit", "values": dict.fromkeys(tree._dfs_order, a_shift)}
    return tree_doc(
        tree=tree.to_dict(),
        gamma={"mode": "explicit", "values": dict.fromkeys(tree._dfs_order, g)},
        a_shift=shift,
    )


def overflowing_dual_doc():
    # shifts of 1e308 and -1e308 below the root: their difference, which
    # the root's one-step program reads in its node's units, overflows, so
    # the program's objective leaves the float range at its start
    doc = constant_gamma_doc(binomial_tree(), 1.0, 0.0)
    doc["a_shift"]["values"].update(u=1e308, d=-1e308)
    return dict(doc, checks=["dual-self-generation"])


OVERFLOWING_DUAL_ERROR = (
    "error: dual program below node 'r' on [0, 1] leaves the float range: shift -inf, m 1.0\n"
)


def run_with_warnings_printed(tmp_path, doc):
    """``forwardperf run`` on ``doc`` in a process of its own, where
    warnings print to stderr."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(forwardperf.__file__).parents[1]),
        PYTHONWARNINGS="default",
    )
    return subprocess.run(
        [sys.executable, "-m", "forwardperf", "run", write_scenario(tmp_path, doc)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g", [1e-306, 1e-307, 1e-308])
@pytest.mark.parametrize("tree", [binomial_tree, two_period_tree])
def test_tree_scenario_runs_a_gamma_at_the_float_range_end(tmp_path, capsys, tree, g):
    # the dual sweep carries shifts, in each node's units, so a gamma down
    # to the float range's end runs, where the eta = 1 value h(1/gamma) -
    # a/gamma overflows: the solved shift passes every check, and a = 0
    # fails with a report; neither warns
    tree = tree()
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, constant_gamma_doc(tree, g))])
    assert (code, report["all_passed"]) == (0, True)
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, constant_gamma_doc(tree, g, 0.0))])
    assert (code, report["all_passed"]) == (1, False)
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tree_scenario_refuses_a_dual_program_outside_the_float_range(tmp_path, capsys):
    # refused with exit 2, and the program's overflows warn nothing
    assert main(["run", write_scenario(tmp_path, overflowing_dual_doc())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == OVERFLOWING_DUAL_ERROR


def test_refused_dual_program_prints_only_its_error_line(tmp_path):
    proc = run_with_warnings_printed(tmp_path, overflowing_dual_doc())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", OVERFLOWING_DUAL_ERROR)


def test_gamma_at_the_float_range_end_prints_no_warning(tmp_path):
    proc = run_with_warnings_printed(tmp_path, constant_gamma_doc(two_period_tree(), 1e-308))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["all_passed"] is True


def _replicated(gamma0, psi):
    return {"mode": "replicate", "gamma0": gamma0, "psi": {"r": psi}}


@pytest.mark.parametrize(
    "gamma, a_shift, error",
    [
        # 1/gamma overflows, with the solved shift and with a = 0
        (1e-310, None, "$.gamma.values: gamma 1e-310 at 'r'"),
        (5e-324, 0.0, "$.gamma.values: gamma 5e-324 at 'r'"),
        # a replicated 1/gamma of 1e-310 at a child: its gamma overflows
        (_replicated(1e308, -0.99e-308), 0.0, "$.gamma.psi: gamma inf at 'u'"),
        # the replicated 1/gamma overflows, and the gamma underflows to 0
        (_replicated(1e-308, 1e308), 0.0, "$.gamma.psi: gamma 0.0 at 'u'"),
        (_replicated(1e-310, 0.0), 0.0, "$.gamma.gamma0: gamma 1e-310 at 'r'"),
    ],
    ids=["explicit-1e-310", "explicit-5e-324", "replicated-gamma-inf", "replicated-gamma-0", "gamma0-1e-310"],
)
def test_tree_scenario_refuses_a_gamma_outside_the_float_range(tmp_path, gamma, a_shift, error):
    # refused as the scenario is read, with one error line, naming the
    # JSON path and the node, and no warning
    tree = binomial_tree()
    doc = constant_gamma_doc(tree, 1.0, a_shift)
    doc["gamma"] = gamma if isinstance(gamma, dict) else constant_gamma_doc(tree, gamma)["gamma"]
    proc = run_with_warnings_printed(tmp_path, doc)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {error} is outside the float range: gamma and 1/gamma must be finite\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "dprices, shifts",
    [((1.0, -1.0), (1e308, -1e308)), ((1.0, -1.0), (-1e308, 1e308)), ((1e300, -1e-300), (1e308, -1e308))],
    ids=["edge-nan", "edge-mirror", "edge-zero-slope"],
)
def test_tree_scenario_refuses_a_factor_bracket_past_the_float_range(tmp_path, capsys, dprices, shifts):
    # the root's factor solve brackets its minimiser only past the float
    # range. It escaped as a StopIteration from the gap record, or spent
    # its Newton steps on an infinite bracket; the large increments also
    # overflowed the replication's least squares with a RuntimeWarning
    tree = binomial_tree(p_up=0.5, d=dprices)
    doc = constant_gamma_doc(tree, 1.0, 0.0)
    doc["a_shift"]["values"].update(u=shifts[0], d=shifts[1])
    doc["checks"] = ["primal-self-generation"]
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr() == (
        "", "error: factor recursion at node 'r' on [0, 1]: minimize_exp_sum: bracket expansion failed\n"
    )


def test_tree_scenario_runs_a_factor_recursion_at_a_gamma_of_1e_300(tmp_path, capsys):
    # a constant gamma of 1e-300 makes the slopes of the primal factor
    # recursion about 1e-300, where a bracket step of 1 in pi could not
    # bracket the minimiser: the solve runs at its problem's own scale, and
    # the constant field passes every check, as it does at gamma 1
    tree = two_period_tree()
    doc = tree_doc(gamma={"mode": "explicit", "values": {n: 1e-300 for n in tree._dfs_order}})
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert (code, report["all_passed"]) == (0, True)
    assert report["checks"].keys() == run_json(capsys, ["run", write_scenario(tmp_path, tree_doc())])[1]["checks"].keys()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tree_scenario_replicates_a_gamma_over_increments_past_1e154(tmp_path, capsys):
    # price moves of +-1e200 and psi 0.5e-200, so 1/gamma is exactly 1.5
    # and 0.5 at the children: d @ d of the raw increments overflowed, and
    # the primal check was refused for a gamma it replicates. It runs, and
    # fails with a report: a = 0 is not the solved shift
    doc = constant_gamma_doc(binomial_tree(p_up=0.5, d=(1e200, -1e200)), 1.0, 0.0)
    doc["gamma"] = _replicated(1.0, 0.5e-200)
    doc["checks"] = ["nflvr", "primal-self-generation"]
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert (code, capsys.readouterr().err) == (1, "")
    assert report["checks"]["nflvr"]["verdict"] == "pass"
    rec = report["checks"]["primal-self-generation[t=0,T=1]"]
    assert (rec["verdict"], rec["worst_node"]) == ("fail", "r")
    assert rec["value"] == pytest.approx(0.1308, abs=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a_shift, code", [(None, 0), (0.0, 1)], ids=["solve", "explicit"])
def test_tree_scenario_solves_dual_programs_over_increments_past_1e154(tmp_path, capsys, a_shift, code):
    # the same tree and gamma, with every default check: the root's
    # one-step dual program carried the raw +-1e200 increments in its
    # price row, so its Newton system overflowed at step 1 and every
    # dual-side read was refused (exit 2). Its row is now the increments
    # over a power of two: the solved shift passes every check, and a = 0
    # fails with a report
    doc = constant_gamma_doc(binomial_tree(p_up=0.5, d=(1e200, -1e200)), 1.0, a_shift)
    doc["gamma"] = _replicated(1.0, 0.5e-200)
    got, report = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert (got, capsys.readouterr().err, report["all_passed"]) == (code, "", code == 0)
    dual = report["checks"]["dual-self-generation[t=0,T=1]"]
    assert dual["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "up, down, psi_root", [(1.0, -1e-13, 0.25), (1e308, -1e308, 0.0)], ids=["ratio-1e13", "moves-1e308"]
)
def test_tree_scenario_runs_lopsided_root_moves(tmp_path, capsys, up, down, psi_root):
    # root moves whose ratio is 1e13, or whose difference overflows: a
    # vertex tolerance of 1e-12 gave the small move's child no mass, and
    # the overflowing pair was the vertex [0, 0], so the tree was refused
    # as arbitrage (exit 2). Exact vertices charge both children
    code = main(["run", write_scenario(tmp_path, lopsided_scenario(up, down, psi_root))])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, err, report["all_passed"]) == (0, "", True)
    assert report["checks"]["nflvr"]["verdict"] == "pass"
    assert {rec["verdict"] for rec in report["checks"].values()} == {"pass"}


@pytest.mark.parametrize("rho", [1e170, 1e300])
def test_tree_scenario_refuses_a_root_program_past_the_barrier_range(tmp_path, rho):
    # root moves 1 and -1/rho: the root's vertex centroid gives the move 1
    # a mass of about 1/rho, whose square underflows in barrier_minimize
    # from rho of about 1e160. The sweep refuses the program with one
    # error line; a division by zero there printed a RuntimeWarning first
    proc = run_with_warnings_printed(tmp_path, lopsided_scenario(1.0, -1.0 / rho))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        "error: dual program below node 'r' on [0, 2]: barrier_minimize: Newton step 1 is not finite"
    )
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def fail_if_solved(monkeypatch):
    """Make the primal factor recursion and every dual program fail."""

    def fail(*args, **kwargs):
        raise AssertionError("a program was solved")

    monkeypatch.setattr(tree_verifier, "minimize_exp_sum", fail)
    monkeypatch.setattr(tree_verifier, "barrier_minimize", fail)


def test_tree_scenario_refuses_primal_without_replication(tmp_path, capsys, monkeypatch):
    # 1/gamma is not replicable, so the primal value has no factor
    # recursion: the check is refused before anything is solved
    fail_if_solved(monkeypatch)
    doc = nonreplicable_doc(checks=["primal-self-generation"])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "replicates 1/gamma at node 'r'" in err


def test_tree_scenario_fails_dual_records_without_replication(tmp_path, capsys, monkeypatch):
    # the dual program splits into one-step programs only when 1/gamma is
    # replicable; without, the field cannot self-generate, and every dual
    # record fails with the replication certificate, solving nothing. This
    # exited 2 while the check read an eta grid, which needs the split
    fail_if_solved(monkeypatch)
    doc = nonreplicable_doc(checks=["dual-self-generation"])
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert code == 1
    tree = trinomial_tree()
    certificate = tree_verifier.replicate_inverse_gamma(tree, doc["gamma"]["values"])
    assert not certificate.feasible
    assert set(report["checks"]) == {"dual-self-generation", "dual-self-generation[t=0,T=1]"}
    for rec in report["checks"].values():
        assert (rec["verdict"], rec["value"], rec["worst_node"]) == ("fail", certificate.residual, "r")
        assert rec["tolerance"] == certificate.tolerance
        assert rec["notes"] == [tree_verifier._UNREPLICATED]


def test_tree_file_reference(tmp_path, capsys):
    tree = two_period_tree()
    (tmp_path / "tree.json").write_text(json.dumps(tree.to_dict()))
    doc = tree_doc(checks=["nflvr"])
    del doc["tree"]
    doc["tree_file"] = "tree.json"
    path = write_scenario(tmp_path, doc)
    code, rep = run_json(capsys, ["run", path])
    assert code == 0
    assert rep["all_passed"] is True


def test_tree_and_tree_file_exclusive(tmp_path, capsys):
    doc = tree_doc()
    doc["tree_file"] = "also.json"
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "exactly one of 'tree' or 'tree_file'" in capsys.readouterr().err


def test_gamma_replicate_mode(tmp_path, capsys):
    tree = two_period_tree()
    doc = tree_doc(checks=["exponential-conditions"])
    doc["gamma"] = {
        "mode": "replicate",
        "gamma0": 1.0,
        "psi": {nid: 0.1 for nid in tree._dfs_order if not tree.is_leaf(nid)},
    }
    path = write_scenario(tmp_path, doc)
    code, rep = run_json(capsys, ["run", path])
    assert code == 0
    assert rep["all_passed"] is True


def test_gamma_replicate_nonpositive(tmp_path, capsys):
    tree = two_period_tree()
    doc = tree_doc(checks=["nflvr"])
    doc["gamma"] = {
        "mode": "replicate",
        "gamma0": 1.0,
        "psi": {nid: 5.0 for nid in tree._dfs_order if not tree.is_leaf(nid)},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "nonpositive" in capsys.readouterr().err


# -- scenario validation -------------------------------------------------


def test_unknown_key_reports_json_path(tmp_path, capsys):
    doc = tree_doc()
    doc["xi_gird"] = [0.0]
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "$.xi_gird" in err and "unknown key" in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"xi_grid": [0.0]}, "$.xi_grid: unknown key"),
        ({"eta_grid": [1.0]}, "$.eta_grid: unknown key"),
        (
            {"checks": ["nflvr", "conjugacy"]},
            "$.checks[1]: unknown check 'conjugacy'; known: nflvr, primal-self-generation, "
            "dual-self-generation, exponential-conditions, forward-supermartingale",
        ),
    ],
    ids=["xi_grid", "eta_grid", "conjugacy"],
)
def test_tree_scenario_refuses_the_wealth_and_eta_grids_and_conjugacy(tmp_path, capsys, overrides, message):
    # every tree gap is in shift units, which no wealth or dual argument
    # moves, and the conjugacy records compared two computations of one
    # value, which no field fails: the three are unknown, by JSON path
    assert main(["run", write_scenario(tmp_path, tree_doc(**overrides))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_schema_version_gate(tmp_path, capsys):
    # true and 1.0 compare equal to 1, but only the integer 1 is version 1
    for version, error in (
        (99, "expected 1"),
        (True, "expected an integer, got bool"),
        (1.0, "expected an integer, got float"),
    ):
        path = write_scenario(tmp_path, tree_doc(schema_version=version))
        assert main(["run", path]) == 2
        assert f"$.schema_version: {error}" in capsys.readouterr().err


def _full_node_map_doc(section, key):
    """tree_doc on two_period_tree (root r, then a and b, leaves a1, a2, b1
    and b2) with the node map at ``$.section.key`` given at every node it
    takes."""
    tree = two_period_tree()
    nodes, inner = tree._dfs_order, [n for n in tree._dfs_order if not tree.is_leaf(n)]
    spec = {
        ("gamma", "values"): {"mode": "explicit", "values": dict.fromkeys(nodes, 1.0)},
        ("gamma", "psi"): {"mode": "replicate", "gamma0": 1.0, "psi": dict.fromkeys(inner, 0.0)},
        ("a_shift", "values"): {"mode": "explicit", "values": dict.fromkeys(nodes, 0.0)},
        ("a_shift", "terminal"): {"mode": "solve", "terminal": dict.fromkeys(tree.leaves(), 0.0)},
        ("a_shift", "offsets"): {"mode": "solve", "terminal": 0.0, "offsets": {"r": 0.1}},
    }[section, key]
    return tree_doc(**{section: spec})


@pytest.mark.parametrize(
    "section, key, kind, stray, missing",
    [
        ("gamma", "values", "node", "x", "b1"),
        ("gamma", "psi", "non-leaf node", "a1", "a"),
        ("a_shift", "values", "node", "x", "b1"),
        ("a_shift", "terminal", "leaf", "a", "b1"),
        ("a_shift", "offsets", "node", "x", None),
    ],
    ids=["gamma.values", "gamma.psi", "a_shift.values", "a_shift.terminal", "a_shift.offsets"],
)
def test_node_maps_refuse_nodes_the_tree_does_not_have(tmp_path, capsys, section, key, kind, stray, missing):
    # refused with their path, not ignored; a leaf left out of the terminal
    # shift must not escape as a ValueError traceback
    doc = _full_node_map_doc(section, key)
    assert main(["run", write_scenario(tmp_path, doc)]) in (0, 1)
    capsys.readouterr()
    doc[section][key][stray] = 0.5
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert f"$.{section}.{key}: unknown {kind} {stray!r}" in capsys.readouterr().err
    if missing is not None:
        del doc[section][key][stray], doc[section][key][missing]
        assert main(["run", write_scenario(tmp_path, doc)]) == 2
        assert f"$.{section}.{key}: no value for {kind} {missing!r}" in capsys.readouterr().err


def test_invalid_json_diagnostics(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"kind": ')
    assert main(["run", str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_nonfinite_constant_rejected(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text('{"schema_version": 1, "kind": "tree-verify", "tolerance": NaN}')
    assert main(["run", str(p)]) == 2
    assert "non-finite constant" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["$.tolerance", "$.gamma0", "$.tree.nodes[0].branches[0].dprice"])
def test_integer_too_large_for_a_float_is_refused(tmp_path, capsys, path):
    # json reads a 401-digit integer exactly; float() of it overflows
    big = 10**400
    if path == "$.gamma0":
        doc = ito_doc(gamma0=big)
    elif path == "$.tolerance":
        doc = tree_doc(tolerance=big)
    else:
        doc = tree_doc()
        doc["tree"]["nodes"][0]["branches"][0]["dprice"] = big
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert f"{path}: too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["scenario", "tree_file"])
def test_integer_too_long_to_read_is_refused(tmp_path, capsys, where):
    # json.loads raises a plain ValueError on an integer of more than
    # sys.get_int_max_str_digits() (4,300) digits; the refusal names the file
    doc = tree_doc()
    doc["tree"]["nodes"][0]["branches"][0]["dprice"] = "BIG"
    if where == "tree_file":
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(doc.pop("tree")).replace('"BIG"', "1" * 5001))
        doc["tree_file"] = "tree.json"
        named = str(tree_path)
    path = write_scenario(tmp_path, doc)
    if where == "scenario":
        Path(path).write_text(Path(path).read_text().replace('"BIG"', "1" * 5001))
        named = path
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err and "4300" in captured.err


def test_tree_scenario_refuses_forward_check_without_replication(tmp_path, capsys):
    # a gamma that no portfolio replicates is refused by the forward check
    # before anything is computed, with ReplicationError (exit 2), as the
    # primal and dual values refuse it
    doc = nonreplicable_doc(checks=["forward-supermartingale"])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: forward measures need a replicable 1/gamma: no portfolio replicates 1/gamma "
        "at node 'r' (residual 0.08)\n"
    )


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_unknown_check_name(tmp_path, capsys):
    doc = tree_doc(checks=["conjugacyy"])
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "$.checks[0]" in capsys.readouterr().err


def test_bad_time_pairs(tmp_path, capsys):
    doc = tree_doc(time_pairs=[[1, 1]])
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "$.time_pairs[0]" in capsys.readouterr().err


def test_horizon_0_tree_refuses_checks_that_need_a_time_pair(tmp_path, capsys):
    # a tree of horizon 0 has no time pair [t, T]: a check over windows would
    # pass on none
    doc = tree_doc(
        tree={"horizon": 0, "nodes": [{"id": "r", "time": 0}]},
        gamma={"mode": "explicit", "values": {"r": 1.0}},
    )
    for checks, name in (
        (None, "primal-self-generation"),
        (["nflvr", "forward-supermartingale"], "forward-supermartingale"),
    ):
        if checks:
            doc["checks"] = checks
        assert main(["run", write_scenario(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: $.checks: {name!r} needs a time pair [t, T]; the tree's horizon is 0\n"
        )
    doc["checks"] = ["nflvr"]
    code, rep = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert code == 0 and rep["all_passed"]


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("horizon",), 2.9, "horizon: expected an integer, got float"),
        (("horizon",), "2", "horizon: expected an integer, got str"),
        (("nodes", 1, "time"), 1.7, "nodes[1].time: expected an integer, got float"),
        (("nodes", 1, "time"), True, "nodes[1].time: expected an integer, got bool"),
        (("nodes", 1, "time"), "1", "nodes[1].time: expected an integer, got str"),
        (
            ("nodes", 0, "branches", 0, "prob"),
            "0.6",
            "nodes[0].branches[0].prob: expected a number, got str",
        ),
        (
            ("nodes", 0, "branches", 0, "prob"),
            True,
            "nodes[0].branches[0].prob: expected a number, got bool",
        ),
        (
            ("nodes", 4, "branches", 1, "dprice"),
            None,
            "nodes[4].branches[1].dprice: expected a number, got NoneType",
        ),
        (("nodes", 0, "branches"), 5, "nodes[0].branches: expected a list, got int"),
        (("nodes", 1, "id"), 7, "nodes[1].id: expected a string, got int"),
        (
            ("nodes", 4, "branches", 0, "child"),
            ["b1"],
            "nodes[4].branches[0].child: expected a string, got list",
        ),
        (
            ("nodes", 0, "branches", 0),
            ["a", 0.6, 1.0],
            "nodes[0].branches[0]: expected an object, got list",
        ),
        (("nodes", 2), ["a1", 2], "nodes[2]: expected an object, got list"),
        (("nodes",), {"r": {"time": 0}}, "nodes: expected a list, got dict"),
    ],
)
def test_tree_document_of_the_wrong_types_refused(tmp_path, capsys, where, value, message):
    # no field of a tree document is coerced: each is refused with its
    # scenario path, or with the tree file's path and its path in the file
    doc = tree_doc()
    tree = doc["tree"]
    target = tree
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: $.tree.{message}\n"
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    del doc["tree"]
    doc["tree_file"] = "tree.json"
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'tree.json'}: {message}\n"


@pytest.mark.parametrize(
    "tree, message",
    [
        ([], "$.tree: expected an object, got list"),
        ({"horizon": 1}, "$.tree: missing required key 'nodes'"),
        ({"horizon": 1, "nodes": [], "color": "red"}, "$.tree.color: unknown key"),
    ],
)
def test_tree_document_keys_refused_with_their_path(tmp_path, capsys, tree, message):
    doc = tree_doc()
    doc["tree"] = tree
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_duplicate_time_pair_refused(tmp_path, capsys):
    # both pairs would tag their records [t=0,T=1]
    doc = tree_doc(time_pairs=[[0, 1], [0, 1]])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: $.time_pairs[1]: duplicate time pair")


def test_unknown_kind(tmp_path, capsys):
    path = write_scenario(tmp_path, {"schema_version": 1, "kind": "mystery"})
    assert main(["run", path]) == 2
    assert "unknown kind" in capsys.readouterr().err


# -- ito scenarios -------------------------------------------------------


def test_ito_scenario_runs(tmp_path, capsys):
    path = write_scenario(tmp_path, ito_doc())
    code, rep = run_json(capsys, ["run", path])
    assert code == 0
    assert set(rep["checks"]) == {
        *(f"inverse-gamma-mean[nu={label}]" for label in ("0", "phi", "phi+0.4", "phi-0.4", "0.8")),
        "mc-expected-false-failures",
    }


# models with risk-aversion volatility (theta, delta, phi, rho), by the
# default suite or with the optimum asked for alone: delta with and
# without phi, and the degenerate delta = theta with neither phi nor rho,
# where the dual value is constant up to rounding
DELTA_SCENARIOS = {
    "delta-default": ({"horizon": 1.0, "theta": 0.5, "delta": 0.2}, None),
    "delta-optimum": (
        {"horizon": 1.0, "theta": 0.5, "delta": 0.2},
        ["dual-martingale-at-optimum"],
    ),
    "delta-phi-default": ({"horizon": 1.0, "theta": 0.5, "delta": 0.2, "phi": 0.3}, None),
    "delta-phi-optimum": (
        {"horizon": 1.0, "theta": 0.5, "delta": 0.2, "phi": 0.3},
        ["dual-martingale-at-optimum"],
    ),
    "degenerate-default": ({"horizon": 1.0, "theta": 0.5, "delta": 0.5}, None),
}


@pytest.mark.parametrize("case", list(DELTA_SCENARIOS))
def test_ito_delta_models_run_and_pass(tmp_path, capsys, case):
    # the dual drift's closed form holds for every delta, so every
    # requested check runs, the optimum included, and passes: nothing is
    # refused or skipped. A default suite holds 40 mean records (32 at phi
    # = 0, where the default family holds 4 loads), among them the
    # optimum's, which are the level tests of the load phi and name it in
    # a note; at confidence 0.9999 one of them misses its band once in 250
    # runs
    model, checks = DELTA_SCENARIOS[case]
    doc = ito_doc(model=model, n_paths=2000, n_steps=16, checks=checks, confidence=0.9999)
    if checks is None:
        del doc["checks"]
    code, rep = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert code == 0, [tag for tag, rec in rep["checks"].items() if rec["verdict"] != "pass"]
    optimum = [
        rec for tag, rec in rep["checks"].items()
        if "at-optimum" in tag or any("dual-martingale-at-optimum" in n for n in rec["notes"])
    ]
    assert len(optimum) == 4 and all(rec["std_error"] is not None for rec in optimum)
    assert not any("skipped" in note for rec in rep["checks"].values() for note in rec["notes"])


@pytest.mark.parametrize("seed", range(1, 6))
def test_ito_statistic_constant_up_to_rounding_passes(tmp_path, capsys, seed):
    # theta = delta, rho = 0 and nu = phi make a_T - log z~_T = a0 on every
    # path up to rounding: the forward-drift record of the load phi reads a
    # mean of about 6e-18 with a standard error of about 4e-19. Its band
    # carries the rounding floor, so rounding noise is not a failure
    doc = ito_doc(
        model={"horizon": 1.0, "theta": 0.5, "delta": 0.5, "phi": 0.3, "rho": 0.0},
        a0=0.0, n_steps=16, n_paths=20_000, antithetic=False, seed=seed,
        checks=["inverse-gamma-mean", "forward-drift"],
    )
    code, rep = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert code == 0, [tag for tag, rec in rep["checks"].items() if rec["verdict"] != "pass"]
    rec = rep["checks"]["forward-drift[nu=phi]"]
    assert rec["std_error"] < 1e-17
    assert abs(rec["value"] - rec["target"]) <= rec["details"]["rounding_floor"]


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before validating the scenario")

    monkeypatch.setattr(cli, "simulate_paths", refuse)


@pytest.mark.parametrize(
    "overrides, json_path, message",
    [
        ({"time_indices": [0, 999]}, "$.time_indices[1]", "must be <= n_steps"),
        ({"confidence": 1.0}, "$.confidence", "must be < 1"),
        ({"eta_list": [1.0, -0.5]}, "$.eta_list[1]", "nonnegative"),
        ({"n_paths": 401}, "$.n_paths", "even n_paths"),
        ({"n_chunks": 201}, "$.n_chunks", "stream count (200)"),
        ({"n_paths": 150}, "$.n_paths", "at least 100 samples, got 75"),
        # values whose record tags would collide
        ({"eta_list": [1.0, 1.0]}, "$.eta_list[1]", "prints as '1' in record tags"),
        ({"eta_list": [2.0, 1.0, 1.00000000001]}, "$.eta_list[2]", "as $.eta_list[1] does"),
        (
            {"n_steps": 2_000_000, "time_indices": [1_000_000, 1_000_001]},
            "$.time_indices[1]",
            "prints as '0.5' in record tags",
        ),
        ({"time_indices": 5}, "$.time_indices", "expected a list of integers, got int"),
        ({"time_indices": "48"}, "$.time_indices", "expected a list of integers, got str"),
        # a dual check with no time above 0 has nothing to test
        ({"time_indices": []}, "$.time_indices", "'dual-submartingale' needs a time index above 0"),
        ({"time_indices": [0, 0]}, "$.time_indices", "needs a time index above 0"),
        # a load given twice would run each of its tests twice
        ({"nu": {"a": 0.3, "b": 0.3}}, "$.nu", "loads 'a' and 'b' are equal at every step"),
        ({"nu": {"a": 0.0, "b": -0.0}}, "$.nu", "loads 'a' and 'b' are equal at every step"),
    ],
)
def test_ito_bad_inputs_rejected_before_simulating(
    tmp_path, capsys, no_simulation, overrides, json_path, message
):
    doc = ito_doc(checks=["dual-submartingale"], **overrides)
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {json_path}: ") and message in err


def test_ito_optimum_without_a_time_above_0_refused(tmp_path, capsys, no_simulation):
    doc = ito_doc(checks=["dual-martingale-at-optimum"], time_indices=[0])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "error: $.time_indices: 'dual-martingale-at-optimum' needs a time index above 0\n"
    )


def test_ito_repeated_time_index_collapses():
    # an index given twice is one time with one set of records, not a
    # collision of tags
    doc = ito_doc(checks=["dual-submartingale"], time_indices=[4, 8])
    once = run_ito_scenario(doc).to_json()
    assert run_ito_scenario({**doc, "time_indices": [8, 4, 8]}).to_json() == once


def test_ito_one_step_grid_runs_every_check(tmp_path, capsys):
    # the default time indices 0, n_steps // 2 and n_steps are 0, 0 and 1
    # on a one-step grid: one time above 0, so the dual-submartingale check
    # writes its level records alone, each once (an increment from 0
    # would restate them), the optimum's tests are those of the load phi,
    # and the terminal checks write their own records
    doc = ito_doc(n_steps=1, checks=list(mc_verifier.MC_CHECKS))
    code, out = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    assert code in (0, 1)
    tags = list(out["checks"])
    assert not [tag for tag in tags if tag.startswith("dual-submartingale[")]
    levels = [tag for tag in tags if tag.startswith("dual-above-start[")]
    assert len(levels) == 5 * 2 and all(tag.endswith(",t=1]") for tag in levels)
    optimum = [tag for tag in levels if len(out["checks"][tag]["notes"]) == 2]
    assert optimum == ["dual-above-start[nu=phi,eta=1,t=1]", "dual-above-start[nu=phi,eta=2,t=1]"]
    for check in ("inverse-gamma-mean", "forward-drift"):
        assert any(tag.startswith(f"{check}[") for tag in tags), check


README_MODEL = {
    "horizon": 1.0, "breakpoints": [0.0, 0.5], "theta": [0.5, 0.5], "delta": 0.0,
    "phi": [0.3, 0.0], "rho": 0.1,
}
# the default suite (or the checks given) where the default family holds
# phi, where its loads coincide, and where the family misses phi
ONE_TEST_DOCS = {
    "readme-suite": {"model": README_MODEL},
    "readme-optimum": {"model": README_MODEL, "checks": ["dual-martingale-at-optimum"]},
    "phi=0.3": {},
    # phi is not a load of the family, as in acceptance criterion 6(a)
    "family-0-0.7": {"nu": {"0": 0.0, "0.7": 0.7}},
    # the default load "phi" is the load "0"
    "phi=0": {"model": {"horizon": 1.0, "theta": 0.5, "phi": 0.0}},
    # "phi-0.4" is the load "0", and "phi+0.4" the load "0.8"
    "phi=0.4": {"model": {"horizon": 1.0, "theta": 0.5, "phi": 0.4}},
}


def one_test_doc(case, antithetic):
    doc = ito_doc(antithetic=antithetic, **ONE_TEST_DOCS[case])
    if "checks" not in ONE_TEST_DOCS[case]:
        del doc["checks"]
    return doc


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
@pytest.mark.parametrize("case", list(ONE_TEST_DOCS))
def test_expected_false_failures_count_the_mean_tests_run(monkeypatch, case, antithetic):
    # every record of the pass is one mean test, so the count the report
    # discloses is the number of tests run
    calls = []
    original = mc_verifier.mc_mean_test

    def counted(*args, **kwargs):
        calls.append(kwargs["check_tag"])
        return original(*args, **kwargs)

    monkeypatch.setattr(mc_verifier, "mc_mean_test", counted)
    report = run_ito_scenario(one_test_doc(case, antithetic))
    (note,) = report["mc-expected-false-failures"].notes
    assert note.startswith(f"{len(calls)} statistical checks at confidence "), (len(calls), note)


def test_ito_phi_of_negative_zero_is_phi_of_zero():
    # the default family drops the load "phi" as a repeat of "0", and the
    # optimum reads the density of "0", whatever the sign of phi's zero
    reports = []
    for phi in (0.0, -0.0):
        doc = ito_doc(model={"horizon": 1.0, "theta": 0.5, "phi": phi})
        del doc["checks"]
        reports.append(run_ito_scenario(doc).to_json())
    assert reports[0] == reports[1]
    tags = json.loads(reports[1])["checks"]
    assert not [tag for tag in tags if "nu=phi," in tag or "nu=phi]" in tag]


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
@pytest.mark.parametrize("case", list(ONE_TEST_DOCS))
def test_no_two_ito_records_restate_one_test(case, antithetic):
    # a repeated load, or the optimum beside the level tests of the load
    # phi, would give two records of one statistic against one target
    report = run_ito_scenario(one_test_doc(case, antithetic))
    seen = {}
    for rec in report.records():
        if rec.std_error is not None:
            key = (rec.value, rec.target, rec.tolerance, rec.std_error)
            assert key not in seen, (seen.get(key), rec.check_tag)
            seen[key] = rec.check_tag


@pytest.mark.parametrize("checks, n_sim", [(None, 1), (["regularity"], 0)])
def test_ito_scenario_simulates_once(monkeypatch, checks, n_sim):
    calls = {"simulate_paths": 0, "build_forward_exponential": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the scenario simulates, and its pass builds the fields on each run
    for module, name in zip((cli, mc_verifier), calls):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    doc = ito_doc(n_paths=2000, n_steps=16)
    if checks is None:
        del doc["checks"]
        report = run_ito_scenario(doc)
        assert report.all_passed, report.to_text()
    else:
        # the regularity facts hold for every model that parses
        # (``mc_verifier``), so the check is gone and its name is refused
        # before anything is simulated
        doc["checks"] = checks
        with pytest.raises(ScenarioError, match=r"^\$\.checks\[0\]: unknown check 'regularity'"):
            run_ito_scenario(doc)
    assert calls == {"simulate_paths": n_sim, "build_forward_exponential": n_sim}


def density_builds(monkeypatch, doc):
    """``doc``'s report and the number of densities its pass built: the
    drawn log-densities, the first stage of ``density_path``."""
    calls = []
    original = ito_engine.drawn_log_density

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (ito_engine, mc_verifier):
        monkeypatch.setattr(module, "drawn_log_density", counted)
    return run_ito_scenario(doc), len(calls)


def test_ito_scenario_builds_each_density_once(monkeypatch):
    # one density per load of the default family (5); the optimum's is the
    # "phi" load's, and with delta = 0 the forward check's z~ (B-load
    # theta - delta) is each load's own, so neither is built again (the
    # pass built 11 when each reader built its own)
    doc = ito_doc(n_paths=2000, n_steps=16)
    del doc["checks"]
    report, builds = density_builds(monkeypatch, doc)
    assert report.all_passed, report.to_text()
    assert builds == 5


@pytest.mark.parametrize(
    "overrides, builds",
    [
        # theta - delta differs from theta: each load's z~ is built on its
        # own (5 + 5); the optimum reads the "phi" load's density
        ({"model": {"horizon": 1.0, "theta": 0.5, "delta": 0.2, "phi": 0.3}}, 10),
        # no load of the family is phi: the optimum has a density of its own,
        # and z~ is each load's density again (2 + 1)
        ({"nu": {"a": 0.0, "b": 0.8}, "checks": list(mc_verifier.MC_CHECKS)}, 3),
    ],
    ids=["shifted-theta", "family-without-phi"],
)
def test_ito_scenario_builds_each_distinct_density_once(monkeypatch, overrides, builds):
    doc = ito_doc(n_paths=2000, n_steps=16, **overrides)
    if "checks" not in overrides:
        del doc["checks"]  # the default suite
    assert density_builds(monkeypatch, doc)[1] == builds


# SHA-256 of the default-suite report of ito_doc(n_paths=2000, n_steps=16),
# re-pinned when ito-verify began to simulate only the pass's simulated
# columns (here 0, 8 and 16): each path draws the Brownian sums over
# [0, 8) and [8, 16) directly, two Box-Muller steps of its stream instead
# of sixteen, so its draws changed. Each Philox block (counter
# (stream, j)) serves intervals 2j and 2j + 1 through the full Box-Muller
# pair, and the densities and fields are read from the running sums S_B
# and S_W: later work must not move a byte of it, whatever the chunking.
# Re-pinned once more when every mean record became a two-sided test
# against its closed-form mean: the dual records' targets took the drift
# (1/2)(eta / gamma0) integral (nu - phi)^2, each band its rounding floor
# (details "rounding_floor"), and ito-regularity-class left the report;
# no estimate, standard error or verdict moved. Re-pinned once more when
# every Ito record became one that can fail: the regularity check's two
# records and the forward-mass records (the inverse-gamma-mean statistic
# in units of gamma0) left the report, and the expected-false-failure
# count went from 69 mean tests to 64; at gamma0 = 1 every other record
# kept its bytes. Re-pinned once more when the dual-submartingale check
# stopped testing increments from time 0, which restate dual-above-start
# (Y_0 = V(0, eta) on every path): those records left the report and the
# count went from 64 mean tests to 44; every other record kept its bytes.
# Re-pinned once more when the pass stopped writing the optimum's records
# as copies of the level tests of the load phi: the copies left the
# report, those level records gained a note naming the optimum, and the
# count went from 44 mean tests to 40; every other record kept its bytes.
# Re-pinned once more when the Box-Muller angle legs came to be read from a
# table and short polynomials instead of libm's cos and sin: every leg
# moved by rounding (1.1e-15 at most), and with it the last digits of the
# values, but no verdict. The second digest, here and below, is numpy's
# path without X86_V4, where float64 exp and log round differently
PINNED_ITO_REPORT_SHA256 = on_this_dispatch(
    "3d8dc87a8c276645f2ea7251854635a902c7a4ea4bd5f7676b64cdc4f379cbd9",
    "818863e5b96862f14ecd6b39c1f1b265566e144c9b1011558d354c34d8279ad6",
)


def reports_in_runs(monkeypatch, doc):
    """``doc``'s report JSON with its streams simulated in 1, 2 and 16
    runs, the last two split through a smaller ``DRAW_BUDGET``; with the
    columns each simulated run drew."""
    columns = []
    original = cli.simulate_paths

    def recorded(*args, **kwargs):
        columns.append(list(kwargs["columns"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recorded)
    n_streams = doc["n_paths"] // 2 if doc.get("antithetic", True) else doc["n_paths"]
    texts = []
    for runs in (1, 2, 16):
        if texts:
            # streams per run, times the intervals a run draws
            intervals = len(columns[-1]) - 1
            monkeypatch.setattr(cli, "DRAW_BUDGET", -(-n_streams // runs) * intervals)
        done = len(columns)
        texts.append(run_ito_scenario(doc).to_json())
        assert len(columns) - done == runs
    return texts, columns


def test_ito_report_bytes_pinned(monkeypatch):
    doc = ito_doc(n_paths=2000, n_steps=16)
    del doc["checks"]
    texts, _ = reports_in_runs(monkeypatch, doc)
    for text in texts:
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ITO_REPORT_SHA256


# Scenarios whose simulated columns are the whole grid: time indices on
# every column, or a load that changes at every step. SHA-256 of their
# default-suite reports, taken before ito-verify simulated fewer columns
# than the grid: a full-grid run keeps its bytes. Re-pinned with the
# report above, when the mean records became two-sided against their
# closed-form means, again when the regularity and forward-mass records
# left the report, and "every-time-index" again when the increments from
# time 0 left it and when the optimum's copies left it, for the same
# reasons, and both again when the angle legs left libm
FULL_GRID_DOCS = {
    "every-time-index": {"n_paths": 2000, "n_steps": 8, "time_indices": list(range(9))},
    "ramp-load": {
        "n_paths": 1003,
        "n_steps": 16,
        "antithetic": False,
        "eta_list": [0.5, 3.0],
        "time_indices": [3, 8, 13],
        "nu": {"flat": 0.2, "ramp": [0.05 * k for k in range(16)]},
    },
}
PINNED_FULL_GRID_SHA256 = {
    "every-time-index": on_this_dispatch(
        "4adbd95cbec2982e777ef0b39310a14f0a4872e97dd8e79ab71b01d9cc6763cb",
        "023a3e4f4e29faf66a5c045df58ce3ac8fa4079d5f3f0ed39ac9d6663354b26e",
    ),
    "ramp-load": on_this_dispatch(
        "5b3a10ce8fbc2b02823afa374a77f9e2714de28edfb9871e89d773126b169617",
        "b84838c2beba5e69f05fbb83c994af15a2ddcd595506d45fed70dc2931fb8c94",
    ),
}


@pytest.mark.parametrize("case", list(FULL_GRID_DOCS))
def test_ito_full_grid_report_bytes_pinned(monkeypatch, case):
    doc = ito_doc(**FULL_GRID_DOCS[case])
    del doc["checks"]
    texts, columns = reports_in_runs(monkeypatch, doc)
    for text in texts:
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FULL_GRID_SHA256[case]
    assert all(c == list(range(doc["n_steps"] + 1)) for c in columns)


CHUNKED_DOCS = {
    # 1003 and 601 streams split unevenly into 3 and 7 chunks
    "antithetic": {"n_paths": 2006, "n_steps": 16},
    "plain-custom": {
        "n_paths": 1003,
        "n_steps": 16,
        "antithetic": False,
        "eta_list": [0.5, 3.0],
        "time_indices": [3, 8, 13],
        "nu": {"flat": 0.2, "ramp": [0.05 * k for k in range(16)]},
    },
    # a huge load starves the forward weight mass: a band miss, reported
    "mass-miss": {
        "n_paths": 1202,
        "n_steps": 32,
        "checks": ["inverse-gamma-mean", "forward-drift"],
        "nu": {"0": 0.0, "big": 10.0},
    },
}


# the simulated intervals of each case: columns 0, 8 and 16; every step
# for the ramp load; 0, 16 and 32
CHUNKED_INTERVALS = {"antithetic": 2, "plain-custom": 16, "mass-miss": 2}


def test_every_ito_record_family_fails_in_some_scenario():
    # a record that no scenario can fail is evidence of nothing: each family
    # of the default report fails in one of these scenarios. The count of
    # expected false failures is exempt: it is a count, not a test, and
    # perfbench's judge requires it
    doc = ito_doc(n_paths=2000, n_steps=16)
    del doc["checks"]
    report = run_ito_scenario(doc)
    assert report.all_passed, report.to_text()
    families = {_family(rec.check_tag) for rec in report.records()}
    families.remove("mc-expected-false-failures")
    scenarios = [
        # the starved load misses its mass and its drift
        ito_doc(**CHUNKED_DOCS["mass-miss"]),
        # every field the scenarios build is self-generating, so the dual
        # records fail only when their band shrinks below the sampling
        # error; a perturbed field (ROADMAP item 7) would fail them at the
        # default confidence instead
        {**doc, "confidence": 1e-12},
    ]
    failing = {
        _family(rec.check_tag)
        for scenario in scenarios
        for rec in run_ito_scenario(scenario).records()
        if not rec.verdict
    }
    assert failing == families, families - failing


@pytest.mark.parametrize("case", list(CHUNKED_DOCS))
def test_ito_output_independent_of_chunking(tmp_path, capsys, monkeypatch, case):
    # the streamed pass holds one run of streams at a time, and its report
    # is byte for byte the one of a single run, however DRAW_BUDGET splits
    # the streams
    calls = []
    original = cli.simulate_paths

    def recorded(spec, n_steps, n_paths, seed, antithetic=True, **kwargs):
        calls.append((kwargs.get("stream_offset", 0), n_paths // 2 if antithetic else n_paths))
        return original(spec, n_steps, n_paths, seed, antithetic=antithetic, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recorded)
    doc = ito_doc(**CHUNKED_DOCS[case])
    if case == "antithetic":
        del doc["checks"]
    n_streams = doc["n_paths"] // 2 if doc.get("antithetic", True) else doc["n_paths"]
    path = write_scenario(tmp_path, doc)
    outputs = set()
    for n_runs in (1, 3, 7):
        cap = -(-n_streams // n_runs)
        monkeypatch.setattr(cli, "DRAW_BUDGET", cap * CHUNKED_INTERVALS[case])
        calls.clear()
        code = main(["run", path])
        captured = capsys.readouterr()
        outputs.add((code, captured.out, captured.err))
        assert len(calls) == n_runs
        assert max(n for _, n in calls) <= cap
        assert [off for off, _ in calls] == list(np.cumsum([0] + [n for _, n in calls[:-1]]))
        assert sum(n for _, n in calls) == n_streams
    (code, out, err), = outputs
    if case == "mass-miss":
        # the starved load misses its bands: statistical records of the
        # report, counted among the expected false failures
        checks = json.loads(out)["checks"]
        assert code == 1 and err == ""
        failing = {tag for tag, rec in checks.items() if rec["verdict"] != "pass"}
        assert "inverse-gamma-mean[nu=big]" in failing
        assert failing <= {"inverse-gamma-mean[nu=big]", "forward-drift[nu=big]"}
        n_stat = sum(1 for rec in checks.values() if rec.get("std_error") is not None)
        assert n_stat == 4
        assert checks["mc-expected-false-failures"]["value"] == pytest.approx(0.003 * n_stat)
    else:
        assert code == 0 and err == ""


def ito_peak_bound(n_streams, n_paths, n_intervals, density_columns, field_columns, b_columns):
    """A bound on the traced peak of an ito-verify run, which is its gather
    phase: what the pass holds, one value a drawn stream for each density
    column and one a path for each field column, plus a run's scratch,
    which cli.DRAW_BUDGET bounds: the running sums of dB and dW over the
    simulated intervals, on at most DRAW_BUDGET // n_intervals streams, the
    draws' tile (its Philox blocks and uniforms, 4 words a block each) and
    the B integral the run's densities share, ``b_columns`` columns.
    reduce's scratch stays below that run scratch. 384 KiB more covers the
    Python objects and the modules numpy imports on first use."""
    run = min(n_streams, cli.DRAW_BUDGET // n_intervals)
    held = 8 * (n_streams * density_columns + n_paths * field_columns)
    scratch = 8 * ((2 * (n_intervals + 1) + b_columns) * run + 2 * 4 * kernels.TILE_BLOCKS)
    return held + scratch + 384 * 2**10


def assert_ito_peak_bounded(checks, n_intervals, density_columns, field_columns, b_columns):
    """The test model at 20k paired paths x 64 steps runs the ``checks``
    (the default suite for None) within ``ito_peak_bound``."""
    doc = ito_doc(n_paths=20_000, n_steps=64, checks=checks)
    if checks is None:
        del doc["checks"]
    tracemalloc.start()
    try:
        report = run_ito_scenario(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, report.to_text()
    bound = ito_peak_bound(
        10_000, 20_000, n_intervals, density_columns, field_columns, b_columns
    )
    assert peak < bound, (peak, bound)


def test_ito_chunks_bound_memory():
    # the simulation runs in at most DRAW_BUDGET stream-intervals at a time,
    # on reused buffers, so the peak stays bounded: one interval, each
    # load's terminal density, no shift, and every density loads theta on
    # B (1.44 MiB traced)
    assert_ito_peak_bounded(["inverse-gamma-mean"], 1, 5, 0, 1)


def test_ito_suite_reduce_stays_below_a_run():
    # the default suite: two intervals, each load's density at 32 and 64
    # and the shift there (2.20 MiB traced); reduce's statistics, dual
    # values and paired densities fit below one run's scratch
    assert_ito_peak_bounded(None, 2, 5 * 2, 2, 2)


def test_n_chunks_has_no_effect(tmp_path, capsys, monkeypatch):
    # n_chunks is accepted and validated, and changes nothing: DRAW_BUDGET
    # alone plans the runs, so every value gives the same runs, report
    # bytes and exit code
    runs = []
    original = cli.simulate_paths

    def recorded(spec, n_steps, n_paths, seed, **kwargs):
        runs.append((n_paths, kwargs["stream_offset"], list(kwargs["columns"])))
        return original(spec, n_steps, n_paths, seed, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recorded)
    # 1003 streams over 2 simulated intervals, in runs of at most 400
    monkeypatch.setattr(cli, "DRAW_BUDGET", 2 * 400)
    doc = ito_doc(n_paths=2006, n_steps=16)
    del doc["checks"]
    outcomes = set()
    for n_chunks in (1, 3, 7, 16):
        runs.clear()
        code = main(["run", write_scenario(tmp_path, {**doc, "n_chunks": n_chunks})])
        captured = capsys.readouterr()
        outcomes.add((code, captured.out, captured.err, repr(runs)))
    (code, out, err, plan), = outcomes
    assert code == 0 and err == ""
    ranges = [(0, 334), (334, 668), (668, 1003)]
    assert plan == repr([(2 * (hi - lo), lo, [0, 8, 16]) for lo, hi in ranges])


def test_ito_duplicate_check_refused(tmp_path, capsys, no_simulation):
    doc = ito_doc(checks=["forward-drift", "inverse-gamma-mean", "inverse-gamma-mean"])
    assert main(["run", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith("error: $.checks[2]: duplicate check")


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    doc = ito_doc(checks=["inverse-gamma-mean"], nu={"0": 0.3})
    path = write_scenario(tmp_path, doc)

    def estimate(argv):
        code, rep = run_json(capsys, argv)
        assert code == 0
        return rep["checks"]["inverse-gamma-mean[nu=0]"]["value"]

    base = estimate(["run", path])
    flagged = estimate(["run", path, "--seed", "77"])
    assert flagged != base
    monkeypatch.setenv("FORWARDPERF_SEED", "77")
    assert estimate(["run", path]) == flagged
    # explicit flag beats the environment
    monkeypatch.setenv("FORWARDPERF_SEED", "123")
    assert estimate(["run", path, "--seed", "77"]) == flagged
    monkeypatch.setenv("FORWARDPERF_SEED", "not-a-number")
    assert main(["run", path]) == 2
    assert "FORWARDPERF_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "export-paths"])
@pytest.mark.parametrize(
    "doc_seed, flag, env, source",
    [
        (42, ["--seed", "-1"], None, "--seed"),
        (42, ["--seed", str(2**64)], None, "--seed"),
        (42, [], str(2**64), "FORWARDPERF_SEED"),
        (42, [], "-5", "FORWARDPERF_SEED"),
        (2**64, [], None, "$.seed"),
    ],
)
def test_seed_outside_uint64_refused(
    tmp_path, capsys, monkeypatch, no_simulation, command, doc_seed, flag, env, source
):
    # the seed is a 64-bit Philox key word; anything else is refused by name
    if env is None:
        monkeypatch.delenv("FORWARDPERF_SEED", raising=False)
    else:
        monkeypatch.setenv("FORWARDPERF_SEED", env)
    if command == "run":
        argv = ["run", write_scenario(tmp_path, ito_doc(seed=doc_seed))]
    else:
        doc = export_doc(seed=doc_seed)
        argv = ["export-paths", write_scenario(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    assert main(argv + flag) == 2
    assert capsys.readouterr().err.startswith(f"error: {source}: must be ")


def test_seed_top_of_range_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FORWARDPERF_SEED", raising=False)
    path = write_scenario(tmp_path, ito_doc(seed=2**64 - 1))
    code, rep = run_json(capsys, ["run", path])
    assert code == 0 and rep["all_passed"] is True
    monkeypatch.setenv("FORWARDPERF_SEED", str(2**64 - 1))
    assert run_json(capsys, ["run", path]) == (code, rep)


def test_run_out_writes_file(tmp_path, capsys):
    path = write_scenario(tmp_path, ito_doc())
    out = tmp_path / "report.json"
    code = main(["run", path, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is True


# -- conjugate tables ----------------------------------------------------


def test_conjugate_subcommand_stdout(capsys):
    code = main(["conjugate", "--gamma", "2", "--a", "1", "--eta", "0", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,dual_value,argmax_x"
    assert lines[1] == "0,0,0"
    assert lines[2] == "2,-2,0.5"


def test_conjugate_subcommand_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["conjugate", "--gamma", "1", "--eta", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1] == "1,-1,0"


def test_conjugate_table_scenario_range(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kind": "conjugate-table",
        "gamma": 1.0,
        "a": 0.0,
        "eta_range": {"start": 0.0, "stop": 2.0, "count": 3},
    }
    path = write_scenario(tmp_path, doc)
    code = main(["run", path])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 4
    assert lines[1] == "0,0,0"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args, error",
    [
        # the dual value overflows: it wrote inf with a RuntimeWarning
        (
            ["--gamma", "1", "--eta", "1", "1e308"],
            "$.eta_values[1]: eta 1e+308 gives dual value inf and maximizer -709.1962086421661: both must be finite",
        ),
        # 1/gamma overflows: it wrote nan and -inf
        (["--gamma", "1e-320", "--eta", "1"], "$.gamma: gamma 1e-320 is outside the float range: gamma and 1/gamma must be finite"),
        # eta/gamma underflows to 0: a math domain error after the header
        (["--gamma", "1e300", "--a", "1e300", "--eta", "1e-300"], "$.eta_values[0]: eta 1e-300 over gamma 1e+300 underflows to 0"),
    ],
    ids=["value-overflows", "gamma-subnormal", "ratio-underflows"],
)
def test_conjugate_table_refuses_a_row_outside_the_float_range_and_writes_nothing(tmp_path, capsys, args, error):
    out = tmp_path / "table.csv"
    assert main(["conjugate", *args]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert main(["conjugate", *args, "--out", str(out)]) == 2
    assert not out.exists()


def test_conjugate_table_scenario_exclusive(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "kind": "conjugate-table",
        "gamma": 1.0,
        "a": 0.0,
        "eta_values": [1.0],
        "eta_range": {"start": 0.0, "stop": 2.0, "count": 3},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "exactly one" in capsys.readouterr().err


# -- export paths --------------------------------------------------------


def export_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "export-paths",
        "model": {"horizon": 1.0, "theta": 0.5},
        "gamma0": 1.0,
        "n_steps": 4,
        "n_paths": 6,
        "seed": 9,
    }
    doc.update(overrides)
    return doc


def test_export_paths_subcommand(tmp_path, capsys):
    path = write_scenario(tmp_path, export_doc(paths=[0, 3]))
    out = tmp_path / "paths.csv"
    code = main(["export-paths", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote 10 rows" in captured.err
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("path,t,s,z_mart")
    assert len(lines) == 11


@pytest.mark.parametrize(
    "antithetic, paths, cap",
    [
        (True, [7, 0, 6, 7, 1], 1024),
        (False, [9, 2, 3], 1024),
        (True, None, 1024),
        # runs of consecutive streams split into calls of at most 3 streams
        (False, [*range(30, 40), 3, *range(12, 20), 35], 3),
        (True, None, 2),
    ],
)
def test_export_paths_simulates_only_selected_streams(
    tmp_path, capsys, monkeypatch, antithetic, paths, cap
):
    doc = export_doc(n_paths=40, antithetic=antithetic, nu={"0": 0.0, "up": 0.5})
    if paths is not None:
        doc["paths"] = paths
    per = 2 if antithetic else 1
    selected = range(10) if paths is None else paths
    streams = []
    original = cli.simulate_paths

    def recorded(spec, n_steps, n_paths, *args, **kwargs):
        streams.append(n_paths // per)
        return original(spec, n_steps, n_paths, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recorded)
    # the export simulates the full 4-step grid: cap streams per run
    monkeypatch.setattr(cli, "DRAW_BUDGET", 4 * cap)
    out = tmp_path / "paths.csv"
    assert main(["export-paths", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    assert sum(streams) <= len({i // per for i in selected})
    assert max(streams) <= cap
    n_rows = 5 * len(selected)
    assert capsys.readouterr().err == f"wrote {n_rows} rows to {out}\n"

    # the same rows as an export from the whole simulation
    spec = ito_engine.CoefficientSpec.constant(1.0, theta=0.5)
    bundle = original(spec, 4, 40, 9, antithetic=antithetic)
    fields = ito_engine.build_forward_exponential(spec, 1.0, 0.0, bundle)
    dens = {lab: ito_engine.martingale_density(bundle, nu) for lab, nu in (("0", 0.0), ("up", 0.5))}
    dB, _ = oracles.increments(bundle, 9)
    oracles.export_paths(bundle, dB, fields, dens, str(tmp_path / "whole.csv"), selected)
    assert out.read_bytes() == (tmp_path / "whole.csv").read_bytes()


PIECEWISE_MODEL = {
    "horizon": 1.0,
    "breakpoints": [0.0, 0.5],
    "theta": [0.5, 0.2],
    "delta": [0.1, -0.1],
    "phi": [0.3, 0.0],
    "rho": [0.0, 0.2],
}
EXPORT_DOCS = {
    "antithetic": {
        "model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3, "rho": 0.1},
        "gamma0": 2.0,
        "a0": 0.25,
        "n_steps": 8,
        "n_paths": 40,
        "paths": [7, 0, 6, 7, 1, 30, 31],
        "nu": {"0": 0.0, "up": 0.5},
    },
    "plain-piecewise": {
        "model": PIECEWISE_MODEL,
        "n_steps": 8,
        "n_paths": 30,
        "antithetic": False,
        "nu": {"flat": 0.2, "ramp": [0.1 * k for k in range(8)]},
    },
}
# SHA-256 of the CSVs of EXPORT_DOCS, taken with the four-normal blocks and
# the running-sum densities and fields of PINNED_ITO_REPORT_SHA256
PINNED_EXPORT_SHA256 = {
    "antithetic": on_this_dispatch(
        "cddf706218140282c12741fb38a16f2649af980ef92dad64819d0c1097287693",
        "cddf706218140282c12741fb38a16f2649af980ef92dad64819d0c1097287693",
    ),
    "plain-piecewise": on_this_dispatch(
        "d2cc9dbeb54dde659cfefd74948a3c52951b3dc74364c47005c33ed65a5878f4",
        "d2cc9dbeb54dde659cfefd74948a3c52951b3dc74364c47005c33ed65a5878f4",
    ),
}


def export_csv(tmp_path, overrides):
    out = tmp_path / "export.csv"
    path = write_scenario(tmp_path, export_doc(**overrides))
    assert main(["export-paths", path, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", list(EXPORT_DOCS))
def test_export_paths_bytes_pinned(tmp_path, capsys, case):
    data = export_csv(tmp_path, EXPORT_DOCS[case])
    capsys.readouterr()
    assert hashlib.sha256(data).hexdigest() == PINNED_EXPORT_SHA256[case]


def test_small_stream_budget_keeps_every_byte(tmp_path, capsys, monkeypatch):
    # runs of at most 7 streams split every ito scenario and every export;
    # the ito runs share one workspace, so no bundle may be read after the
    # next run overwrote it
    def ito_outputs(doc):
        code = main(["run", write_scenario(tmp_path, doc)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    docs = {case: ito_doc(**over) for case, over in CHUNKED_DOCS.items()}
    del docs["antithetic"]["checks"]
    exports = dict(EXPORT_DOCS, whole={"n_paths": 40, "paths": list(range(40))})
    want_ito = {case: ito_outputs(doc) for case, doc in docs.items()}
    want_csv = {case: export_csv(tmp_path, over) for case, over in exports.items()}
    capsys.readouterr()

    runs = []
    original = cli.simulate_paths

    def recorded(spec, n_steps, n_paths, seed, antithetic=True, **kwargs):
        runs.append(n_paths // 2 if antithetic else n_paths)
        return original(spec, n_steps, n_paths, seed, antithetic=antithetic, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", recorded)
    # a budget of 7 streams' draws over the simulated intervals of each ito
    # case, and over the full grid of each export
    for case, doc in docs.items():
        monkeypatch.setattr(cli, "DRAW_BUDGET", 7 * CHUNKED_INTERVALS[case])
        runs.clear()
        assert ito_outputs(doc) == want_ito[case], case
        assert max(runs) <= 7
    for case, over in exports.items():
        monkeypatch.setattr(cli, "DRAW_BUDGET", 7 * export_doc(**over)["n_steps"])
        runs.clear()
        assert export_csv(tmp_path, over) == want_csv[case], case
        assert max(runs) <= 7
    capsys.readouterr()


def test_export_paths_index_out_of_range(tmp_path, capsys):
    path = write_scenario(tmp_path, export_doc(paths=[99]))
    assert main(["export-paths", path, "--out", str(tmp_path / "x.csv")]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, json_path, message",
    [
        ({"n_paths": 7}, "$.n_paths", "even n_paths"),
        ({"paths": [0, 6]}, "$.paths", "path index 6 out of range"),
        ({"paths": 2}, "$.paths", "expected a list of integers, got int"),
        ({"paths": "01"}, "$.paths", "expected a list of integers, got str"),
        ({"nu": {"a": [0.3] * 4, "b": 0.3}}, "$.nu", "loads 'a' and 'b' are equal at every step"),
        ({"nu": {"a": 0.0, "b": -0.0}}, "$.nu", "loads 'a' and 'b' are equal at every step"),
    ],
)
def test_export_paths_bad_inputs_rejected_before_simulating(
    tmp_path, capsys, no_simulation, overrides, json_path, message
):
    path = write_scenario(tmp_path, export_doc(**overrides))
    assert main(["export-paths", path, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {json_path}: ") and message in err


GAMMA0_OUT_OF_RANGE = "$.gamma0: gamma 1e-320 is outside the float range: gamma and 1/gamma must be finite"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, doc, error",
    [
        # export-paths wrote inf in every inv_gamma cell with a
        # RuntimeWarning; ito-verify refused only at its first record
        ("export-paths", export_doc(gamma0=1e-320), GAMMA0_OUT_OF_RANGE),
        ("run", ito_doc(gamma0=1e-320), GAMMA0_OUT_OF_RANGE),
        # 1 - 2**-53 < 1, but its critical value is inf: refused only after
        # simulating, at its first record
        (
            "run",
            ito_doc(confidence=1.0 - 2.0**-53),
            "$.confidence: 0.9999999999999999 is too close to 1: its critical value is not finite",
        ),
    ],
    ids=["export-gamma0", "ito-gamma0", "ito-confidence"],
)
def test_ito_inputs_outside_the_float_range_refused_before_simulating(
    tmp_path, capsys, no_simulation, command, doc, error
):
    out = tmp_path / "x.csv"
    assert main([command, write_scenario(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_export_paths_kind_mismatch(tmp_path, capsys):
    path = write_scenario(tmp_path, ito_doc())
    assert main(["export-paths", path, "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()
    path = write_scenario(tmp_path, export_doc())
    assert main(["run", path]) == 2
    assert "export-paths subcommand" in capsys.readouterr().err


def test_export_paths_requires_out_flag(tmp_path):
    path = write_scenario(tmp_path, export_doc())
    with pytest.raises(SystemExit):
        main(["export-paths", path])


# -- entry point wiring --------------------------------------------------


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _main_outcome(argv):
    """(exit status, stdout, stderr) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_successive_main_calls_behave_as_fresh_processes(tmp_path):
    # the parser is built once per process and shared by every main call;
    # no call may see another's options or errors
    assert cli.build_parser() is cli.build_parser()
    seeded = ito_doc(n_paths=400, n_steps=4, checks=["inverse-gamma-mean"])
    path = write_scenario(tmp_path, seeded)
    calls = [
        ["run", path, "--seed", "5", "--format", "text"],
        ["conjugate", "--gamma", "2", "--a", "1", "--eta", "0", "2"],
        ["conjugate", "--gamma", "two", "--eta", "1"],
        ["run", path],
        ["conjugate", "--gamma", "1", "--eta", "1"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(forwardperf.__file__).parents[1]))
    env.pop("FORWARDPERF_SEED", None)
    for argv in calls:
        # bytes, so the CSV's line ends are compared as written
        proc = subprocess.run(
            [sys.executable, "-m", "forwardperf", *argv], capture_output=True, env=env, timeout=120
        )
        fresh = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert _main_outcome(argv) == fresh, argv
    # the bad argument was refused, and the seed override did not stick
    assert _main_outcome(calls[2])[0] == 2
    assert _main_outcome(calls[0])[1] != _main_outcome(calls[3])[1]


# Every CLI command in a child in which no scipy module can be imported.
NO_SCIPY_CHILD = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r} in this test")
        return None


sys.meta_path.insert(0, NoScipy())
import forwardperf.cli as cli

tree, ito, export, out = sys.argv[1:]
codes = [
    cli.main(["run", tree, "--out", out]),
    cli.main(["run", ito, "--out", out]),
    cli.main(["conjugate", "--gamma", "2", "--a", "1", "--eta", "0", "2", "--out", out]),
    cli.main(["export-paths", export, "--out", out]),
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cli_runs_without_scipy(tmp_path):
    ito = ito_doc(n_paths=2000, n_steps=16, checks=list(mc_verifier.MC_CHECKS))
    args = [
        write_scenario(tmp_path, tree_doc(), "tree.json"),
        write_scenario(tmp_path, ito, "ito.json"),
        write_scenario(tmp_path, export_doc(), "export.json"),
        str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(forwardperf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}


@pytest.mark.skipif(
    shutil.which("forwardperf") is None,
    reason="forwardperf console script not on PATH (package not installed)",
)
def test_console_script_installed():
    exe = shutil.which("forwardperf")
    assert exe is not None
    proc = subprocess.run(
        [exe, "conjugate", "--gamma", "1", "--eta", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("eta,dual_value,argmax_x")


def test_module_entry_point_runs_uninstalled():
    # the console script's command through python -m, with the package on
    # PYTHONPATH: how an uninstalled checkout runs the program
    env = dict(os.environ, PYTHONPATH=str(Path(forwardperf.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "forwardperf", "conjugate", "--gamma", "1", "--eta", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eta,dual_value,argmax_x")


# -- symmetries of the field ---------------------------------------------

def _symmetry_run(tmp_path, capsys, tree, gamma, a_shift, lam=1.0, c=0.0):
    """The default scenario with gamma times lam and every shift plus c: its
    exit code and {tag: (verdict, worst_node, value)}."""
    doc = {
        "schema_version": 1,
        "kind": "tree-verify",
        "tree": tree.to_dict(),
        "gamma": {"mode": "explicit", "values": {n: g * lam for n, g in gamma.items()}},
        "a_shift": {"mode": "explicit", "values": {n: a + c for n, a in a_shift.items()}},
    }
    code, report = run_json(capsys, ["run", write_scenario(tmp_path, doc)])
    return code, {tag: (r["verdict"], r.get("worst_node"), r["value"]) for tag, r in report["checks"].items()}


@pytest.mark.parametrize("periods", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 7])
def test_tree_report_is_invariant_under_the_fields_symmetries(tmp_path, capsys, seed, periods):
    # U = -exp(-gamma x + a): a constant c added to every shift, or gamma
    # scaled by lam, is the same field in other units (see the
    # tree_verifier docstring), and every gap is in shift units, which
    # neither moves. No oracle is needed: every exit code, verdict and
    # worst_node equals the unmoved run's, on a solved, a root-perturbed
    # and a randomly shifted field, and every gap is within the rounding of
    # the two runs. c = +-800 puts e^a outside the float range, which no
    # check evaluates, and lam = 1e-306 puts the eta = 1 value
    # h(1/gamma) - a/gamma there, which no check reads. Each level of a
    # sweep or of the factor recursion rounds at most 32 terms whose size
    # is at most size = 4 + max|a + c| (the shifts; 4 holds the log
    # probabilities and a step's entropy; each program runs in its node's
    # units, so no log gamma, and no log lam, enters), and gaps at a start
    # read the levels below it, so the gaps of the two runs differ by at
    # most 2 * 32 u size * periods
    u = 2.0**-53
    tree = random_tree(seed, periods=periods)
    field = solved_field(tree, seed)
    rng = np.random.default_rng(seed)
    shifts = {
        "solved": field.a_shift,
        "root": {**field.a_shift, "r": field.a_shift["r"] + 0.1},
        "random": {n: a + float(rng.normal(0.0, 0.3)) for n, a in field.a_shift.items()},
    }
    moves = [(lam, 0.0) for lam in (1e-306, 1e-200, 1e-12, 1e6, 1e9, 1e12, 1e200, 1e306)]
    moves += [(1.0, c) for c in (-800.0, -50.0, 50.0, 800.0)]
    for name, a_shift in shifts.items():
        code, base = _symmetry_run(tmp_path, capsys, tree, field.gamma, a_shift)
        assert code == (0 if name == "solved" else 1)
        for lam, c in moves:
            moved_code, moved = _symmetry_run(tmp_path, capsys, tree, field.gamma, a_shift, lam, c)
            assert moved_code == code, (name, lam, c)
            assert moved.keys() == base.keys()
            bound = 64 * u * (4.0 + max(abs(a + c) for a in a_shift.values())) * periods
            for tag, (verdict, node, value) in base.items():
                assert moved[tag][:2] == (verdict, node), (name, lam, c, tag)
                if value is not None:
                    assert abs(moved[tag][2] - value) <= bound, (name, lam, c, tag)
