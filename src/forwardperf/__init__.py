"""Verification toolkit for self-generating (forward) utility fields.

Two complementary engines share one reporting layer:

- exact checks on finite event trees (backward induction for the primal
  value, one convex program per (window, start) for the dual value,
  solved at eta = 1, entropy minimization and drift checks, every gap in
  shift units);
- Monte Carlo checks on a two-factor diffusion model with piecewise
  constant coefficients, built on a counter-based Gaussian generator and
  fixed-order reductions so every number is reproducible bit for bit
  however the streams are split into runs.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    ArbitrageError,
    ConvergenceError,
    ForwardPerfError,
    ReplicationError,
    ScenarioError,
    TreeStructureError,
    WealthRangeError,
)
from .fields import ExponentialFieldParams, conjugate_exponential, entropy_kernel
from .ito_engine import (
    CoefficientSpec,
    FieldPaths,
    PathBundle,
    build_forward_exponential,
    density_path,
    martingale_density,
    simulate_paths,
)
from .mc_verifier import (
    check_dual_martingale_at_optimum,
    check_dual_submartingale,
    check_forward_drift_mc,
    check_inverse_gamma_mean_mc,
    collapse_pairs,
    mc_mean_test,
    z_critical,
)
from .report import CheckRecord, VerificationReport
from .tree_market import (
    Branch,
    DensityPath,
    EventTree,
    NodePolytope,
    TreeMeasure,
    TreeNode,
    check_nflvr,
    density_process,
    measure_from_leaf_masses,
    node_polytope,
    one_step_vertices,
    reference_measure,
    validate_tree,
)
from .tree_verifier import (
    DualResult,
    PrimalResult,
    ReplicationResult,
    WindowDuals,
    check_exponential_conditions,
    check_forward_supermartingale,
    check_self_generation_dual,
    check_self_generation_primal,
    check_value_conjugacy,
    dual_value,
    primal_value,
    replicate_inverse_gamma,
    solve_entropy_shift,
)
