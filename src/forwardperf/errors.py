"""Exception types shared across the package."""


class ForwardPerfError(Exception):
    """Base class for package-specific failures."""


class TreeStructureError(ForwardPerfError):
    """Event tree violates a structural invariant (ids, times, linkage)."""


class ArbitrageError(ForwardPerfError):
    """The market admits no (equivalent) martingale measure where one is required."""


class InadaViolationError(ForwardPerfError):
    """Bracket expansion for the conjugate exceeded its width cap.

    The marginal utility failed to sweep past the requested level, so the
    slice does not satisfy the full-range marginal condition.
    """


class AlignmentError(ForwardPerfError):
    """A time grid does not refine the coefficient breakpoints."""


class ConvergenceError(ForwardPerfError):
    """An iterative solver hit its iteration cap before its gap target."""


class RegularityError(ForwardPerfError):
    """Check refused: the field fails (or cannot be shown to meet) the
    integrability needed for the statistic to be meaningful."""


class WealthRangeError(ForwardPerfError, ValueError):
    """A wealth lies outside the grid the generic primal path tabulates."""


class ReplicationError(ForwardPerfError, ValueError):
    """No portfolio replicates the increments of 1/gamma at some node, so
    the exponential fast path a check needs does not exist."""


class ScenarioError(ForwardPerfError):
    """Scenario or input file failed to parse or validate."""
