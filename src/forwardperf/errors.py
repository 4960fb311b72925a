"""Exception types shared across the package."""


class ForwardPerfError(Exception):
    """Base class for package-specific failures."""


class TreeStructureError(ForwardPerfError):
    """Event tree violates a structural invariant (ids, times, linkage)."""


class ArbitrageError(ForwardPerfError):
    """The market admits no (equivalent) martingale measure where one is required."""


class AlignmentError(ForwardPerfError):
    """A time grid does not refine the coefficient breakpoints."""


class ConvergenceError(ForwardPerfError):
    """An iterative solver hit its iteration cap before its gap target."""


class WealthRangeError(ForwardPerfError, ValueError):
    """A wealth at which an exponential utility leaves the float range."""


class ReplicationError(ForwardPerfError, ValueError):
    """No portfolio replicates the increments of 1/gamma at some node, so
    the primal value has no factor recursion and the field cannot
    self-generate."""


class ScenarioError(ForwardPerfError):
    """Scenario or input file failed to parse or validate."""
