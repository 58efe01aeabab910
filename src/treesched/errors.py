"""Exception types shared across the package."""


class SchedulingError(Exception):
    """Base class for all treesched errors."""


class DimensionMismatch(SchedulingError):
    """Matrix or vector shapes are inconsistent with the declared sizes."""


class NonPositiveNoise(SchedulingError):
    """A noise covariance is not symmetric strictly positive definite."""


class NotObservable(SchedulingError):
    """The pair (C, A) fails the observability rank test."""


class InvalidSubtree(SchedulingError):
    """A sensor set is not closed under the parent relation."""


class SingularMatrix(SchedulingError):
    """A symmetric positive-definite factorization failed."""


class InvalidBudget(SchedulingError, ValueError):
    """An energy budget is negative or NaN."""


class InvalidInput(SchedulingError, ValueError):
    """An input value is malformed, non-finite or outside its domain."""


class Diverged(SchedulingError):
    """An iteration has no bounded limit."""


class InitialDiverged(Diverged):
    """The initial uniform schedule cannot stabilize the estimator."""


class MaxIterations(SchedulingError):
    """A fixed-point iteration hit its cap before reaching tolerance."""


class OrderingViolated(SchedulingError):
    """Marginals are not realizable: some child exceeds its parent."""


class SolverStalled(SchedulingError):
    """The descent subproblem solver could not certify its result."""


class TooManyTrees(SchedulingError):
    """Subtree enumeration would exceed the safety cap."""


class AgreementViolation(SchedulingError):
    """Nodes disagreed about the transmission topology in a round."""


class UnstableDiscretization(SchedulingError):
    """Explicit finite-difference step violates the stability bound."""


class OutOfRegion(SchedulingError):
    """A sensor position lies outside the monitored square."""
