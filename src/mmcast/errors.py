"""Exception hierarchy shared by all mmcast modules.

Every exception carries a stable ``code`` (its class name) so the CLI can
emit machine-readable error objects without string matching.
"""


class MmcastError(Exception):
    """Base class for all toolkit errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- instance validation -------------------------------------------------

class InvalidInstance(MmcastError):
    """Raised when an instance description violates a structural invariant."""


class CycleDetected(InvalidInstance):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"graph contains a directed cycle: {' -> '.join(self.cycle)}")


class ClientNotSink(InvalidInstance):
    pass


class NegativeCapacity(InvalidInstance):
    pass


class NonpositiveCost(InvalidInstance):
    pass


class DuplicateEdgeId(InvalidInstance):
    pass


class UnknownEdgeRate(MmcastError):
    pass


# --- entropy oracles ------------------------------------------------------

class UnknownSubset(MmcastError):
    pass


# --- finite field ---------------------------------------------------------

class ModulusMismatch(MmcastError):
    pass


class Inconsistent(MmcastError):
    pass


class RankDeficient(MmcastError):
    pass


# --- optimization ---------------------------------------------------------

class GroundTooLarge(MmcastError):
    pass


class MaxIterationsExceeded(MmcastError):
    """Carries the best iterate found before the iteration cap was hit.

    For the minimum-norm point, ``best_point`` is the exact current point x,
    ``best_set`` is {x < 0} and ``gap`` the exact Fraction
    f(best_set) - x^-(ground), an upper bound on f(best_set) - min f.
    """

    def __init__(self, message, best_point=None, best_set=None, gap=None):
        self.best_point = best_point
        self.best_set = best_set
        self.gap = gap
        super().__init__(message)


class Infeasible(MmcastError):
    """Raised when no achievable rate vector exists; carries the certificates."""

    def __init__(self, message, certificates=()):
        self.certificates = tuple(certificates)
        super().__init__(message)


class ReconstructabilityViolated(MmcastError):
    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class BudgetExceeded(MmcastError):
    pass


class InvalidParameters(MmcastError):
    """A parameter outside its range, or a run that it drove past what it can compute.

    A run stopped part way, as a subgradient step that overflows a float,
    carries the best result it holds in ``result``; otherwise it is None.
    """

    def __init__(self, message, result=None):
        self.result = result
        super().__init__(message)


# --- network coding -------------------------------------------------------

class NotLinearModel(MmcastError):
    pass


class InfeasibleRates(MmcastError):
    pass


class ScaleOverflow(MmcastError):
    pass


class FieldTooSmall(MmcastError):
    pass


class VerificationFailedAllAttempts(MmcastError):
    def __init__(self, message, attempts, best_ranks):
        self.attempts = attempts
        self.best_ranks = dict(best_ranks)
        super().__init__(message)
