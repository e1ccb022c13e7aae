"""Exception types shared across the package."""


class CqcapError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(CqcapError):
    """Matrix asymmetry exceeds the Hermitian tolerance."""


class NotPSD(CqcapError):
    """An eigenvalue lies below the negativity tolerance."""


class BadTrace(CqcapError):
    """Trace deviates from one beyond the trace tolerance."""


class DimensionMismatch(CqcapError):
    """Operands do not share a matrix dimension."""


class LengthMismatch(CqcapError):
    """Vector length does not match the channel alphabet size."""


class BadParams(CqcapError):
    """Invalid generator or constructor parameters."""


class SupportViolation(CqcapError):
    """A distribution puts mass where its reference has none."""


class InfeasibleCost(CqcapError):
    """Cost budget below the cheapest letter; no feasible distribution."""


class AlphabetTooLarge(CqcapError):
    """Grid enumeration refused; alphabet too large for brute force."""


class NoFeasibleGridPoint(CqcapError):
    """No grid point satisfies the cost budget."""


class NotStochastic(CqcapError):
    """Transition matrix rows are not probability vectors."""


class EmptyTrace(CqcapError):
    """Diagnostics requested on a trace with no recorded steps."""
