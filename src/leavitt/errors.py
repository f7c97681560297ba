"""Exception hierarchy shared by the whole package."""


class LeavittError(Exception):
    """Base class for all package errors."""


class GraphError(LeavittError):
    """Malformed graph data or reference to an unknown vertex."""


class LatticeError(LeavittError):
    """Invalid hereditary saturated set or admissible pair arguments."""


class LaurentError(LeavittError):
    """Polynomial parsing failure, field mismatch, or unsupported degree."""


class IdealError(LeavittError):
    """Invalid ideal representation or argument.

    Intersections and products are defined for every two ideals over one
    field, so they raise it only for mixed fields.
    """


class FactorizationError(LeavittError):
    """No finite graded-prime factorization exists for the given ideal."""


class InternalInconsistencyError(LeavittError):
    """Two independent computations of the same fact disagreed.

    This always indicates a bug (or a false structural premise) and is
    surfaced loudly; the command line maps it to exit code 3.
    """
