# Exception hierarchy shared by all hypokit modules.

__all__ = [
    "HypokitError",
    "DimensionError",
    "InvalidEntryError",
    "PreconditionError",
    "ContractViolationError",
    "NotPSDError",
    "RangeError",
    "NumericalError",
    "NoDecayError",
]


class HypokitError(Exception):
    """Base class for all errors raised by hypokit."""


class DimensionError(HypokitError, ValueError):
    """Input has the wrong shape (non-square, mismatched sizes, empty)."""


class InvalidEntryError(HypokitError, ValueError):
    """Input contains NaN or infinite entries."""


class PreconditionError(HypokitError, ValueError):
    """A documented precondition of an operation is violated."""


class ContractViolationError(HypokitError, ValueError):
    """Input violates a structural contract (e.g. grossly non-Hermitian)."""


class NotPSDError(PreconditionError):
    """Matrix expected to be positive semidefinite has a clearly negative eigenvalue."""


class RangeError(HypokitError, OverflowError):
    """Requested evaluation lies outside the certified range of the method."""


class NumericalError(HypokitError, RuntimeError):
    """An underlying numerical routine failed to converge or to bracket a root."""


class NoDecayError(HypokitError, RuntimeError):
    """A decay curve shows no usable norm drop (e.g. skew generator)."""
