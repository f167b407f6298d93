"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "IsocgError",
    "DimensionMismatchError",
    "InvalidSpectrumError",
    "SolverDivergedError",
    "InsufficientDataError",
    "SampleSetError",
    "UnknownMachineError",
    "InfeasibleError",
    "NoBreakEvenError",
]


class IsocgError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(IsocgError, ValueError):
    """Operands have incompatible shapes or lengths."""


class InvalidSpectrumError(IsocgError, ValueError):
    """A prescribed eigenvalue spectrum contains non-positive or non-finite entries."""


class SolverDivergedError(IsocgError, RuntimeError):
    """A solve produced a non-finite state.

    Carries the partial report and iterate so the failure can be analysed
    post mortem.
    """

    def __init__(self, message: str, report=None, x=None):
        super().__init__(message)
        self.report = report
        self.x = x


class InsufficientDataError(IsocgError, ValueError):
    """Not enough samples to perform a fit."""


class SampleSetError(IsocgError, ValueError):
    """A sample set file failed to parse or validate."""


class UnknownMachineError(SampleSetError, LookupError):
    """A machine or sample key is not present in the sample set."""

    def __init__(self, message: str, available: list[str] | None = None):
        super().__init__(message)
        self.available = list(available or [])


class InfeasibleError(IsocgError, ValueError):
    """No cluster count can satisfy the requested matching constraint."""


class NoBreakEvenError(IsocgError, ValueError):
    """The hybrid system is never cheaper than the reference, so no break-even exists."""
