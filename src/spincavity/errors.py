"""Exception hierarchy shared across the package.

Input / contract violations derive from ValueError so callers can treat
them uniformly; solver breakdowns derive from RuntimeError. The command
line reads its exit code off this split: a RuntimeError, or a StateError
(a solved density matrix that breaks an invariant), exits 3 as a
numerical failure; every other package error exits 2 as invalid input.
"""


class SpinCavityError(Exception):
    """Base class for all package errors."""


class DomainError(SpinCavityError, ValueError):
    """An argument is outside the physical or mathematical domain."""


class ShapeError(SpinCavityError, ValueError):
    """Array or grid shapes are incompatible."""


class SchemaError(SpinCavityError, ValueError):
    """A structured record is missing keys or carries unknown ones."""


class FormatError(SpinCavityError, ValueError):
    """A file does not follow the expected on-disk format."""


class DataValidationError(SpinCavityError, ValueError):
    """File contents parsed but violate a value-level invariant."""


class StateError(SpinCavityError, ValueError):
    """A density matrix violates hermiticity, trace or positivity."""


class NumericalError(SpinCavityError, RuntimeError):
    """A linear solve or integration failed.

    ``condition_estimate`` carries the matrix condition number when the
    failure came from an (near-)singular steady-state solve.
    """

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class ModelError(SpinCavityError, RuntimeError):
    """The truncated model is inadequate (for example the Fock cutoff)."""
