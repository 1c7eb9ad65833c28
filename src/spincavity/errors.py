"""Exception hierarchy shared across the package.

Three refusal classes derive from SpinCavityError, and the command line
reads its exit code off the class:

- DomainError (a ValueError): invalid input, from a flag, a file or an
  argument; exit 2.
- StateError (a ValueError): a solved density matrix breaks an
  invariant; exit 3.
- NumericalError (a RuntimeError): a solve or an integration failed;
  exit 3.
"""


class SpinCavityError(Exception):
    """Base class for all package errors."""


class DomainError(SpinCavityError, ValueError):
    """An input is outside the physical, mathematical or file-format domain."""


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
