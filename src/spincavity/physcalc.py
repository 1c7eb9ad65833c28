"""Physical constants, unit conversions and closed-form derived quantities.

Unit conventions used across the package:

* all rates and frequencies in external interfaces are quoted as
  value/2pi in GHz (so a cavity linewidth of "31.79 GHz" is the FWHM of
  the reflectivity peak in ordinary frequency),
* wavelengths are in nm, magnetic fields in T, energies in meV,
  temperatures in K.

Everything here is a pure function of its arguments; nothing is cached
or mutated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysConstants:
    """CODATA/SI constants, fixed at build time.

    ``hbar`` is a property computed from ``planck_h``, so the two can
    never drift apart.
    """

    planck_h: float = 6.62607015e-34      # J s (exact, SI 2019)
    bohr_magneton: float = 9.2740100783e-24  # J/T (CODATA 2018)
    boltzmann_k: float = 1.380649e-23     # J/K (exact, SI 2019)
    light_speed: float = 299792458.0      # m/s (exact)

    @property
    def hbar(self) -> float:
        """Reduced Planck constant h / 2pi in J s."""
        return self.planck_h / TWO_PI


CONSTANTS = PhysConstants()

# J per eV (exact, SI 2019); used for meV <-> J conversions.
EV_JOULES = 1.602176634e-19

# Numerically convenient: c expressed in nm*GHz equals c in m/s.
_C_NM_GHZ = CONSTANTS.light_speed

DEFAULT_TEMPERATURE_K = 4.2


def _require_finite_real(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a finite real number (not a bool)."""
    # The float test comes first: the numbers.Real check is an ABC lookup
    # about 15 times slower, and field sweeps rebuild levels per field.
    real = type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite number, got {value!r}")


def _require_int(name: str, value, low: int) -> None:
    """Raise DomainError unless ``value`` is an integer (numpy too, not bool) >= low."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _finite_quotient(numerator: float, denominator: float, what: str) -> float:
    """numerator / denominator, inf for a 0 denominator; DomainError unless finite."""
    value = numerator / denominator if denominator else math.inf
    if not math.isfinite(value):
        raise DomainError(f"{what} is not a finite number")
    return value


def wavelength_to_frequency(lambda_nm: float) -> float:
    """Convert a vacuum wavelength in nm to a frequency in GHz."""
    if not lambda_nm > 0:
        raise DomainError(f"wavelength must be positive, got {lambda_nm}")
    return _C_NM_GHZ / lambda_nm


def frequency_to_wavelength(freq_ghz: float) -> float:
    """Inverse of :func:`wavelength_to_frequency`."""
    if not freq_ghz > 0:
        raise DomainError(f"frequency must be positive, got {freq_ghz}")
    return _C_NM_GHZ / freq_ghz


def splitting_nm_to_ghz(delta_lambda_nm: float, center_lambda_nm: float) -> float:
    """First-order conversion of a small wavelength splitting to GHz.

    Uses d(nu) = c * d(lambda) / lambda^2 around the given center
    wavelength; the sign of the result follows the sign of the input.
    """
    if not center_lambda_nm > 0:
        raise DomainError(
            f"center wavelength must be positive, got {center_lambda_nm}")
    try:
        square = center_lambda_nm**2
    except OverflowError:
        square = math.inf
    return _finite_quotient(_C_NM_GHZ * delta_lambda_nm, square,
                            "splitting c dlambda / lambda^2")


def lande_g_factor(splitting_ghz: float, field: float) -> float:
    """Lande g-factor from a Zeeman splitting (GHz) at a field (T).

    g = h * dnu / (mu_B * B) with dnu in Hz.
    """
    if not field > 0:
        raise DomainError(f"field must be positive, got {field}")
    return _finite_quotient(CONSTANTS.planck_h * splitting_ghz * 1e9,
                            CONSTANTS.bohr_magneton * field,
                            "g-factor h dnu / (mu_B B)")


def zeeman_splitting_ghz(g_factor: float, field: float) -> float:
    """Zeeman splitting in GHz for a g-factor at a field in T."""
    return g_factor * CONSTANTS.bohr_magneton * field / CONSTANTS.planck_h / 1e9


def thermal_spin_up_population(delta_e_mev: float,
                               temperature: float = DEFAULT_TEMPERATURE_K) -> float:
    """Equilibrium occupation of the higher-energy ground state.

    With Boltzmann ratio r = exp(-dE / kT) the two-level occupation of
    the upper state is r / (1 + r), which lies in (0, 0.5] for dE >= 0.
    For dE < 0 it is evaluated as 1 / (1 + 1/r), so nothing overflows.
    """
    if not temperature > 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    x = _finite_quotient(delta_e_mev * 1e-3 * EV_JOULES,
                         CONSTANTS.boltzmann_k * temperature, "dE / kT")
    ratio = math.exp(-abs(x))
    return (ratio if x >= 0 else 1.0) / (1.0 + ratio)


def cooperativity(g: float, kappa: float, gamma: float) -> float:
    """Atom-cavity cooperativity 2 g^2 / (kappa * gamma).

    All three rates are quoted values (value/2pi in GHz); the 2pi factors
    cancel in the ratio. The coupling g must be >= 0.
    """
    if not g >= 0:
        raise DomainError(f"coupling g must be >= 0, got {g}")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    return _finite_quotient(2.0 * g * g, kappa * gamma,
                            "cooperativity 2 g^2 / (kappa gamma)")


def is_strongly_coupled(g: float, kappa: float, gamma: float) -> bool:
    """True when coherent exchange beats dissipation: 4 g > kappa + gamma."""
    if g < 0 or kappa < 0 or gamma < 0:
        raise DomainError("rates must be non-negative")
    return 4.0 * g > kappa + gamma


@dataclass(frozen=True)
class TrionLevels:
    """Zeeman level structure of a negatively charged exciton.

    ``zero_field_frequency`` is the degenerate transition frequency at
    zero field (GHz). ``electron_g`` and ``hole_g`` split the ground and
    excited doublets; ``diamagnetic_coeff`` (GHz/T^2) adds a common
    quadratic shift of all four transitions. ``field`` is the applied
    in-plane magnetic field in T.
    """

    zero_field_frequency: float
    electron_g: float
    hole_g: float
    diamagnetic_coeff: float = 0.0
    field: float = 0.0

    def __post_init__(self):
        for name in ("zero_field_frequency", "electron_g", "hole_g",
                     "diamagnetic_coeff", "field"):
            _require_finite_real(name, getattr(self, name))
        if self.field < 0:
            raise DomainError(f"field must be >= 0, got {self.field}")

    @property
    def electron_splitting(self) -> float:
        """Ground-state Zeeman splitting in GHz at the current field."""
        return zeeman_splitting_ghz(self.electron_g, self.field)

    @property
    def hole_splitting(self) -> float:
        """Excited-state Zeeman splitting in GHz at the current field."""
        return zeeman_splitting_ghz(self.hole_g, self.field)


def transition_frequencies(levels: TrionLevels) -> tuple[float, float, float, float]:
    """Frequencies of the four optical transitions, highest first.

    The center shifts as nu0 + c*B^2 and the four lines sit at the
    +-De/2 +-Dh/2 corners of the level parallelogram, where De and Dh
    are the electron (ground) and hole (excited) Zeeman splittings.
    Transition 1 is the highest-frequency (shortest-wavelength) line,
    transition 4 the lowest. A field at which any of them is not finite
    raises DomainError.
    """
    center = levels.zero_field_frequency + \
        levels.diamagnetic_coeff * (levels.field * levels.field)
    de = levels.electron_splitting
    dh = levels.hole_splitting
    lines = (
        center + de / 2 + dh / 2,
        center + de / 2 - dh / 2,
        center - de / 2 + dh / 2,
        center - de / 2 - dh / 2,
    )
    if not all(map(math.isfinite, lines)):
        raise DomainError(f"transition frequencies at field {levels.field!r} T "
                          "are not finite")
    return lines
