"""Spin-dependent cavity reflectivity: simulation and parameter extraction.

A charged quantum dot in a photonic crystal cavity reflects a probe
differently depending on its electron spin state. This package builds
the driven Lindblad master equation of the coupled system, solves for
its steady state, evaluates the matching closed-form reflectivity
expressions, and fits measured or synthetic spectra to recover the
cavity-QED rates and the spin populations.
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericalError, SpinCavityError, StateError
from .fitkit import (FitProblem, FitResult, FreeParam, ModelKind, fit,
                     fit_thermal_pup, free_param, profile_bound)
from .hilbert import (SystemParams, build_liouvillian,
                      expectation_cavity_amplitude, expectation_photon_number,
                      fock_convergence_shift, steady_state,
                      time_evolve_oracle, validate_density_matrix)
from .physcalc import (CONSTANTS, PhysConstants, TrionLevels, cooperativity,
                       frequency_to_wavelength, is_strongly_coupled,
                       lande_g_factor, splitting_nm_to_ghz,
                       thermal_spin_up_population, transition_frequencies,
                       wavelength_to_frequency, zeeman_splitting_ghz)
from .spectra import (FringeModel, ScanConfig, Spectrum, dit_spectrum,
                      field_sweep, lorentzian_spectrum,
                      master_equation_spectrum, max_relative_difference,
                      mixed_spectrum, synthesize_noisy,
                      two_transition_spectrum)

__all__ = [
    "__version__",
    "CONSTANTS", "PhysConstants", "TrionLevels", "SystemParams",
    "Spectrum", "ScanConfig", "FringeModel",
    "FitProblem", "FitResult", "FreeParam", "ModelKind",
    "wavelength_to_frequency", "frequency_to_wavelength",
    "splitting_nm_to_ghz", "lande_g_factor", "zeeman_splitting_ghz",
    "thermal_spin_up_population", "cooperativity", "is_strongly_coupled",
    "transition_frequencies",
    "build_liouvillian", "steady_state",
    "time_evolve_oracle", "expectation_photon_number",
    "expectation_cavity_amplitude", "validate_density_matrix",
    "fock_convergence_shift",
    "lorentzian_spectrum", "dit_spectrum", "two_transition_spectrum",
    "master_equation_spectrum", "mixed_spectrum", "field_sweep",
    "synthesize_noisy", "max_relative_difference",
    "fit", "fit_thermal_pup", "free_param", "profile_bound",
    "SpinCavityError", "DomainError", "StateError", "NumericalError",
]
