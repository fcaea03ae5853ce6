"""Multi-dimensional elephant random walk: simulation, urn representation,
closed-form limit predictions and seeded Monte Carlo verification."""

from .ensemble import EnsembleConfig, EnsembleSummary, run_ensemble, simulate_replicas
from .enumeration import exact_small_n_pmf, project_pmf
from .montecarlo import (
    CheckResult,
    VerificationReport,
    verify_center_of_mass,
    verify_critical,
    verify_diffusive_clt,
    verify_slln,
    verify_superdiffusive,
)
from .params import BudgetError, ModelParams, ParameterError, RegimeError
from .theory import (
    RegimeReport,
    classify_regime,
    cm_covariance,
    critical_covariance,
    critical_memory,
    diffusive_covariance,
    memory_exponent,
)
from .urn import SpectralData, mean_replacement_matrix

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CheckResult",
    "EnsembleConfig",
    "EnsembleSummary",
    "ModelParams",
    "ParameterError",
    "RegimeError",
    "RegimeReport",
    "SpectralData",
    "VerificationReport",
    "classify_regime",
    "cm_covariance",
    "critical_covariance",
    "critical_memory",
    "diffusive_covariance",
    "exact_small_n_pmf",
    "mean_replacement_matrix",
    "memory_exponent",
    "project_pmf",
    "run_ensemble",
    "simulate_replicas",
    "verify_center_of_mass",
    "verify_critical",
    "verify_diffusive_clt",
    "verify_slln",
    "verify_superdiffusive",
]
