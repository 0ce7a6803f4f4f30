"""Pseudo-spectral interface evolution over a permeability jump, with admissibility certificates."""

from .spectral import (GridSpec, SpectralField, conj_poisson_hat, derivative, forward,
                       hilbert, inverse, poisson_hat)
from .norms import NormReport, NormSpec, decay_fit, fourier_norm, strip_radius, weighted_l2
from .vorticity import FluidConfig, VorticityPair, solve_vorticity, vorticity_bound_check
from .certify import Certificate, ConstantLedger, certify_datum, ledger, theta, thresholds
from .evolution import (InterfaceField, RhsBreakdown, TrajectoryRecord, linear_symbol,
                        rhs, run, step)

__all__ = [
    "GridSpec", "SpectralField", "forward", "inverse", "hilbert", "derivative",
    "poisson_hat", "conj_poisson_hat",
    "NormSpec", "NormReport", "fourier_norm", "weighted_l2", "strip_radius", "decay_fit",
    "FluidConfig", "VorticityPair", "solve_vorticity", "vorticity_bound_check",
    "Certificate", "ConstantLedger", "theta", "ledger", "thresholds", "certify_datum",
    "InterfaceField", "RhsBreakdown", "TrajectoryRecord", "linear_symbol",
    "rhs", "step", "run",
]

__version__ = "0.1.0"
