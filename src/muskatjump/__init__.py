"""Pseudo-spectral interface evolution over a permeability jump, with admissibility certificates."""

from .spectral import GridSpec, SpectralField, derivative, forward, inverse
from .norms import NormSpec, fourier_norm
from .vorticity import FluidConfig, VorticityPair, solve_vorticity, vorticity_bound_check
from .certify import Certificate, certify_datum, ledger, theta, thresholds
from .evolution import InterfaceField, linear_symbol, rhs, run, step

__all__ = [
    "GridSpec", "SpectralField", "forward", "inverse", "derivative",
    "NormSpec", "fourier_norm",
    "FluidConfig", "VorticityPair", "solve_vorticity", "vorticity_bound_check",
    "Certificate", "theta", "ledger", "thresholds", "certify_datum",
    "InterfaceField", "linear_symbol", "rhs", "step", "run",
]

__version__ = "0.1.0"
