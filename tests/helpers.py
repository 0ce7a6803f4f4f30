"""Shared builders for test data."""

import numpy as np

from muskatjump import FluidConfig, GridSpec, SpectralField
from muskatjump.evolution import InterfaceField
from muskatjump.spectral import hermitian_symmetrize

REF_CFG = FluidConfig(a_kappa=0.5, a_mu=0.2, a_rho=1.0, h2=1.0)


def theta_reference_scan(cfg: FluidConfig) -> float:
    """Dense-grid minimum of the theta bracket 1 - A_kappa (1 - A_mu) / (e^y - A_kappa A_mu).

    The bracket depends on xi only through y = 2 h2 |xi|, scanned on [0, 100]:
    at y = 100 it is within e^-100 of its y -> infinity limit.
    """
    y = np.linspace(0.0, 100.0, 100001)
    vals = 1.0 - cfg.a_kappa * (1.0 - cfg.a_mu) / (np.exp(y) - cfg.a_kappa * cfg.a_mu)
    return float(np.min(vals))


def gaussian_bump(grid: GridSpec, amplitude: float, width: float) -> InterfaceField:
    x = grid.nodes()
    L = grid.domain_length
    return InterfaceField.from_samples(
        amplitude * np.exp(-((x - L / 2.0) ** 2) / (2.0 * width ** 2)), grid)


def exp_spectrum_bump(grid: GridSpec, amplitude: float, rate: float) -> InterfaceField:
    """Even bump whose coefficients decay exactly like exp(-rate |xi|)."""
    xi = grid.wavenumbers()
    c = amplitude * np.exp(-rate * np.abs(xi))
    c = c * np.exp(-1j * xi * grid.domain_length / 2.0)  # center at L/2
    c[0] = 0.0
    c[grid.nyquist_index()] = 0.0
    return InterfaceField(SpectralField(grid, hermitian_symmetrize(c), 0.0), 0.0)


def decay_packet(grid: GridSpec, a0_target: float = 0.034, xc: float = 0.01,
                 xi_hi: float = 0.5) -> InterfaceField:
    """The criterion-4 decay datum: zero-mean, coefficient envelope ~1/|xi| over [xc, xi_hi]."""
    xi = grid.wavenumbers()
    axi = np.abs(xi)
    env = xc * axi ** 2 / (xc ** 2 + axi ** 2) ** 1.5 * np.exp(-((axi / xi_hi) ** 2))
    env[0] = 0.0
    env[grid.nyquist_index()] = 0.0
    c = hermitian_symmetrize(env * np.exp(-1j * xi * grid.domain_length / 2.0))
    c = c * (a0_target / np.sum(np.abs(c)))
    return InterfaceField(SpectralField(grid, c, 0.0), 0.0)


def lowfreq_packet(grid: GridSpec, a0_target: float, xc: float = 0.02,
                   xi_hi: float = 1.0) -> InterfaceField:
    """Zero-mean bump with |c_k| flat below xc and ~ 1/|xi| up to the cutoff.

    The 1/xi band makes the F^{1,1} norm of the linearized flow decay like
    1/(1+t) over the window where 1/t stays inside the band.
    """
    xi = grid.wavenumbers()
    axi = np.abs(xi)
    env = xc / np.maximum(axi, xc) * np.exp(-((axi / xi_hi) ** 2))
    env[0] = 0.0
    env[grid.nyquist_index()] = 0.0
    c = env * np.exp(-1j * xi * grid.domain_length / 2.0)
    c = hermitian_symmetrize(c)
    scale = a0_target / np.sum(np.abs(c))
    return InterfaceField(SpectralField(grid, c * scale, 0.0), 0.0)


def random_field(grid: GridSpec, rng: np.random.Generator, decay: float = 0.5,
                 scale: float = 1.0) -> SpectralField:
    """Random real-symmetric field with exponentially decaying spectrum."""
    xi = grid.wavenumbers()
    mag = np.exp(-decay * np.abs(xi)) / (1.0 + np.abs(xi))
    phase = np.exp(2j * np.pi * rng.random(grid.n_points))
    c = hermitian_symmetrize(scale * mag * phase)
    c[grid.nyquist_index()] = 0.0
    return SpectralField(grid, c, 0.0)


def random_admissible_interface(grid: GridSpec, rng: np.random.Generator,
                                cfg: FluidConfig, k0: float, k1: float,
                                frac: float = 0.8) -> InterfaceField:
    """Random datum rescaled under both admissibility thresholds."""
    fld = random_field(grid, rng)
    xi = np.abs(grid.wavenumbers())
    a0 = np.sum(np.abs(fld.coefficients))
    a1 = np.sum(xi * np.abs(fld.coefficients))
    scale = frac * min(k0 / a0, k1 / a1)
    return InterfaceField(SpectralField(grid, fld.coefficients * scale, 0.0), 0.0)
