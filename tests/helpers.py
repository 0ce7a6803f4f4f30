"""Shared builders for test data, and the closed forms and fits the tests compare against."""

import numpy as np

from muskatjump import FluidConfig, GridSpec, NormSpec, SpectralField, norms
from muskatjump.errors import DomainError
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


def poisson_hat(a: float, xi) -> float | np.ndarray:
    """Whole-line transform of a/(x^2+a^2): pi exp(-a|xi|)."""
    if a <= 0:
        raise DomainError(f"kernel depth a must be positive, got {a!r}")
    return np.pi * np.exp(-a * np.abs(xi))


def conj_poisson_hat(a: float, xi) -> complex | np.ndarray:
    """Whole-line transform of x/(x^2+a^2): -i pi sgn(xi) exp(-a|xi|), sgn(0) = 0."""
    if a <= 0:
        raise DomainError(f"kernel depth a must be positive, got {a!r}")
    return -1j * np.pi * np.sign(xi) * np.exp(-a * np.abs(xi))


def weighted_l2(fld: SpectralField, spec: NormSpec) -> float:
    """Weighted Parseval sum, scaled by L so nu = 0 is the physical L2 norm: the sum
    behind ``norm_report``'s ``l2nu``."""
    return norms._l2_sum(fld.grid, spec, np.abs(fld.coefficients))


def strip_radius(fld: SpectralField) -> float | None:
    """``norm_report``'s strip-radius fit of one field."""
    return norms._strip_radius(fld.grid, np.abs(fld.coefficients))


def decay_fit(series) -> float:
    """Least-squares exponent beta for value ~ C (1+t)^beta: the closed-form slope of
    log value against log(1+t).

    Requires at least 10 samples spanning a decade in 1+t and positive values.
    """
    pts = list(series)
    if len(pts) < 10:
        raise DomainError("decay_fit needs at least 10 samples")
    t = np.array([p[0] for p in pts], dtype=float)
    v = np.array([p[1] for p in pts], dtype=float)
    if np.any(v <= 0):
        raise DomainError("decay_fit requires positive values")
    if np.any(t < 0):
        raise DomainError("decay_fit requires nonnegative times")
    span = (1.0 + t.max()) / (1.0 + t.min())
    if span < 10.0:
        raise DomainError(f"time range must span a decade in 1+t, got factor {span:.3g}")
    return norms._slope(np.log1p(t), np.log(v))
