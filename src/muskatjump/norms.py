"""Weighted Wiener norms, per-snapshot norm reports, strip-radius and decay-rate fits.

The continuum norm  sum-type ``F^{s,1}_nu(t) = || exp(nu t |xi|) |xi|^s g_hat ||_L1``
is realized on Fourier-series coefficients as ``sum_k exp(nu t |xi_k|) |xi_k|^s |c_k|``.
All admissibility thresholds elsewhere in the package are compared in this
discrete convention on both sides of every inequality, so the inequalities
carry over verbatim (Young's inequality holds for l1 coefficient convolutions).
A ``NormReport`` checks the two interpolation inequalities its norms must
satisfy, F^{1,1} <= (F^{0,1} F^{2,1})^(1/2) and F^{3/2,1} <= (F^{1,1} F^{2,1})^(1/2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import GridSpec, SpectralField

NOISE_FLOOR = 1e-14
_EXP_GUARD = 700.0
_MIN_FIT_MODES = 8


@dataclass(frozen=True)
class NormSpec:
    """Derivative weight s, analyticity weight nu, and evaluation time."""

    s: float
    nu: float = 0.0
    time: float = 0.0

    def __post_init__(self):
        if self.s < 0 or self.nu < 0 or self.time < 0:
            raise DomainError("s, nu and time must all be nonnegative")


@functools.lru_cache(maxsize=32)
def _power_weights(grid: GridSpec, s: float) -> np.ndarray:
    """Read-only |xi_k|^s on the grid, with mode zero weighted 0 when s > 0."""
    xi = np.abs(grid.wavenumbers())
    with np.errstate(divide="ignore"):
        pw = xi ** s if s > 0 else np.ones_like(xi)
    if s > 0:
        pw[xi == 0] = 0.0
    pw.flags.writeable = False
    return pw


def _weights(fld: SpectralField, spec: NormSpec) -> np.ndarray:
    pw = _power_weights(fld.grid, spec.s)
    nu_t = spec.nu * spec.time
    # exp(0) * pw is pw bit for bit
    if nu_t == 0.0:
        return pw
    arg = nu_t * np.abs(fld.grid.wavenumbers())
    if arg.size and np.max(arg) > _EXP_GUARD:
        raise OverflowError(
            f"nu*t*xi_max = {np.max(arg):.3g} exceeds the exponential guard {_EXP_GUARD}"
        )
    return np.exp(arg) * pw


def fourier_norm(fld: SpectralField, spec: NormSpec) -> float:
    """sum_k exp(nu t |xi_k|) |xi_k|^s |c_k|  (mode zero counts only for s = 0)."""
    return float(np.sum(_weights(fld, spec) * np.abs(fld.coefficients)))


def weighted_l2(fld: SpectralField, spec: NormSpec) -> float:
    """Weighted Parseval sum, scaled by L so nu = 0 is the physical L2 norm."""
    xi = np.abs(fld.grid.wavenumbers())
    arg = 2.0 * spec.nu * spec.time * xi
    if arg.size and np.max(arg) > _EXP_GUARD:
        raise OverflowError(
            f"2*nu*t*xi_max = {np.max(arg):.3g} exceeds the exponential guard {_EXP_GUARD}"
        )
    total = np.sum(np.exp(arg) * np.abs(fld.coefficients) ** 2)
    return float(math.sqrt(fld.grid.domain_length * total))


def strip_radius(fld: SpectralField) -> float | None:
    """Least-squares slope of -log|c_k| against xi_k over modes k >= 1 above the noise floor.

    Returns None when fewer than 8 usable modes remain (diagnostic unavailable,
    not a failure).  Clamped below at zero.
    """
    k = fld.grid.mode_numbers()
    xi = fld.grid.wavenumbers()
    sel = (k >= 1) & (np.abs(fld.coefficients) > NOISE_FLOOR)
    if int(np.count_nonzero(sel)) < _MIN_FIT_MODES:
        return None
    x = xi[sel]
    y = -np.log(np.abs(fld.coefficients[sel]))
    slope = np.polyfit(x, y, 1)[0]
    return float(max(slope, 0.0))


def decay_fit(series) -> float:
    """Least-squares exponent beta for value ~ C (1+t)^beta.

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
    return float(np.polyfit(np.log1p(t), np.log(v), 1)[0])


@dataclass(frozen=True)
class NormReport:
    """F^{s,1}_nu values, weighted L2, and strip radius of one snapshot."""

    f01: float
    f11: float
    f21: float
    f3half: float
    l2nu: float
    strip_radius: float | None

    def __post_init__(self):
        vals = [self.f01, self.f11, self.f21, self.f3half, self.l2nu]
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("norm report entries must be finite")
        slack = 1.0 + 1e-9
        if self.f11 > math.sqrt(self.f01 * self.f21) * slack + 1e-300:
            raise DomainError("interpolation violated: f11 > sqrt(f01*f21)")
        if self.f3half > math.sqrt(self.f11 * self.f21) * slack + 1e-300:
            raise DomainError("interpolation violated: f3half > sqrt(f11*f21)")


def norm_report(fld: SpectralField, nu: float, time: float) -> NormReport:
    return NormReport(
        f01=fourier_norm(fld, NormSpec(0.0, nu, time)),
        f11=fourier_norm(fld, NormSpec(1.0, nu, time)),
        f21=fourier_norm(fld, NormSpec(2.0, nu, time)),
        f3half=fourier_norm(fld, NormSpec(1.5, nu, time)),
        l2nu=weighted_l2(fld, NormSpec(0.0, nu, time)),
        strip_radius=strip_radius(fld),
    )
