"""Weighted Wiener norms, per-snapshot norm reports and the strip-radius fit.

The continuum norm  sum-type ``F^{s,1}_nu(t) = || exp(nu t |xi|) |xi|^s g_hat ||_L1``
is realized on Fourier-series coefficients as ``sum_k exp(nu t |xi_k|) |xi_k|^s |c_k|``;
for nu t > 0 the sum runs over the coefficients above ``NOISE_FLOOR`` times the largest.
All admissibility thresholds elsewhere in the package are compared in this
discrete convention on both sides of every inequality, so the inequalities
carry over verbatim (Young's inequality holds for l1 coefficient convolutions).
A ``NormReport`` checks the two interpolation inequalities its norms must
satisfy, F^{1,1} <= (F^{0,1} F^{2,1})^(1/2) and F^{3/2,1} <= (F^{1,1} F^{2,1})^(1/2).
The fit is the closed-form least-squares slope of a line, so a run calls
no LAPACK or BLAS routine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WeightRangeError
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


@functools.lru_cache(maxsize=2)
def _growth(grid: GridSpec, nu_t: float, time: float) -> np.ndarray:
    """Read-only exp(nu t |xi_k|); the norms of one snapshot share it, at nu and at 2 nu."""
    arg = nu_t * np.abs(grid.wavenumbers())
    if arg.size and np.max(arg) > _EXP_GUARD:
        raise WeightRangeError(
            f"weight exponent {np.max(arg):.3g} at t = {time:g} "
            f"exceeds the exponential guard {_EXP_GUARD}"
        )
    out = np.exp(arg)
    out.flags.writeable = False
    return out


def _weights(grid: GridSpec, spec: NormSpec, c: np.ndarray, keep=None) -> np.ndarray:
    """Weights of the F^{s,1}_nu sum over the coefficient moduli ``c``, whose noise mask
    ``keep`` is taken here when not given."""
    pw = _power_weights(grid, spec.s)
    nu_t = spec.nu * spec.time
    # exp(0) * pw is pw bit for bit
    if nu_t == 0.0:
        return pw
    # e^37 is about 1e16: past nu t xi of about 37 the weight lifts round-off
    # coefficients to the size of the signal, so only those above the noise
    # floor count
    keep = c > NOISE_FLOOR * np.max(c) if keep is None else keep
    return np.where(keep, _growth(grid, nu_t, spec.time) * pw, 0.0)


def _fourier_sum(grid: GridSpec, spec: NormSpec, c: np.ndarray, keep=None) -> float:
    return float(np.sum(_weights(grid, spec, c, keep) * c))


def _l2_sum(grid: GridSpec, spec: NormSpec, c: np.ndarray, keep=None) -> float:
    # |exp(nu t |xi|) c|^2 is |c|^2 under the weight at 2 nu
    w = _weights(grid, NormSpec(0.0, 2.0 * spec.nu, spec.time), c, keep)
    return float(math.sqrt(grid.domain_length * np.sum(w * c ** 2)))


def fourier_norm(fld: SpectralField, spec: NormSpec) -> float:
    """sum_k exp(nu t |xi_k|) |xi_k|^s |c_k|  (mode zero counts only for s = 0)."""
    return _fourier_sum(fld.grid, spec, np.abs(fld.coefficients))


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x in closed form, sum (x - mean x) y / sum (x - mean x)^2."""
    d = x - np.mean(x)
    return float(np.sum(d * y) / np.sum(d * d))


def _strip_radius(grid: GridSpec, c: np.ndarray) -> float | None:
    """Closed-form least-squares slope of -log|c_k| against xi_k over modes k >= 1 above
    the noise floor, for the coefficient moduli ``c``.

    The floor is ``NOISE_FLOOR`` times the largest |c_k|, as for the weighted
    norms, so a small interface keeps its fit.  Returns None when fewer than 8
    usable modes remain (diagnostic unavailable, not a failure).  Clamped
    below at zero.
    """
    sel = (grid.mode_numbers() >= 1) & (c > NOISE_FLOOR * np.max(c))
    if int(np.count_nonzero(sel)) < _MIN_FIT_MODES:
        return None
    return max(_slope(grid.wavenumbers()[sel], -np.log(c[sel])), 0.0)


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
    """The five norms and the strip radius of one snapshot, from one pass of |c_k|, one
    noise mask and one exponential weight at nu and one at 2 nu (``_growth``)."""
    grid, c = fld.grid, np.abs(fld.coefficients)
    keep = c > NOISE_FLOOR * np.max(c)
    return NormReport(
        f01=_fourier_sum(grid, NormSpec(0.0, nu, time), c, keep),
        f11=_fourier_sum(grid, NormSpec(1.0, nu, time), c, keep),
        f21=_fourier_sum(grid, NormSpec(2.0, nu, time), c, keep),
        f3half=_fourier_sum(grid, NormSpec(1.5, nu, time), c, keep),
        l2nu=_l2_sum(grid, NormSpec(0.0, nu, time), c, keep),
        strip_radius=_strip_radius(grid, c),
    )
