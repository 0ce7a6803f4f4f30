"""Slow, independent O(N^2) evaluators used as ground truth for the fast paths.

Everything here is written directly from the contour-integral definitions and
shares no code with the multiplier/series implementations: kernels are typed
locally, principal values use the alternating-offset rule, and induced
velocities come from the complex form of the vortex-sheet integral.
All kernels are the closed-form periodizations over one domain period; no
numerical image sums are performed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, GeometryError

_ODD, _FULL = "odd", "full"


def _grid_checks(n: int, L: float, *arrays):
    for a in arrays:
        if len(a) != n:
            raise ConfigurationError("sample arrays must all have length n")
    if n % 4 != 0:
        raise ConfigurationError("oracle quadrature requires n divisible by 4")


def _offsets(n: int, L: float, rule: str):
    m = np.arange(-n // 2 + 1, n // 2 + 1)
    if rule == _ODD:
        m = m[m % 2 != 0]
        weight = 2.0 * L / n
    else:
        weight = L / n
    return m, m * (L / n), weight


def _pv_cot(beta: np.ndarray, L: float) -> np.ndarray:
    return (np.pi / L) / np.tan(np.pi * beta / L)


def _poisson(a, beta, L: float):
    q = 2.0 * np.pi / L
    return (np.pi / L) * np.sinh(q * a) / (np.cosh(q * a) - np.cos(q * beta))


def _conj_poisson(a, beta, L: float):
    q = 2.0 * np.pi / L
    return (np.pi / L) * np.sin(q * beta) / (np.cosh(q * a) - np.cos(q * beta))


def _spectral_slope(F: np.ndarray, L: float) -> np.ndarray:
    n = len(F)
    k = np.fft.fftfreq(n, d=1.0 / n)
    xi = 2.0 * np.pi * k / L
    xi[n // 2] = 0.0
    return np.fft.ifft(1j * xi * np.fft.fft(F)).real


def quad_I(f_samples, omega_samples, cfg, which: int, domain_length: float) -> np.ndarray:
    """Direct quadrature of one of the four interface integrals.

    which=1,2 carry the principal-value slope kernels (alternating rule);
    which=3,4 carry the bounded line-coupling kernels (full trapezoid).
    """
    F = np.asarray(f_samples, dtype=float)
    w = np.asarray(omega_samples, dtype=float)
    n, L = len(F), domain_length
    _grid_checks(n, L, w)
    if np.min(F) + cfg.h2 <= 0:
        raise GeometryError("interface touches the permeability line")
    idx = np.arange(n)
    if which in (1, 2):
        m, beta, wt = _offsets(n, L, _ODD)
        cols = (idx[:, None] - m[None, :]) % n
        delta = (F[:, None] - F[cols]) / beta[None, :]
        kern = _pv_cot(beta, L)[None, :]
        if which == 1:
            K = kern / (1.0 + delta ** 2)
        else:
            dF = _spectral_slope(F, L)
            K = dF[:, None] * delta / (1.0 + delta ** 2) * kern
        return wt * np.sum(K * w[cols], axis=1)
    if which in (3, 4):
        m, beta, wt = _offsets(n, L, _FULL)
        cols = (idx[:, None] - m[None, :]) % n
        a = (F + cfg.h2)[:, None]
        if which == 3:
            K = _conj_poisson(a, beta[None, :], L)
        else:
            dF = _spectral_slope(F, L)
            K = dF[:, None] * _poisson(a, beta[None, :], L)
        return wt * np.sum(K * w[cols], axis=1)
    raise ConfigurationError(f"which must be one of 1..4, got {which!r}")


def quad_omega2(f_samples, omega1_samples, cfg, domain_length: float) -> np.ndarray:
    """Direct quadrature of the permeability-sheet strength integral."""
    F = np.asarray(f_samples, dtype=float)
    w1 = np.asarray(omega1_samples, dtype=float)
    n, L = len(F), domain_length
    _grid_checks(n, L, w1)
    if np.min(F) + cfg.h2 <= 0:
        raise GeometryError("interface touches the permeability line")
    idx = np.arange(n)
    m, beta, wt = _offsets(n, L, _FULL)
    cols = (idx[:, None] - m[None, :]) % n
    a_src = F[cols] + cfg.h2
    K = _poisson(a_src, beta[None, :], L)
    return -(cfg.a_kappa / np.pi) * wt * np.sum(K * w1[cols], axis=1)


def quad_BR_trace(f_samples, omega1_samples, omega2_samples, cfg,
                  domain_length: float, target: str = "fluid_curve"):
    """Induced velocity (u1, u2) on the fluid curve or the flat soil line.

    Uses the complex periodization of the sheet integral: with conjugate
    velocity W = u1 - i u2, each sheet contributes
    (1/2 pi i) sum_y strength(y) (pi/L) cot(pi (zeta - Z(y)) / L) dy, the
    self-curve term by the alternating principal-value rule.
    """
    F = np.asarray(f_samples, dtype=float)
    w1 = np.asarray(omega1_samples, dtype=float)
    w2 = np.asarray(omega2_samples, dtype=float)
    n, L = len(F), domain_length
    _grid_checks(n, L, w1, w2)
    if np.min(F) + cfg.h2 <= 0:
        raise GeometryError("interface touches the permeability line")
    nodes = np.arange(n) * (L / n)
    z_fluid = nodes + 1j * F
    z_soil = nodes - 1j * cfg.h2
    if target == "fluid_curve":
        zeta, self_curve, self_strength = z_fluid, z_fluid, w1
        other_curve, other_strength = z_soil, w2
    elif target == "soil_curve":
        zeta, self_curve, self_strength = z_soil, z_soil, w2
        other_curve, other_strength = z_fluid, w1
    else:
        raise ConfigurationError(f"target must be fluid_curve or soil_curve, got {target!r}")

    idx = np.arange(n)
    m, _, wt_odd = _offsets(n, L, _ODD)
    cols = (idx[:, None] - m[None, :]) % n
    arg_self = np.pi * (zeta[:, None] - self_curve[cols]) / L
    W = wt_odd * np.sum(self_strength[cols] * (np.pi / L) / np.tan(arg_self), axis=1)

    mf, _, wt_full = _offsets(n, L, _FULL)
    cols_f = (idx[:, None] - mf[None, :]) % n
    arg_cross = np.pi * (zeta[:, None] - other_curve[cols_f]) / L
    W = W + wt_full * np.sum(other_strength[cols_f] * (np.pi / L) / np.tan(arg_cross), axis=1)
    W = W / (2.0j * np.pi)
    return W.real, -W.imag


def quad_rhs(f_samples, omega1_samples, omega2_samples, cfg, domain_length: float) -> np.ndarray:
    """Total interface velocity (I1 + I2 + I3 + I4) / 2 pi by direct quadrature."""
    total = np.zeros_like(np.asarray(f_samples, dtype=float))
    for which, w in ((1, omega1_samples), (2, omega1_samples),
                     (3, omega2_samples), (4, omega2_samples)):
        total = total + quad_I(f_samples, w, cfg, which, domain_length)
    return total / (2.0 * np.pi)
