"""Vorticity amplitudes on the fluid and permeability interfaces.

The sheet strength on the permeability line is an explicit nonsingular
integral of the fluid-sheet strength; the fluid-sheet strength solves an
implicit equation omega1 = T(omega1).  At the flat interface T is the
diagonal Fourier map omega1 -> A_kappa A_mu e^{-2 h2 |xi|} omega1 - 2 A_rho df/da,
so the solve is a Richardson iteration preconditioned by that exact
linearization: omega1 <- omega1 + M (T(omega1) - omega1) with
M(xi) = 1 / (1 - A_kappa A_mu e^{-2 h2 |xi|}), seeded at the linear strength
M (-2 A_rho df/da) plus the extrapolated corrections of earlier solves when a
run has them.  An update that grows in ``_GROWTH_LIMIT`` consecutive iterations
ends the solve as a divergence.

The line couples to the interface only through the Poisson kernel at depth
h2 + f, whose symbol e^{-(h2 + f)|xi|} is entire in f.  It is interpolated in
f at p first-kind Chebyshev points on [min f, max f], so the line-coupling
integrals become p batched transforms weighted by Lagrange values; this
converges geometrically up to the geometric limit min f + h2 > 0 (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 4 and 8).

The self-induction terms are combinations of two alternating-rule sums
S0 and S1 = sum_m pv_m phi(Delta_m(a)) w(a - m h) over the odd offsets m,
with Delta_m = (f(a) - f(a - m h)) / (m h) and phi = 1/(1 + Delta^2) or
Delta/(1 + Delta^2): the strength equation reads df S0 - S1, the interface
velocity I1 = S0 and I2 = df S1.  Both split into a near and a far field, as
the fast multipole method splits its sums (Greengard & Rokhlin, JCP 73,
1987): the K offsets nearest zero are summed directly, O(K N), and on the
others |Delta_m| is at most ||f||_{F^{1,1}} and (max f - min f)/(|m| h),
so phi = sum_d c_d Delta^d is expanded geometrically in Delta and Delta^d
binomially (Constantin, Cordoba, Gancedo & Strain, JEMS 15, 2013, expand the
Muskat kernel the same way).  The tables c_d d! pv_m / m^d and the powers
(-F_c)^i / i! and F_c^j / j! of the centred height carry every weight, so
each far sum is a Hankel sum of circular convolutions, O(order^2 N +
order N log N) by FFT.  One cost model picks K and the order per snapshot
under the series' truncation and rounding bounds; K = 0 is the series alone
and K = N/2 the O(N^2) sums alone.

One evaluation serves every nonlocal operator at once (``_Workspace.evaluate``):
both the line coupling and the self-term series start from transforms of
weighted copies of omega1 and end in inverse transforms back on the interface,
so a strength evaluation is one batched forward and one batched inverse real
FFT, the batching of independent transforms of FFTW's "many" plans (Frigo &
Johnson, Proc. IEEE 93, 2005).  Every evaluation yields the two self sums, and
the solve's last one, at the strength it returns, serves the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import certify
from .errors import ConfigurationError, GeometryError, PicardDivergenceError, RegimeError
from .norms import NormSpec, _power_weights, fourier_norm
from .spectral import (GridSpec, SpectralField, hermitian_extension, odd_offset_rows,
                       odd_offsets, pv_kernel_periodic)

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_PICARD_TOL = 1e-11
DEFAULT_PICARD_MAX_ITER = 80
# consecutive growths of the update norm that end the solve as a divergence
_GROWTH_LIMIT = 3
# rounding of the self-term series, in ulps of (order + 1) times its largest
# binomial term; at most 0.22 measured over N = 256..1024, far-field rho up
# to 6.5 and orders up to 40
_SELF_ROUNDING_ULPS = 16.0
# costs of the self-term rule, in rows of N of the near field (its build and
# gathers over a right-hand side): one spectral product of the series, and a
# near field at all.  Measured per right-hand side at N = 512 and 2048: a
# product 7 to 12 and 23 to 40 us against 7.3 and 29 us per offset (2 rows),
# so 1.6 to 3.4 rows; a near field at all 55 us at N = 512 against 4 us per
# offset
_PRODUCT_ROWS = 3.0
_NEAR_ROWS = 16.0
# near-field widths are multiples of this, so that a run whose K drifts from
# snapshot to snapshot builds and caches fewer far-field tables, each paged
# in fresh: 10 instead of 23 over 70 steps of an amplitude-0.95 bump at
# N = 2048
_NEAR_STEP = 8


@dataclass(frozen=True)
class FluidConfig:
    """Dimensionless contrasts A_kappa, A_mu, A_rho and permeability depth h2."""

    a_kappa: float
    a_mu: float
    a_rho: float
    h2: float

    def __post_init__(self):
        if not abs(self.a_kappa) < 1.0:
            raise ConfigurationError(f"|A_kappa| must be < 1, got {self.a_kappa!r}")
        if not abs(self.a_mu) < 1.0:
            raise ConfigurationError(f"|A_mu| must be < 1, got {self.a_mu!r}")
        if not 0.0 < self.a_rho < math.inf:
            raise ConfigurationError(f"A_rho must be finite and > 0 (stable), got {self.a_rho!r}")
        if not 0.0 < self.h2 < math.inf:
            raise ConfigurationError(f"h2 must be finite and > 0, got {self.h2!r}")

    def to_dict(self) -> dict:
        return {"a_kappa": self.a_kappa, "a_mu": self.a_mu,
                "a_rho": self.a_rho, "h2": self.h2}

    def hash(self) -> str:
        return certify.config_hash(self.to_dict())


@dataclass(frozen=True)
class VorticityPair:
    """Solved sheet strengths with the final Picard residual.

    ``evaluation`` is the solve's last ``_Workspace.evaluate`` pass, at the
    returned strength: its samples of omega1, the line coupling and the two
    self sums, which a consumer reads instead of transforming again.  The
    solve's correction, its next iterate, goes to the caller's list
    (``solve_vorticity``).  The spectra ``omega1`` and ``omega2`` are
    extended from the evaluation's half spectra on first read, which the
    step never makes.
    """

    grid: GridSpec
    residual: float
    iterations: int
    evaluation: _Evaluation = field(repr=False, compare=False)
    contraction_ratio: float | None = None

    @cached_property
    def omega1(self) -> SpectralField:
        return SpectralField._adopt(self.grid, hermitian_extension(self.evaluation.omega1,
                                                                   self.grid))

    @cached_property
    def omega2(self) -> SpectralField:
        return SpectralField._adopt(self.grid, hermitian_extension(self.evaluation.omega2,
                                                                   self.grid))


class _Evaluation(NamedTuple):
    """The nonlocal operators at samples ``w1`` of omega1, from one ``_Workspace.evaluate``.

    ``omega1`` and ``omega2`` are the half spectra k = 0..N/2 of the two sheet
    strengths; ``p`` and ``cp`` the samples of P omega2 and CP omega2 on the
    interface.  ``s0`` and ``s1`` are the two self sums
    S0 = sum_m pv_m / (1 + Delta_m^2) w1(a - m h) and
    S1 = sum_m pv_m Delta_m / (1 + Delta_m^2) w1(a - m h), so that I1 = S0 and
    I2 = df S1; ``self_term`` is the strength equation's df S0 - S1.
    """

    w1: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    p: np.ndarray
    cp: np.ndarray
    self_term: np.ndarray
    s0: np.ndarray
    s1: np.ndarray


def _check_gap(lowest: float, cfg: FluidConfig) -> None:
    """Raise GeometryError unless the lowest interface sample keeps f + h2 > 0."""
    gap = lowest + cfg.h2
    if gap <= 0.0:
        raise GeometryError(f"interface touches the permeability line (min f + h2 = {gap:.3g})")


@lru_cache(maxsize=32)
def _flat_spectra(grid: GridSpec, cfg: FluidConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only preconditioner M(xi), |xi| and i xi, all on k = 0..N/2."""
    xi = grid.wavenumbers()[: grid.nyquist_index() + 1]
    axi = np.abs(xi)
    multiplier = 1.0 / (1.0 - cfg.a_kappa * cfg.a_mu * np.exp(-2.0 * cfg.h2 * axi))
    ixi = 1j * xi
    multiplier.flags.writeable = axi.flags.writeable = ixi.flags.writeable = False
    return multiplier, axi, ixi


@lru_cache(maxsize=32)
def _chebyshev_nodes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cosines cos(theta_j) of the p first-kind Chebyshev points and the
    p x p weights (2 - [k = 0]) / p cos(k theta_j), theta_j = pi (j + 1/2) / p,
    of l_j = sum_k weight_jk T_k."""
    k = np.arange(p)
    theta = np.pi * (k + 0.5) / p
    cosines = np.cos(theta)
    weights = np.where(k == 0, 1.0, 2.0) / p * np.cos(np.outer(theta, k))
    cosines.flags.writeable = weights.flags.writeable = False
    return cosines, weights


def _coupling_nodes(gap: float, rho: float, xi_max: float, scale: float, tol: float,
                    n_points: int) -> int:
    """Node count p of the line-coupling interpolant on [min f, max f] = c + rho [-1, 1].

    The symbol's Chebyshev coefficients are 2 (-1)^k e^{-(h2 + c)|xi|} I_k(rho |xi|)
    and the interpolant is off by at most twice those past degree p - 1.  p is
    the smallest count whose tail, on operands of size ``scale``, stays below
    tol / 10 by either of two bounds on I_k(z), with gap = h2 + min f:
    (a) (z/2)^k e^z / k!: term k is at most 2 sup_{|xi| <= xi_max}
        e^{-gap |xi|} (rho |xi| / 2)^k / k!, whose ratio to the last is at most
        rho / (2 gap) inside |xi| < xi_max and rho xi_max / (2 (k + 1)) once the
        sup sits at xi_max (k >= gap xi_max);
    (b) e^{z cosh s - k s} for any s > 0 (e^{z (u + 1/u) / 2} = sum_k I_k(z) u^k
        has no negative term at u = e^s): the error is at most
        4 e^{|xi| (rho cosh s - h2 - c) - p s} / (1 - e^{-s}), whose |xi| term
        vanishes at s0 = acosh(1 + gap / rho); past s0 it is taken at xi_max
        with sinh s = p / (rho xi_max).  (b) is the sharper where rho xi_max is
        large.
    Past n_points nodes the grid cannot resolve the coupling: GeometryError.
    """
    if rho == 0.0:
        return 1
    # in logs: rho, tol and the scale may sit at either end of the double range
    log_target = math.log(tol) - math.log(40.0 * scale)
    knee = gap * xi_max
    s0 = math.acosh(1.0 + gap / rho)
    for p in range(1, n_points + 1):
        if p < knee:
            log_t = p * (math.log(rho) - math.log(2.0)) + certify._log_env(p, gap)
            ratio = rho / (2.0 * gap)
        else:
            log_t = p * (math.log(rho) + math.log(xi_max / 2.0)) - knee - math.lgamma(p + 1)
            ratio = rho * xi_max / (2.0 * (p + 1))
        if ratio < 1.0 and log_t - math.log1p(-ratio) < log_target:
            return p
        q = p / (rho * xi_max)
        s = max(s0, math.asinh(q))
        # xi_max (rho cosh s - h2 - c) at sinh s = q, without cosh of a large s
        lift = p / (math.sqrt(1.0 + (1.0 / q) * (1.0 / q)) + 1.0 / q) - knee if s > s0 else 0.0
        if lift - p * s - math.log(-math.expm1(-s)) < log_target:
            return p
    raise GeometryError(f"the line coupling needs more than {n_points} interpolation nodes "
                        f"(min f + h2 = {gap:.3g}, (max f - min f)/2 = {rho:.3g})")


def _odd_offset_pv(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Odd offsets beta_m = m h and their alternating-rule weights 2 h (pi/L) cot(pi beta_m/L)."""
    beta = odd_offsets(grid) * grid.spacing
    return beta, pv_kernel_periodic(beta, grid.domain_length) * 2.0 * grid.spacing


def _self_rule(u: float, r_c: float, tol: float, n_points: int) -> tuple[int, int]:
    """Near-field width K and far-field series order of the two self sums.

    The K odd offsets |m| < K (K a multiple of ``_NEAR_STEP``) are summed
    directly, the others by the series.  On the interpolant |Delta_m| <= sup |f'| <= u = ||f||_{F^{1,1}},
    and on the samples |Delta_m| <= r_c / |m|, r_c = (max f - min f) / h, so
    every far offset has |Delta_m| <= q = min(u, rho), rho = r_c / (K + 1).
    The kernels of S0 and S1 are power series in Delta whose coefficients are
    0 or +-1, and the self terms take them times 1 or df, |df| <= u, so
    truncating past Delta^order leaves at most max(1, u) q^(order+1)/(1 - q)
    of the operand sum_m |pv_m| ||w||_inf.  In powers of the centred
    F_c = (f - c)/h the binomial terms of Delta_m^d reach rho^d of it, times
    max(1, u), and cancel: their rounding, below (order + 1) max(1, rho)^order
    of them all, must stay below the tolerance too.  Both bounds are held to
    tol / 100, a tenth of the line-coupling interpolant's share, as this
    scale is the operand's own size and not a floor of 1: at tol / 10 the
    decay case moved by 1e-12 relative in F^{2,1} over 100 steps against the
    rows, at tol / 100 by 6e-15.

    Of the pairs that meet both bounds the cheapest is taken, at 2 K rows of
    N for the near field (and ``_NEAR_ROWS`` for one at all) against
    ``_PRODUCT_ROWS`` rows per spectral product of the series,
    (order + 1)(order + 2)/2 of them.  Each order takes the least K its
    bounds allow, where q = u meets the truncation bound from K = 0 and
    otherwise from rho <= min(1/2, (tol / 200 / max(1, u))^(1/(order+1))).
    No order past the one q = u needs is cheaper, nor is any that costs more
    than the N rows of K = N/2, which leaves no far field (order 0 on a zero
    table) and so meets both bounds at any size, nor any past 170, whose
    tables' d! would overflow a double (the cost alone allows 171 from
    N = 45 056).
    """
    target, slope = tol / 100.0, max(1.0, u)
    rounding = _SELF_ROUNDING_ULPS * np.finfo(float).eps * slope
    top = min(170, math.ceil((math.sqrt(8.0 * n_points / _PRODUCT_ROWS + 1.0) - 3.0) / 2.0) - 1)
    order = 0
    while order < top and not (u < 1.0 and slope * u ** (order + 1) / (1.0 - u) <= target):
        order += 1
    best, cost = (n_points // 2, 0), float(n_points)
    widest = _NEAR_STEP * ((n_points // 2 - 1) // _NEAR_STEP)
    for order in range(order, -1, -1):
        if rounding * (order + 1) > target:
            continue
        rho = (target / rounding / (order + 1)) ** (1.0 / order) if order else math.inf
        if not (u < 1.0 and slope * u ** (order + 1) / (1.0 - u) <= target):
            rho = min(rho, 0.5, (0.5 * target / slope) ** (1.0 / (order + 1)))
        if r_c > rho * (widest + 1):
            break
        near = 0 if r_c <= rho else _NEAR_STEP * math.ceil((r_c / rho - 1.0) / _NEAR_STEP)
        fixed = 2 * near + (_NEAR_ROWS if near else 0.0)
        if fixed >= cost:
            break
        price = fixed + _PRODUCT_ROWS * (order + 1) * (order + 2) / 2
        if price < cost:
            best, cost = (near, order), price
    return best


@lru_cache(maxsize=32)
def _pv_power_spectra(grid: GridSpec, order: int, near: int) -> np.ndarray:
    """Read-only half spectra of the far-field tables c_d d! pv_m / m^d, d = 0..order.

    c_d = (-1)^floor(d/2) is the coefficient of Delta^d in 1/(1 + Delta^2)
    (d even) or in Delta/(1 + Delta^2) (d odd), and d! the numerator of the
    binomial C(d, i) = d! / (i! j!), whose 1/i! and 1/j! the powers of the
    height carry.  Row d holds the table at index m mod n for each odd offset
    |m| > near and 0 at the near and even ones, so its circular convolution
    with samples w is the far field's alternating-rule sum
    c_d d! sum_{|m| > near} pv_m m^-d w(a - m h).
    """
    n = grid.n_points
    m = odd_offsets(grid)
    far = np.abs(m) > near
    weights = np.array([(-1.0) ** (d // 2) * math.factorial(d) for d in range(order + 1)])
    rows = np.zeros((order + 1, n))
    # (1/m)^d, not 1/m^d: at high orders m^d overflows where the quotient only underflows
    rows[:, m[far] % n] = (weights[:, None] * _odd_offset_pv(grid)[1][far]
                           * (1.0 / m[far]) ** np.arange(order + 1)[:, None])
    spectra = np.fft.rfft(rows)
    spectra.flags.writeable = False
    return spectra


class _Workspace:
    """Kernel backend of one interface snapshot.

    Checks the geometry and builds once what every strength evaluation reads.
    The samples of f, df and the linear strength M (-2 A_rho df) come from one
    inverse transform of their half spectra, with the preconditioner
    ``multiplier`` M(xi) on k = 0..N/2 cached per (grid, fluid); the solve's
    ``forcing`` -2 A_rho df is kept with them.  The line
    coupling keeps the Poisson symbols e^{-(h2 + f_j)|xi|} at the
    ``coupling_nodes`` Chebyshev points f_j on k = 0..N/2 (Nyquist zeroed) and
    the Lagrange values l_j(f(a)), from the discrete orthogonality of T_k at
    the nodes, which divides by nothing.  The two self sums S0 and S1 split
    at the ``near_width`` K of ``_self_rule``: the K odd offsets |m| < K
    keep their kernels pv_m Delta/(1 + Delta^2) and pv_m/(1 + Delta^2), one
    row of N per offset, and the far offsets are summed by the series of
    order ``self_order`` in the centred samples F_c = (f - c)/h: the operand
    powers (-F_c)^i / i! and the output powers F_c^j / j!, i, j = 0..order,
    which with the tables c_d d! pv_m / m^d of ``_pv_power_spectra`` carry
    every weight of the binomial expansion.  The Lagrange values and the
    operand powers are stacked once, so that ``evaluate`` multiplies the
    stack by omega1 and transforms it in one call.
    """

    def __init__(self, f, cfg: FluidConfig, series_tol: float):
        fld = f.f
        grid = fld.grid
        self.grid, self.cfg = grid, cfg
        n, h = grid.n_points, grid.spacing
        self.multiplier, axi, ixi = _flat_spectra(grid, cfg)
        # f, df (i xi, Nyquist zeroed) and M (-2 A_rho df) on k = 0..N/2
        c = fld.coefficients[: len(axi)]
        dc = c * ixi
        dc[-1] = 0.0
        self.F, self.dF, self.linear = np.fft.irfft(
            np.array((c, dc, -2.0 * cfg.a_rho * self.multiplier * dc)), n, norm="forward")
        self.forcing = -2.0 * cfg.a_rho * self.dF
        lo, hi = float(np.min(self.F)), float(np.max(self.F))
        _check_gap(lo, cfg)
        # ||f||_{F^{1,1}}
        a1 = float(np.sum(_power_weights(grid, 1.0) * np.abs(fld.coefficients)))
        center, rho = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # strength norms scale like 2 A_rho C1 a1; keep the bound honest for
        # large density contrasts
        p = self.coupling_nodes = _coupling_nodes(cfg.h2 + lo, rho, float(axi[-1]),
                                                  max(1.0, 4.0 * cfg.a_rho * a1), series_tol, n)
        cosines, weights = _chebyshev_nodes(p)
        self._decay = np.exp(-np.outer(cfg.h2 + center + rho * cosines, axi))
        self._decay[:, -1] = 0.0
        near, order = self.near_width, self.self_order = _self_rule(a1, (hi - lo) / h,
                                                                      series_tol, n)
        self._tables = _pv_power_spectra(grid, order, near)
        # one block for the stack, l_j(f) and (-F_c)^i / i!, the output powers
        # F_c^j / j! and evaluate's scratch: the samples times the stack, their
        # spectra, the rows to invert, the series products of one order, the
        # inverted rows and the near kernels of S0 and S1.  With separate temporaries per evaluation, glibc's allocator
        # trimmed and refaulted the heap on every call at N = 1024 and 2048 (200
        # to 1300 page faults per step, against none now).
        q, half = p + order + 1, len(axi)
        rows = 2 * q
        block = np.empty((2 * q + order + 1 + rows + 2 * near) * n
                         + 2 * (q + rows + order + 1) * half)
        start, views = 0, []
        for shape, dtype in (((q, n), float), ((order + 1, n), float), ((q, n), float),
                             ((q, half), complex), ((rows, half), complex),
                             ((order + 1, half), complex), ((rows, n), float),
                             ((2, near, n), float)):
            size = math.prod(shape) * (2 if dtype is complex else 1)
            views.append(block[start: start + size].view(dtype).reshape(shape))
            start += size
        self._stack, self._powers, *self._scratch, self._near = views
        self._lagrange = self._stack[:p]
        # l_j(x) = (1/p) (1 + 2 sum_{k=1}^{p-1} T_k(x_j) T_k(x)), T_k(x_j) = cos(k theta_j),
        # T_k(x) by its recurrence; a flat interface (rho = 0) has p = 1 and l_0 = 1
        x = np.clip((self.F - center) / (rho or 1.0), -1.0, 1.0)
        cheb = np.ones((p, n))
        cheb[1:2] = x
        two_x = 2.0 * x
        for j in range(2, p):
            np.multiply(two_x, cheb[j - 1], out=cheb[j])
            cheb[j] -= cheb[j - 2]
        # einsum, not matmul: a p x p product needs no BLAS, whose first call
        # allocates its buffers
        np.einsum("jk,ka->ja", weights, cheb, out=self._lagrange)
        # F_c^j / j!, one row each, by products (not pow), and their odd rows
        # negated in the stack
        centred = (self.F - center) / h
        self._powers[0] = 1.0
        for j in range(1, order + 1):
            np.multiply(self._powers[j - 1], centred, out=self._powers[j])
            self._powers[j] /= j
        self._stack[p:] = self._powers
        self._stack[p + 1::2] *= -1.0
        if near:
            # the rows m_j = 2 j - N/2 + 1 of odd_offset_rows with |m_j| < K
            self._near_rows = slice(n // 4 - near // 2, n // 4 + near // 2)
            beta, pv = (a[self._near_rows, None] for a in _odd_offset_pv(grid))
            # Delta, then 1 + Delta^2, before pv divides by it
            k0, k1 = self._near
            np.subtract(self.F, odd_offset_rows(self.F)[self._near_rows], out=k1)
            k1 /= beta
            np.multiply(k1, k1, out=k0)
            k0 += 1.0
            np.divide(pv, k0, out=k0)
            k1 *= k0

    def evaluate(self, w1: np.ndarray) -> _Evaluation:
        """Every nonlocal operator at samples w1 of omega1, by one batched transform pair.

        One forward transform of the stacked rows times w1 gives the spectra of
        l_j(f) w1 and U_i of (-F_c)^i / i! w1, the first of which, U_0, is
        omega1's.  The permeability-sheet strength is
        omega2 = -A_kappa sum_j e^{-(h2 + f_j)|xi|} FFT[l_j(f) w1]; the line
        coupling back on the interface is
        sum_j l_j(f(a)) IFFT[pi (1, -i sgn xi) e^{-(h2 + f_j)|xi|} omega2_hat],
        2p rows, and the far field of each self sum is sum_j F_c^j / j! IFFT[A_j]
        with the Hankel sum A_j = sum_i T_{i+j} U_i over the tables T_d of
        ``_pv_power_spectra``, the even d for S0 and the odd for S1: one
        product and one sum per pair (d, i), O(order^2 N).  All of them go
        back in one inverse transform.  The near field adds its K offset rows
        of each sum directly.
        """
        n, p, order = self.grid.n_points, self.coupling_nodes, self.self_order
        x, spectra, z, terms, s = self._scratch
        # unnormalized forward transforms, so N omega2_hat below: spectra divided
        # by N reach the subnormal range in the series products at the decay
        # datum's high modes, which then run up to 7 times slower (N = 2048)
        np.fft.rfft(np.multiply(self._stack, w1, out=x), out=spectra)
        omega2 = -self.cfg.a_kappa * np.einsum("jk,jk->k", self._decay, spectra[:p])
        np.multiply(self._decay, np.pi * omega2, out=z[:p])
        # sgn(xi) is 1 for k = 1..N/2 - 1, and the Nyquist column is zero already
        np.multiply(z[:p], -1j, out=z[p: 2 * p])
        z[p: 2 * p, 0] = 0.0
        # A_j += T_d U_{d-j}, j = 0..d, into the rows of S0 (d even) or S1 (d odd);
        # U read backwards so that the writes run forward
        tables, u = self._tables, spectra[p:]
        z[2 * p:] = 0.0
        far = z[2 * p:].reshape(2, order + 1, -1)
        for d in range(order + 1):
            np.multiply(tables[d], u[d::-1], out=terms[: d + 1])
            far[d % 2, : d + 1] += terms[: d + 1]
        np.fft.irfft(z, n, out=s)
        pg, cpg = np.einsum("ja,qja->qa", self._lagrange, s[: 2 * p].reshape(2, p, n))
        # sum_j F_c^j / j! A_j, one group of order + 1 rows per sum, and the near rows
        sums = np.einsum("gja,ja->ga", s[2 * p:].reshape(2, order + 1, n), self._powers)
        if self.near_width:
            sums += np.einsum("gja,ja->ga", self._near, odd_offset_rows(w1)[self._near_rows])
        s0, s1 = sums
        return _Evaluation(w1, spectra[p] / n, omega2 / n, pg, cpg, self.dF * s0 - s1, s0, s1)


def solve_vorticity(f, cfg: FluidConfig, tol: float = DEFAULT_PICARD_TOL,
                    max_iter: int = DEFAULT_PICARD_MAX_ITER,
                    workspace: _Workspace | None = None,
                    corrections: list[np.ndarray] | None = None) -> VorticityPair:
    """Preconditioned Picard solve of the coupled sheet-strength system.

    With T(strength_1) = A_mu/pi (self-induction + line-coupling) - 2 A_rho df,
    iterates strength_1 <- strength_1 + M (T(strength_1) - strength_1),
    M(xi) = 1/(1 - A_kappa A_mu e^{-2 h2 |xi|}) the inverse of T's
    flat-interface linearization.  It stops before the update whose F^{0,1}
    norm drops below tol, and returns the iterate that update would have
    moved, with that norm as its residual.  An update norm that grows in
    ``_GROWTH_LIMIT`` consecutive iterations, or stays above tol for
    ``max_iter``, raises PicardDivergenceError with the update-norm history
    attached.  ``workspace`` is the snapshot's kernel backend, built here when
    not given; its last evaluation, at the returned strength, is the pair's
    ``evaluation``.

    A solve's correction is its next iterate, the returned strength plus the
    update its stop test measured, minus the linear strength M (-2 A_rho df):
    one contraction past the tolerance, so the noise that extrapolation lifts
    lies far below it.  The solve starts from the linear strength plus the
    cubic extrapolation 4c_n - 6c_{n-1} + 4c_{n-2} - c_{n-3} of
    ``corrections``, a run's list of them, oldest first (the quadratic
    3c_n - 3c_{n-1} + c_{n-2}, 2c_n - c_{n-1}, or c_n while fewer are known);
    once converged it keeps the last three and appends its own, in place.  At
    A_mu = 0 the strength is the linear one and its correction zero.  A solve
    that raises leaves the list as it was; one without a list starts cold.
    """
    ws = workspace or _Workspace(f, cfg, DEFAULT_SERIES_TOL)
    c = corrections or []
    w1 = ahead = ws.linear
    history: list[float] = []
    delta, it, grew, ratio = 0.0, 1, 0, None
    if cfg.a_mu != 0.0:
        start = (4.0 * c[-1] - 6.0 * c[-2] + 4.0 * c[-3] - c[-4] if len(c) >= 4
                 else 3.0 * c[-1] - 3.0 * c[-2] + c[-3] if len(c) == 3
                 else 2.0 * c[-1] - c[-2] if len(c) == 2 else c[-1] if c else None)
        # a fresh iterate, updated in place below
        w1 = w1 + start if start is not None else w1.copy()
        coupling = cfg.a_mu / np.pi
        for it in range(1, max_iter + 1):
            ev = ws.evaluate(w1)
            # (a_mu / pi) (self_term + df cp - p) + forcing - w1, in that order
            t1 = ws.dF * ev.cp
            t1 += ev.self_term
            t1 -= ev.p
            t1 *= coupling
            t1 += ws.forcing
            t1 -= w1
            # on k = 0..N/2; modes 1..N/2-1 stand for their mirrors too
            update = np.fft.rfft(t1, norm="forward")
            update *= ws.multiplier
            size = np.abs(update)
            delta = float(2.0 * np.sum(size) - size[0] - size[-1])  # its F^{0,1} norm
            history.append(delta)
            if len(history) >= 2 and history[-2] > 0:
                ratio = history[-1] / history[-2]
            # w1 is returned with its own residual and the evaluation at it
            if delta < tol:
                if corrections is not None:
                    ahead = w1 + np.fft.irfft(update, ws.grid.n_points, norm="forward")
                break
            grew = grew + 1 if len(history) >= 2 and delta > history[-2] else 0
            if grew == _GROWTH_LIMIT:
                raise PicardDivergenceError(
                    f"no contraction: the update grew in {grew} consecutive iterations "
                    f"(last residual {delta:.3g})", history)
            w1 += np.fft.irfft(update, ws.grid.n_points, norm="forward")
        else:
            raise PicardDivergenceError(f"no contraction after {max_iter} iterations "
                                        f"(last residual {history[-1]:.3g})", history)
    else:
        ev = ws.evaluate(w1)
    if corrections is not None:
        corrections[:] = [*c[-3:], ahead - ws.linear]
    return VorticityPair(ws.grid, residual=delta, iterations=it, evaluation=ev,
                         contraction_ratio=ratio)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


def vorticity_bound_check(pair: VorticityPair, f, cfg: FluidConfig,
                          nu: float = 0.0, t: float = 0.0) -> list[BoundCheck]:
    """Evaluate the four strength inequalities against the constant ledger.

    Raises RegimeError when the ledger constants are undefined at this size.
    """
    fld = f.f
    a0 = fourier_norm(fld, NormSpec(0.0, nu, t))
    a1 = fourier_norm(fld, NormSpec(1.0, nu, t))
    led = certify.ledger(a0, a1, cfg)
    if led.c1 is None or led.c3 is None or led.c4 is None:
        raise RegimeError(f"ledger constants undefined at (a0, a1) = ({a0:.3g}, {a1:.3g})")
    f11 = a1
    f21 = fourier_norm(fld, NormSpec(2.0, nu, t))
    w1_0 = fourier_norm(pair.omega1, NormSpec(0.0, nu, t))
    w1_1 = fourier_norm(pair.omega1, NormSpec(1.0, nu, t))
    w2_0 = fourier_norm(pair.omega2, NormSpec(0.0, nu, t))
    w2_1 = fourier_norm(pair.omega2, NormSpec(1.0, nu, t))
    two_ar = 2.0 * cfg.a_rho
    ak = abs(cfg.a_kappa)
    return [
        BoundCheck("omega1_F01", w1_0, two_ar * led.c1 * f11),
        BoundCheck("omega2_F01", w2_0, two_ar * ak * led.c0 * led.c1 * f11),
        BoundCheck("omega1_F11", w1_1, two_ar * led.c1 * led.c3 * f21),
        BoundCheck("omega2_F11", w2_1, two_ar * ak * led.c1 * led.c4 * f21),
    ]
