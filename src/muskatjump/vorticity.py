"""Vorticity amplitudes on the fluid and permeability interfaces.

The sheet strength on the permeability line is an explicit nonsingular
integral of the fluid-sheet strength; the fluid-sheet strength solves an
implicit equation omega1 = T(omega1).  At the flat interface T is the
diagonal Fourier map omega1 -> A_kappa A_mu e^{-2 h2 |xi|} omega1 - 2 A_rho df/da,
so the solve is a Richardson iteration preconditioned by that exact
linearization: omega1 <- omega1 + M (T(omega1) - omega1) with
M(xi) = 1 / (1 - A_kappa A_mu e^{-2 h2 |xi|}), seeded at the linear strength
M (-2 A_rho df/da) plus the nonlinear correction of a previous solve when one
is at hand.  An update that grows in ``_GROWTH_LIMIT`` consecutive iterations
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
velocity I1 = S0 and I2 = df S1.  On a snapshot whose ||f||_{F^{1,1}}
bounds every |Delta| well below 1, phi is expanded geometrically in Delta
and Delta^d binomially, so each sum becomes a short series of circular
convolutions of f^i w with the tables pv_m / m^d, O(order^2 N +
order N log N) by FFT (Constantin, Cordoba, Gancedo & Strain, JEMS 15, 2013,
expand the Muskat kernel the same way).
Where the truncation or rounding bound of that series fails, the O(N^2)
difference-quotient rows serve; that choice is the only one made per snapshot.

One evaluation serves every nonlocal operator at once (``_Workspace.evaluate``):
both the line coupling and the self-term series start from transforms of
weighted copies of omega1 and end in inverse transforms back on the interface,
so a strength evaluation is one batched forward and one batched inverse real
FFT, the batching of independent transforms of FFTW's "many" plans (Frigo &
Johnson, Proc. IEEE 93, 2005).  The solve's last evaluation, at the strength it
returns, also yields the two self sums the right-hand side reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import certify
from .errors import ConfigurationError, GeometryError, PicardDivergenceError, RegimeError
from .norms import NormSpec, fourier_norm
from .spectral import (GridSpec, SpectralField, hermitian_extension, odd_offset_rows,
                       odd_offsets, pv_kernel_periodic)

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_PICARD_TOL = 1e-11
DEFAULT_PICARD_MAX_ITER = 80
# consecutive growths of the update norm that end the solve as a divergence
_GROWTH_LIMIT = 3
# elements per block of the difference-quotient kernel build: a block of each
# of the two kernels, 256 KB apiece, stays in cache
_KERNEL_BLOCK = 32768
# rounding of the self-term series, in ulps of its largest binomial term; at
# most 0.06 measured over N = 256..1024 and r up to 27
_SELF_ROUNDING_ULPS = 16.0


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
    self sums, which a consumer reads instead of transforming again.
    """

    omega1: SpectralField
    omega2: SpectralField
    residual: float
    iterations: int
    contraction_ratio: float | None = None
    evaluation: _Evaluation | None = field(default=None, repr=False, compare=False)


class _Evaluation(NamedTuple):
    """The nonlocal operators at samples ``w1`` of omega1, from one ``_Workspace.evaluate``.

    ``omega1`` and ``omega2`` are the half spectra k = 0..N/2 of the two sheet
    strengths; ``p`` and ``cp`` the samples of P omega2 and CP omega2 on the
    interface.  ``s0`` and ``s1`` are the two self sums
    S0 = sum_m pv_m / (1 + Delta_m^2) w1(a - m h) and
    S1 = sum_m pv_m Delta_m / (1 + Delta_m^2) w1(a - m h), so that I1 = S0 and
    I2 = df S1; ``self_term`` is the strength equation's df S0 - S1.  On the
    difference-quotient rows only the solve's last evaluation gathers S0 and
    S1, and they are None before it.
    """

    w1: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    p: np.ndarray
    cp: np.ndarray
    self_term: np.ndarray
    s0: np.ndarray | None
    s1: np.ndarray | None


def check_geometry(samples: np.ndarray, cfg: FluidConfig) -> None:
    """Raise GeometryError unless the interface samples keep min f + h2 > 0."""
    gap = float(np.min(samples)) + cfg.h2
    if gap <= 0.0:
        raise GeometryError(f"interface touches the permeability line (min f + h2 = {gap:.3g})")


@lru_cache(maxsize=32)
def _flat_spectra(grid: GridSpec, cfg: FluidConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only preconditioner M(xi) and |xi|, both on k = 0..N/2."""
    axi = np.abs(grid.wavenumbers()[: grid.nyquist_index() + 1])
    multiplier = 1.0 / (1.0 - cfg.a_kappa * cfg.a_mu * np.exp(-2.0 * cfg.h2 * axi))
    multiplier.flags.writeable = axi.flags.writeable = False
    return multiplier, axi


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


def _self_series_order(u: float, r: float, tol: float, n_points: int) -> int | None:
    """Order of the self-term series, or None where the O(N^2) rows serve.

    On the interpolant |Delta_m| <= sup |f'| <= u = ||f||_{F^{1,1}}.  The
    kernels of S0 and S1 are power series in Delta whose coefficients are 0
    or +-1, and the self terms take them times 1 or df, |df| <= u, so
    truncating past Delta^order leaves at most u^(order+1)/(1 - u) of the
    operand sum_m |pv_m| ||w||_inf.  The binomial terms of Delta^d reach
    (2 ||f||_inf / h)^d = r^d of it (|m| >= 1), times max(1, u) for the df
    factor, and cancel: their rounding must stay below the tolerance too.  Both bounds are held to tol / 100, a tenth of the
    line-coupling interpolant's share, as this scale is the operand's own size and
    not a floor of 1: at tol / 10 the decay case moved by 1e-12 relative in
    F^{2,1} over 100 steps against the rows, at tol / 100 by 6e-15.  A series
    with (order + 1)^2 > N/3 would cost more than the rows (measured at
    N = 256..2048), so it is not taken.
    """
    target = tol / 100.0
    if not u < 1.0:
        return None
    order = 0
    while u ** (order + 1) / (1.0 - u) > target:
        order += 1
        if 3 * (order + 1) ** 2 > n_points:
            return None
    # sum_{d <= order} r^d; one past the double range fails the test anyway
    if order * math.log(max(r, 1.0)) > 700.0:
        return None
    size = sum(r ** d for d in range(order + 1))
    if _SELF_ROUNDING_ULPS * np.finfo(float).eps * max(1.0, u) * size > target:
        return None
    return order


@lru_cache(maxsize=32)
def _pv_power_spectra(grid: GridSpec, order: int) -> np.ndarray:
    """Read-only half spectra of the tables pv_m / m^d, d = 0..order.

    Row d holds pv_m / m^d at index m mod n for each odd offset m and 0 at the
    even ones, so its circular convolution with samples w is the
    alternating-rule sum sum_m pv_m m^-d w(a - m h).
    """
    n = grid.n_points
    m = odd_offsets(grid)
    rows = np.zeros((order + 1, n))
    rows[:, m % n] = _odd_offset_pv(grid)[1] / m.astype(float) ** np.arange(order + 1)[:, None]
    spectra = np.fft.rfft(rows)
    spectra.flags.writeable = False
    return spectra


@lru_cache(maxsize=32)
def _self_series_mixes(order: int) -> np.ndarray:
    """Read-only stacked mixing matrix of the series of the two self sums.

    A kernel phi(Delta) = sum_d c_d Delta^d against pv_m sums to
    sum_j F^j A_j, F = f/h, with A_j circular convolutions:
    Delta_m^d = (F(a) - F(a - m h))^d / m^d expands binomially into
    C(d, j) (-1)^i F(a)^j F(a - m h)^i, i = d - j, so A_j sums
    c_d C(d, j) (-1)^i (pv / m^d) * (F^i w) over the pairs (d, i) with
    d - i = j.  Rows 0..order are A_0..A_order of S1, phi = Delta/(1 + Delta^2),
    and rows order + 1..2 order + 1 those of S0, phi = 1/(1 + Delta^2).  The
    columns run over the pairs d-major: (0, 0), (1, 0), (1, 1), (2, 0), ...
    """
    d, i = (a.ravel() for a in np.meshgrid(np.arange(order + 1), np.arange(order + 1),
                                           indexing="ij"))
    keep = i <= d
    d, i = d[keep], i[keep]
    j = d - i
    binom = np.array([math.comb(int(dd), int(jj)) for dd, jj in zip(d, j)]) * (-1.0) ** i
    # coefficients of Delta^k in 1/(1 + Delta^2) and Delta/(1 + Delta^2)
    k = np.arange(order + 1)
    even = np.where(k % 2 == 0, (-1.0) ** (k // 2), 0.0)
    odd = np.concatenate(([0.0], even[:-1]))
    mix = np.zeros((2 * (order + 1), len(d)))
    for p, c in enumerate((odd, even)):
        mix[p * (order + 1) + j, np.arange(len(d))] = c[d] * binom
    mix.flags.writeable = False
    return mix


class _Workspace:
    """Kernel backend of one interface snapshot.

    Checks the geometry and builds once what every strength evaluation reads.
    The samples of f, df and the linear strength M (-2 A_rho df) come from one
    inverse transform of their half spectra, with the preconditioner
    ``multiplier`` M(xi) on k = 0..N/2 cached per (grid, fluid).  The line
    coupling keeps the Poisson symbols e^{-(h2 + f_j)|xi|} at the
    ``coupling_nodes`` Chebyshev points f_j on k = 0..N/2 (Nyquist zeroed) and
    the Lagrange values l_j(f(a)), from the discrete orthogonality of T_k at
    the nodes, which divides by nothing.  Where the self-term series meets its
    bounds (``_self_series_order``) it keeps the powers (f/h)^0..(f/h)^order
    of the samples and sums the two self sums S0 and S1 by that series;
    ``self_order`` is None where the difference-quotient rows serve instead.
    The Lagrange values and the powers are stacked once, so that ``evaluate``
    multiplies the stack by omega1 and transforms it in one call; without the
    series the stack ends in one row of ones, (f/h)^0.

    The difference-quotient rows are built on first use, into ``storage``: a
    (2, N/2, N) array of pv_m/(1 + Delta^2) and the strength equation's self
    kernel pv_m (df - Delta)/(1 + Delta^2), which successive snapshots of one
    run may share, allocated there when not given.  The build runs in blocks
    of offset rows of ``_KERNEL_BLOCK`` elements, so each block's elementwise
    passes stay in cache and the O(N^2) build allocates no O(N^2) temporaries.
    """

    def __init__(self, f, cfg: FluidConfig, series_tol: float,
                 storage: np.ndarray | None = None):
        fld = f.f
        grid = fld.grid
        self.grid, self.cfg = grid, cfg
        n = grid.n_points
        self.storage = storage
        self.multiplier, axi = _flat_spectra(grid, cfg)
        # f, df (i xi, Nyquist zeroed) and M (-2 A_rho df) on k = 0..N/2
        c = fld.coefficients[: len(axi)]
        dc = c * (1j * grid.wavenumbers()[: len(axi)])
        dc[-1] = 0.0
        self.F, self.dF, self.linear = np.fft.irfft(
            np.array((c, dc, -2.0 * cfg.a_rho * self.multiplier * dc)), n, norm="forward")
        check_geometry(self.F, cfg)
        a1 = fourier_norm(fld, NormSpec(1.0))
        lo, hi = float(np.min(self.F)), float(np.max(self.F))
        center, rho = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # strength norms scale like 2 A_rho C1 a1; keep the bound honest for
        # large density contrasts
        p = self.coupling_nodes = _coupling_nodes(cfg.h2 + lo, rho, float(axi[-1]),
                                                  max(1.0, 4.0 * cfg.a_rho * a1), series_tol, n)
        cosines, weights = _chebyshev_nodes(p)
        self._decay = np.exp(-np.outer(cfg.h2 + center + rho * cosines, axi))
        self._decay[:, -1] = 0.0
        r = 2.0 * max(-lo, hi) / grid.spacing  # 2 max |f| / h
        order = self.self_order = _self_series_order(a1, r, series_tol, n)
        self._stack = np.ones((p + (order or 0) + 1, n))
        self._lagrange, powers = self._stack[:p], self._stack[p:]
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
        if order is not None:
            # F^0, ..., F^order of F = f/h, one row each, by products (not pow)
            scaled = self.F / grid.spacing
            for j in range(1, len(powers)):
                np.multiply(powers[j - 1], scaled, out=powers[j])
            self._scaled_powers = powers
        # evaluate's scratch: the samples times the stack, their spectra, the
        # rows to invert, the series products and the inverted rows, in one
        # block.  With separate temporaries per evaluation, glibc's allocator
        # trimmed and refaulted the heap on every call at N = 1024 and 2048
        # (200 to 1300 page faults per step, against none now).
        q, half = len(self._stack), len(axi)
        rows = 2 * p + (0 if order is None else 2 * (order + 1))
        pairs = 0 if order is None else (order + 1) * (order + 2) // 2
        block = np.empty(q * n + 2 * (q + rows + pairs) * half + rows * n)
        start, self._scratch = 0, []
        for shape, dtype in (((q, n), float), ((q, half), complex), ((rows, half), complex),
                             ((pairs, half), complex), ((rows, n), float)):
            size = shape[0] * shape[1] * (2 if dtype is complex else 1)
            self._scratch.append(block[start: start + size].view(dtype).reshape(shape))
            start += size

    def evaluate(self, w1: np.ndarray, last: bool = False) -> _Evaluation:
        """Every nonlocal operator at samples w1 of omega1, by one batched transform pair.

        One forward transform of the stacked rows times w1 gives the spectra of
        l_j(f) w1 and of (f/h)^i w1, the first of which, (f/h)^0 = 1, is
        omega1's.  The permeability-sheet strength is
        omega2 = -A_kappa sum_j e^{-(h2 + f_j)|xi|} FFT[l_j(f) w1]; the line
        coupling back on the interface is
        sum_j l_j(f(a)) IFFT[pi (1, -i sgn xi) e^{-(h2 + f_j)|xi|} omega2_hat],
        2p rows, and the series spectra of the self sums S1 and S0 (see
        ``_self_series_mixes``) are the (f/h)^i w1 spectra contracted with the
        pv / m^d tables.  All of them go back in one inverse transform.
        Without the series the self term is the O(N^2) row sum of the self
        kernel, and the solve's ``last`` evaluation gathers S0 with it, in
        one pass over the storage, for S1 = df S0 - (self term).
        """
        n, p, order = self.grid.n_points, self.coupling_nodes, self.self_order
        x, spectra, z, terms_hat, s = self._scratch
        # unnormalized forward transforms, so N omega2_hat below: spectra divided
        # by N reach the subnormal range in the series products at the decay
        # datum's high modes, which then run up to 7 times slower (N = 2048)
        np.fft.rfft(np.multiply(self._stack, w1, out=x), out=spectra)
        omega2 = -self.cfg.a_kappa * np.einsum("jk,jk->k", self._decay, spectra[:p])
        np.multiply(self._decay, np.pi * omega2, out=z[:p])
        # sgn(xi) is 1 for k = 1..N/2 - 1, and the Nyquist column is zero already
        np.multiply(z[:p], -1j, out=z[p: 2 * p])
        z[p: 2 * p, 0] = 0.0
        if order is not None:
            # (pv / m^d) * (F^i w1) over the pairs (d, i), i <= d, in the mix's
            # column order
            pv = _pv_power_spectra(self.grid, order)
            for d in range(order + 1):
                start = d * (d + 1) // 2
                np.multiply(pv[d], spectra[p: p + d + 1], out=terms_hat[start: start + d + 1])
            # the weights are real: one real product on the interleaved spectra
            np.matmul(_self_series_mixes(order), terms_hat.view(float), out=z[2 * p:].view(float))
        np.fft.irfft(z, n, out=s)
        pg, cpg = np.einsum("ja,qja->qa", self._lagrange, s[: 2 * p].reshape(2, p, n))
        if order is not None:
            # sum_j F^j A_j, one group of order + 1 rows per sum
            s1, s0 = np.einsum("gja,ja->ga", s[2 * p:].reshape(2, order + 1, n),
                               self._scaled_powers)
            self_term = self.dF * s0 - s1
        elif last:
            s0, self_term = np.einsum("qja,ja->qa", self._kernels, odd_offset_rows(w1))
            s1 = self.dF * s0 - self_term
        else:
            s0 = s1 = None
            self_term = np.einsum("ja,ja->a", self._kernels[1], odd_offset_rows(w1))
        return _Evaluation(w1, spectra[p] / n, omega2 / n, pg, cpg, self_term, s0, s1)

    @cached_property
    def _offset_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1/beta and the pv weights at the odd offsets, as columns."""
        beta, pv = _odd_offset_pv(self.grid)
        return (1.0 / beta)[:, None], pv[:, None]

    @cached_property
    def _kernels(self) -> np.ndarray:
        """pv_m/(1 + Delta^2) and the self kernel pv_m (df(a) - Delta)/(1 + Delta^2).

        Delta = Delta_m f(a); one row per odd offset m, written in place into
        the storage, one block of rows at a time, Delta and 1 + Delta^2 in the
        first kernel's rows before pv_m divides by them.  Every element sees
        the same operations as in one pass over all rows, so the kernels do
        not depend on the block size.  The (2, N/2, N) storage is allocated
        here, on first use, unless given.
        """
        inv_beta, pv = self._offset_weights
        F, dF = self.F, self.dF
        if self.storage is None:
            self.storage = np.empty((2, len(F) // 2, len(F)))
        weight, kernel = self.storage
        rows = odd_offset_rows(F)
        block = max(1, _KERNEL_BLOCK // len(F))
        for j in range(0, len(weight), block):
            b = slice(j, j + block)
            q, k = weight[b], kernel[b]
            np.subtract(F, rows[b], out=q)
            q *= inv_beta[b]
            np.subtract(dF, q, out=k)
            q *= q
            q += 1.0
            k /= q
            k *= pv[b]
            np.divide(pv[b], q, out=q)
        return self.storage


def solve_vorticity(f, cfg: FluidConfig, tol: float = DEFAULT_PICARD_TOL,
                    max_iter: int = DEFAULT_PICARD_MAX_ITER,
                    workspace: _Workspace | None = None,
                    guess: np.ndarray | None = None) -> VorticityPair:
    """Preconditioned Picard solve of the coupled sheet-strength system.

    With T(strength_1) = A_mu/pi (self-induction + line-coupling) - 2 A_rho df,
    iterates strength_1 <- strength_1 + M (T(strength_1) - strength_1) from the
    linear strength M (-2 A_rho df), M(xi) = 1/(1 - A_kappa A_mu e^{-2 h2 |xi|})
    the inverse of T's flat-interface linearization, stopping when the F^{0,1}
    norm of the update drops below tol.  ``guess``, samples of a nonlinear
    correction strength_1 - M (-2 A_rho df) (from a previous, nearby solve),
    moves the start to the linear strength + guess.
    An update norm that grows in ``_GROWTH_LIMIT`` consecutive iterations, or
    stays above tol for ``max_iter``, raises PicardDivergenceError with the
    update-norm history attached.
    ``workspace`` is the snapshot's kernel backend, built here when not given;
    the last evaluation, at the returned strength, also holds the two self sums.
    """
    ws = workspace or _Workspace(f, cfg, DEFAULT_SERIES_TOL)
    grid = ws.grid
    forcing = -2.0 * cfg.a_rho * ws.dF
    w1 = ws.linear
    history: list[float] = []
    ratio = None
    delta, it, grew = 0.0, 1, 0
    if cfg.a_mu != 0.0:
        if guess is not None:
            w1 = w1 + guess
        for it in range(1, max_iter + 1):
            ev = ws.evaluate(w1)
            t1 = (cfg.a_mu / np.pi) * (ev.self_term + ws.dF * ev.cp - ev.p) + forcing
            # on k = 0..N/2; modes 1..N/2-1 stand for their mirrors too
            update = np.fft.rfft(t1 - w1, norm="forward") * ws.multiplier
            size = np.abs(update)
            delta = float(2.0 * np.sum(size) - size[0] - size[-1])  # its F^{0,1} norm
            history.append(delta)
            w1 = w1 + np.fft.irfft(update, grid.n_points, norm="forward")
            if len(history) >= 2 and history[-2] > 0:
                ratio = history[-1] / history[-2]
            if delta < tol:
                break
            grew = grew + 1 if len(history) >= 2 and delta > history[-2] else 0
            if grew == _GROWTH_LIMIT:
                raise PicardDivergenceError(
                    f"no contraction: the update grew in {grew} consecutive iterations "
                    f"(last residual {delta:.3g})", history)
        else:
            raise PicardDivergenceError(
                f"no contraction after {max_iter} iterations (last residual {history[-1]:.3g})",
                history,
            )
    ev = ws.evaluate(w1, last=True)
    return VorticityPair(SpectralField(grid, hermitian_extension(ev.omega1, grid)),
                         SpectralField(grid, hermitian_extension(ev.omega2, grid)),
                         residual=delta, iterations=it, contraction_ratio=ratio, evaluation=ev)


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
