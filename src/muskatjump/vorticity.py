"""Vorticity amplitudes on the fluid and permeability interfaces.

The sheet strength on the permeability line is an explicit nonsingular
integral of the fluid-sheet strength; the fluid-sheet strength solves an
implicit equation omega1 = T(omega1).  At the flat interface T is the
diagonal Fourier map omega1 -> A_kappa A_mu e^{-2 h2 |xi|} omega1 - 2 A_rho df/da,
so the solve is a Richardson iteration preconditioned by that exact
linearization: omega1 <- omega1 + M (T(omega1) - omega1) with
M(xi) = 1 / (1 - A_kappa A_mu e^{-2 h2 |xi|}), seeded at the linear strength
M (-2 A_rho df/da) plus the nonlinear correction of a previous solve when one
is at hand.

The line couples to the interface only through the Poisson kernel at depth
h2 + f, whose symbol e^{-(h2 + f)|xi|} is entire in f.  It is interpolated in
f at p first-kind Chebyshev points on [min f, max f], so the line-coupling
integrals become p batched transforms weighted by Lagrange values; this
converges geometrically up to the geometric limit min f + h2 > 0 (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 4 and 8).

The self-induction terms are the alternating-rule sums
sum_m pv_m phi(Delta_m(a)) w(a - m h) over the odd offsets m, with
Delta_m = (f(a) - f(a - m h)) / (m h) and phi a rational function of Delta.
On a snapshot whose ||f||_{F^{1,1}} bounds every |Delta| well below 1,
phi is expanded geometrically in Delta and Delta^d binomially, so each sum
becomes a short series of circular convolutions of f^i w with the tables
pv_m / m^d, O(order^2 N + order N log N) by FFT (Constantin, Cordoba,
Gancedo & Strain, JEMS 15, 2013, expand the Muskat kernel the same way).
Where the truncation or rounding bound of that series fails, the O(N^2)
difference-quotient rows serve; that choice is the only one made per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import certify
from .errors import ConfigurationError, GeometryError, PicardDivergenceError, RegimeError
from .norms import NormSpec, fourier_norm
from .spectral import (GridSpec, SpectralField, derivative, forward, hermitian_extension,
                       inverse, odd_offset_rows, odd_offsets, pv_kernel_periodic)

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_PICARD_TOL = 1e-11
DEFAULT_PICARD_MAX_ITER = 80
# elements per block of the difference-quotient kernel build: a block of each
# of the two kernels and the 1 + Delta^2 scratch, 256 KB apiece, stay in cache
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

    ``omega1_samples`` are the solve's own samples of omega1, which ``omega1``
    transforms; a consumer in sample space reads them instead of transforming back.
    """

    omega1: SpectralField
    omega2: SpectralField
    residual: float
    iterations: int
    contraction_ratio: float | None = None
    omega1_samples: np.ndarray | None = field(default=None, repr=False, compare=False)


def check_geometry(samples: np.ndarray, cfg: FluidConfig) -> None:
    """Raise GeometryError unless the interface samples keep min f + h2 > 0."""
    gap = float(np.min(samples)) + cfg.h2
    if gap <= 0.0:
        raise GeometryError(f"interface touches the permeability line (min f + h2 = {gap:.3g})")


@lru_cache(maxsize=32)
def _flat_spectra(grid: GridSpec, cfg: FluidConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only preconditioner M(xi) in FFT order and |xi| on k = 0..N/2."""
    axi = np.abs(grid.wavenumbers())
    multiplier = 1.0 / (1.0 - cfg.a_kappa * cfg.a_mu * np.exp(-2.0 * cfg.h2 * axi))
    half = axi[: grid.nyquist_index() + 1]
    multiplier.flags.writeable = half.flags.writeable = False
    return multiplier, half


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

    On the interpolant |Delta_m| <= sup |f'| <= u = ||f||_{F^{1,1}}.  Each
    self kernel is a power series in Delta whose coefficients are +-1 or
    +-df, |df| <= u, so truncating it past Delta^order leaves at most
    u^(order+1)/(1 - u) of the operand sum_m |pv_m| ||w||_inf.  The binomial
    terms of Delta^d reach (2 ||f||_inf / h)^d = r^d of it (|m| >= 1), times
    max(1, u) for the df factor, and cancel: their rounding must stay below
    the tolerance too.  Both bounds are held to tol / 100, a tenth of the
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
def _self_series_mixes(order: int) -> dict:
    """Index pairs and mixing matrices of the three self-term series of one order; read-only.

    A kernel phi(Delta) = sum_d (alpha_d + beta_d df) Delta^d against pv_m sums
    to sum_j F^j (A_j + df B_j), F = f/h, with A_j and B_j circular
    convolutions: Delta_m^d = (F(a) - F(a - m h))^d / m^d expands binomially
    into C(d, j) (-1)^i F(a)^j F(a - m h)^i, i = d - j, so A_j sums
    alpha_d C(d, j) (-1)^i (pv / m^d) * (F^i w) over the pairs (d, i) with
    d - i = j.  An operator's matrix maps the pairs to its rows A_0..A_order
    and, where df enters, B_0..B_order.
    """
    d, i = (a.ravel() for a in np.meshgrid(np.arange(order + 1), np.arange(order + 1),
                                           indexing="ij"))
    keep = i <= d
    d, i = d[keep], i[keep]
    j = d - i
    binom = np.array([math.comb(int(dd), int(jj)) for dd, jj in zip(d, j)]) * (-1.0) ** i
    # coefficients of Delta^k in 1/(1 + Delta^2), Delta/(1 + Delta^2), Delta^2/(1 + Delta^2)
    k = np.arange(order + 1)
    even = np.where(k % 2 == 0, (-1.0) ** (k // 2), 0.0)
    odd = np.concatenate(([0.0], even[:-1]))
    square = np.concatenate(([0.0], odd[:-1]))
    out = {"d": d, "i": i}
    for name, coefs in (("self", (-odd, even)), ("slope", (-square, odd)), ("i1", (-square,))):
        mix = np.zeros((len(coefs) * (order + 1), len(d)))
        for p, c in enumerate(coefs):
            mix[p * (order + 1) + j, np.arange(len(d))] = c[d] * binom
        out[name] = mix
    for a in out.values():
        a.flags.writeable = False
    return out


class _Workspace:
    """Kernel backend of one interface snapshot.

    Checks the geometry and builds once what every Picard iteration reads:
    the preconditioner ``multiplier`` M(xi), cached per (grid, fluid), and
    its seed ``linear``, the samples of M (-2 A_rho df); the Poisson symbols
    e^{-(h2 + f_j)|xi|} at the ``coupling_nodes`` Chebyshev points f_j on
    k = 0..N/2 (Nyquist zeroed) and the Lagrange values l_j(f(a)), from the
    discrete orthogonality of T_k at the nodes, which divides by nothing.
    Where the self-term series meets its bounds (``_self_series_order``) it
    keeps the powers (f/h)^0..(f/h)^order of the samples and evaluates the
    three self terms by that series; ``self_order`` is None where the
    difference-quotient rows serve instead.  The rows are built on first use,
    into ``storage``: a (2, N/2, N) array that successive snapshots of one
    run may share, allocated there when not given.  The build runs in blocks
    of offset rows of ``_KERNEL_BLOCK`` elements, so each block's elementwise
    passes stay in cache and the O(N^2) build allocates no O(N^2)
    temporaries.
    """

    def __init__(self, f, cfg: FluidConfig, series_tol: float,
                 storage: np.ndarray | None = None):
        fld = f.f
        grid = fld.grid
        self.grid, self.cfg = grid, cfg
        self.F = inverse(fld)
        check_geometry(self.F, cfg)
        n = grid.n_points
        self.storage = storage
        dfld = derivative(fld)
        self.dF = inverse(dfld)
        self.multiplier, axi = _flat_spectra(grid, cfg)
        self.linear = inverse(dfld.with_coefficients(
            -2.0 * cfg.a_rho * self.multiplier * dfld.coefficients))
        a1 = fourier_norm(fld, NormSpec(1.0))
        lo, hi = float(np.min(self.F)), float(np.max(self.F))
        center, rho = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # strength norms scale like 2 A_rho C1 a1; keep the bound honest for
        # large density contrasts
        p = self.coupling_nodes = _coupling_nodes(cfg.h2 + lo, rho, float(axi[-1]),
                                                  max(1.0, 4.0 * cfg.a_rho * a1), series_tol, n)
        k = np.arange(p)
        theta = np.pi * (k + 0.5) / p  # the nodes are center + rho cos(theta_j)
        self._decay = np.exp(-np.outer(cfg.h2 + center + rho * np.cos(theta), axi))
        self._decay[:, -1] = 0.0
        # l_j(x) = (1/p) (1 + 2 sum_{k=1}^{p-1} T_k(x_j) T_k(x)), T_k(x_j) = cos(k theta_j),
        # T_k(x) by its recurrence; a flat interface (rho = 0) has p = 1 and l_0 = 1
        x = np.clip((self.F - center) / (rho or 1.0), -1.0, 1.0)
        cheb = np.ones((p, n))
        cheb[1:2] = x
        for j in range(2, p):
            cheb[j] = 2.0 * x * cheb[j - 1] - cheb[j - 2]
        weights = np.where(k == 0, 1.0, 2.0) / p * np.cos(np.outer(theta, k))
        # einsum, not matmul: a p x p product needs no BLAS, whose first call
        # allocates its buffers
        self._lagrange = np.einsum("jk,ka->ja", weights, cheb)
        r = 2.0 * float(np.max(np.abs(self.F))) / grid.spacing
        self.self_order = _self_series_order(a1, r, series_tol, n)
        if self.self_order is not None:
            # F^0, ..., F^order of F = f/h, one row each, by products (not pow)
            powers = np.ones((self.self_order + 1, n))
            powers[1:] = self.F / grid.spacing
            self._scaled_powers = np.cumprod(powers, axis=0)

    def omega2(self, w1: np.ndarray) -> np.ndarray:
        """Coefficients of the permeability-sheet strength induced by samples w1.

        -A_kappa sum_j e^{-(h2 + f_j)|xi|} FFT[l_j(f) w1]: one batched forward
        transform on the half spectrum; the full one is Hermitian by construction.
        """
        spectra = np.fft.rfft(self._lagrange * w1, norm="forward")
        acc = np.einsum("jk,jk->k", self._decay, spectra)
        return hermitian_extension(-self.cfg.a_kappa * acc, self.grid)

    def target_pair(self, ghat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Samples of int K(f(a)+h2; b) g(a-b) db for K = P and K = CP (conjugate).

        sum_j l_j(f(a)) IFFT[m(xi) e^{-(h2 + f_j)|xi|} g_hat], with m = pi for P
        and -i pi sgn(xi) for CP: one batched inverse transform of 2p rows.  It
        reads only k = 0..N/2 of ``ghat``; sgn(xi) is 1 for k = 1..N/2 - 1.
        """
        z = np.empty((2,) + self._decay.shape, dtype=complex)
        np.multiply(self._decay, np.pi * ghat[: self._decay.shape[1]], out=z[0])
        np.multiply(z[0], -1j, out=z[1])
        z[1, :, 0] = 0.0
        s = np.fft.irfft(z, self.grid.n_points, norm="forward")
        p, cp = np.einsum("ja,qja->qa", self._lagrange, s)
        return p, cp

    @cached_property
    def _offset_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1/beta and the pv weights at the odd offsets, as columns."""
        beta, pv = _odd_offset_pv(self.grid)
        return (1.0 / beta)[:, None], pv[:, None]

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Delta_m f(a) and the self kernel (df(a) - Delta)/(1 + Delta^2) x pv_m.

        One row per odd offset m, written in place into the storage, one block
        of rows at a time; 1 + Delta^2 of a block lives in a block-sized
        scratch.  Every element sees the same operations as in one pass over
        all rows, so the kernels do not depend on the block size.  The
        (2, N/2, N) storage is allocated here, on first use, unless given.
        """
        inv_beta, pv = self._offset_weights
        F, dF = self.F, self.dF
        if self.storage is None:
            self.storage = np.empty((2, len(F) // 2, len(F)))
        delta, kernel = self.storage
        rows = odd_offset_rows(F)
        block = max(1, _KERNEL_BLOCK // len(F))
        scratch = np.empty((min(block, len(delta)), len(F)))
        for j in range(0, len(delta), block):
            b = slice(j, j + block)
            d, k = delta[b], kernel[b]
            sq = scratch[: len(d)]
            np.subtract(F, rows[b], out=d)
            d *= inv_beta[b]
            np.subtract(dF, d, out=k)
            np.multiply(d, d, out=sq)
            sq += 1.0
            k /= sq
            k *= pv[b]
        return delta, kernel

    @staticmethod
    def _gather(kernel: np.ndarray, w: np.ndarray) -> np.ndarray:
        # alternating-rule sum over odd offsets m: sum_m kernel[m, a] w[a - m]
        return np.einsum("ja,ja->a", kernel, odd_offset_rows(w))

    def _series_sum(self, w: np.ndarray, name: str) -> np.ndarray:
        """The alternating-rule sum of one self kernel, by its truncated Delta series.

        One batched forward transform of F^i w, one contraction of their
        spectra with the pv / m^d tables, one batched inverse transform, then
        sum_j F^j (A_j + df B_j) (see ``_self_series_mixes``).
        """
        order, n = self.self_order, self.grid.n_points
        mix = _self_series_mixes(order)
        powers = self._scaled_powers
        ghat = np.fft.rfft(powers * w)
        terms = _pv_power_spectra(self.grid, order)[mix["d"]] * ghat[mix["i"]]
        # the weights are real: one real product on the interleaved spectra
        spectra = (mix[name] @ terms.view(float)).view(complex)
        acc = np.sum(np.fft.irfft(spectra, n).reshape(-1, order + 1, n) * powers, axis=1)
        return acc[0] + self.dF * acc[1] if len(acc) == 2 else acc[0]

    def self_induction(self, w1: np.ndarray) -> np.ndarray:
        """Self-induced term of the fluid-sheet strength equation."""
        if self.self_order is not None:
            return self._series_sum(w1, "self")
        return self._gather(self._kernels[1], w1)

    def slope_terms(self, w1: np.ndarray) -> np.ndarray:
        """(I1 - pi H w1) + I2 as one kernel, Delta (df - Delta) / (1 + Delta^2)."""
        if self.self_order is not None:
            return self._series_sum(w1, "slope")
        delta, kernel = self._kernels
        return np.einsum("ja,ja,ja->a", delta, kernel, odd_offset_rows(w1))

    def i1_remainder(self, w1: np.ndarray) -> np.ndarray:
        """I1 - pi H w1 alone: -Delta^2 / (1 + Delta^2) against the pv kernel."""
        if self.self_order is not None:
            return self._series_sum(w1, "i1")
        delta, pv = self._kernels[0], self._offset_weights[1]
        return self._gather(-(delta ** 2) / (1.0 + delta ** 2) * pv, w1)


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
    Divergence raises PicardDivergenceError with the update-norm history attached.
    ``workspace`` is the snapshot's kernel backend, built here when not given.
    """
    ws = workspace or _Workspace(f, cfg, DEFAULT_SERIES_TOL)
    grid = ws.grid
    forcing = -2.0 * cfg.a_rho * ws.dF
    multiplier = ws.multiplier[: grid.nyquist_index() + 1]
    w1 = ws.linear
    history: list[float] = []
    ratio = None
    delta, it = 0.0, 1
    if cfg.a_mu != 0.0:
        if guess is not None:
            w1 = w1 + guess
        for it in range(1, max_iter + 1):
            p, cp = ws.target_pair(ws.omega2(w1))
            t1 = (cfg.a_mu / np.pi) * (ws.self_induction(w1) + ws.dF * cp - p) + forcing
            # on k = 0..N/2; modes 1..N/2-1 stand for their mirrors too
            update = np.fft.rfft(t1 - w1, norm="forward") * multiplier
            size = np.abs(update)
            delta = float(2.0 * np.sum(size) - size[0] - size[-1])  # its F^{0,1} norm
            history.append(delta)
            w1 = w1 + np.fft.irfft(update, grid.n_points, norm="forward")
            if len(history) >= 2 and history[-2] > 0:
                ratio = history[-1] / history[-2]
            if delta < tol:
                break
        else:
            raise PicardDivergenceError(
                f"no contraction after {max_iter} iterations (last residual {history[-1]:.3g})",
                history,
            )
    return VorticityPair(forward(w1, grid), SpectralField(grid, ws.omega2(w1)),
                         residual=delta, iterations=it, contraction_ratio=ratio,
                         omega1_samples=w1)


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
