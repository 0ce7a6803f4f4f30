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

All nonlocal operators of one interface snapshot are evaluated by one kernel
backend, chosen once per snapshot by a single rule: an O(n_max N log N)
truncated exponential series in the interface height when
||f||_{F^{0,1}} < 0.9 h2 and the series tail bound meets the series
tolerance, O(N^2) trapezoid quadrature of the periodized kernels otherwise.
Large data therefore run on quadrature up to the geometric limit
min f + h2 > 0 instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import certify
from .errors import (ConfigurationError, GeometryError, InternalConsistencyError,
                     MethodUnavailableError, PicardDivergenceError, RegimeError)
from .norms import NormSpec, fourier_norm
from .spectral import (GridSpec, SpectralField, conj_poisson_kernel_periodic,
                       derivative, forward, hermitian_symmetrize, inverse, odd_offset_rows,
                       odd_offsets, padded_coefficients, padded_samples,
                       poisson_kernel_periodic, pv_kernel_periodic)

DEFAULT_SERIES_TOL = 1e-10
DEFAULT_PICARD_TOL = 1e-11
DEFAULT_PICARD_MAX_ITER = 80


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
        if not self.a_rho > 0.0:
            raise ConfigurationError(f"A_rho must be > 0 (stable regime), got {self.a_rho!r}")
        if not self.h2 > 0.0:
            raise ConfigurationError(f"h2 must be > 0, got {self.h2!r}")

    def to_dict(self) -> dict:
        return {"a_kappa": self.a_kappa, "a_mu": self.a_mu,
                "a_rho": self.a_rho, "h2": self.h2}

    def hash(self) -> str:
        return certify.config_hash(self.to_dict())


@dataclass(frozen=True)
class VorticityPair:
    """Solved sheet strengths with the final Picard residual."""

    omega1: SpectralField
    omega2: SpectralField
    residual: float
    iterations: int
    contraction_ratio: float | None = None


@dataclass(frozen=True)
class PotentialPair:
    """Potential jumps along the two interfaces (antiderivatives of the strengths)."""

    Omega1: SpectralField
    Omega2: SpectralField


def check_geometry(f, cfg: FluidConfig) -> None:
    gap = float(np.min(inverse(getattr(f, "f", f)))) + cfg.h2
    if gap <= 0.0:
        raise GeometryError(f"interface touches the permeability line (min f + h2 = {gap:.3g})")


def _series_nmax(a_over_h: float, norm_scale: float, tol: float, h2: float) -> int | None:
    """Smallest n_max with the exponential-series majorant tail below tol/10.

    Term n is bounded by (n/h2)^n e^-n/n! * a0^n * norm_scale and the term
    ratio is below a0/h2, so the tail after n_max is geometric.
    """
    if a_over_h >= 1.0:
        return None
    target = tol / 10.0
    for nmax in range(1, 400):
        n = nmax + 1
        lead = math.exp(certify._log_env(n, h2)) * (a_over_h * h2) ** n * norm_scale
        if lead / (1.0 - a_over_h) < target:
            return nmax
    return None


def _series_weights(grid: GridSpec, h2: float, n_max: int) -> np.ndarray:
    """Rows e^{-h2|xi|} (-|xi|)^n / n! for n = 0..n_max, Nyquist slot zeroed.

    Built by recurrence: |xi|^n and n! each overflow a double long before
    their ratio does.
    """
    axi = np.abs(grid.wavenumbers())
    rows = np.empty((n_max + 1, grid.n_points))
    rows[0] = np.exp(-h2 * axi)
    rows[0, grid.nyquist_index()] = 0.0
    for n in range(1, n_max + 1):
        rows[n] = rows[n - 1] * (-axi / n)
    return rows


class _Workspace:
    """Kernel backend of one interface snapshot.

    Checks the geometry and picks the evaluation rule once: the exponential
    series in the interface height when ||f||_{F^{0,1}} < 0.9 h2 and its
    majorant tail, for operands of size max(1, 4 A_rho ||f||_{F^{1,1}}), meets
    series_tol; trapezoid quadrature of the periodized kernels otherwise.
    ``method`` forces one rule (a forced series raises MethodUnavailableError
    when no order meets the tolerance).
    The strength solve's preconditioner ``multiplier`` M(xi) and its seed
    ``linear``, the samples of the flat-interface strength M (-2 A_rho df),
    are built here once.  So are the f powers, kept as 2N-padded samples in
    one (n_max, 2N) array, or the dense target-side Poisson and
    conjugate-Poisson matrices.  The difference-quotient kernels are built on
    first use, into ``storage``: a (2, N/2, N) array that successive snapshots
    of one run may share, so the O(N^2) build allocates no O(N^2)
    temporaries.  Without it the workspace allocates its own.
    """

    def __init__(self, f, cfg: FluidConfig, series_tol: float, method: str | None = None,
                 storage: np.ndarray | None = None):
        check_geometry(f, cfg)
        fld: SpectralField = getattr(f, "f", f)
        grid = fld.grid
        self.fld, self.grid, self.cfg = fld, grid, cfg
        n = grid.n_points
        self.storage = np.empty((2, n // 2, n)) if storage is None else storage
        self.F = inverse(fld)
        dfld = derivative(fld)
        self.dF = inverse(dfld)
        self.multiplier = 1.0 / (1.0 - cfg.a_kappa * cfg.a_mu
                                 * np.exp(-2.0 * cfg.h2 * np.abs(grid.wavenumbers())))
        self.linear = inverse(dfld.with_coefficients(
            -2.0 * cfg.a_rho * self.multiplier * dfld.coefficients))
        if method not in (None, "series", "quadrature"):
            raise ConfigurationError(f"unknown method {method!r}")
        n_max = None
        if method != "quadrature":
            a0 = fourier_norm(fld, NormSpec(0.0))
            if method == "series" or a0 < 0.9 * cfg.h2:
                # strength norms scale like 2 A_rho C1 a1; keep the majorant
                # honest for large density contrasts
                scale = max(1.0, 4.0 * cfg.a_rho * fourier_norm(fld, NormSpec(1.0)))
                n_max = _series_nmax(a0 / cfg.h2, scale, series_tol, cfg.h2)
            if method == "series" and n_max is None:
                raise MethodUnavailableError(
                    f"series tail bound unattainable: ||f||_F01 = {a0:.3g}, h2 = {cfg.h2:.3g}"
                )
        self.n_max = n_max
        if n_max is not None:
            self.weights = _series_weights(grid, cfg.h2, n_max)
            # f, f^2, ..., f^n_max as padded samples, each a dealiased product
            # of the previous power's samples with f's
            rows = self.power_samples = np.empty((n_max, 2 * n), dtype=complex)
            rows[0] = padded_samples(fld.coefficients, grid)
            for k in range(1, n_max):
                rows[k] = padded_samples(padded_coefficients(rows[k - 1] * rows[0], grid), grid)
        else:
            n, L = grid.n_points, grid.domain_length
            i = np.arange(n)
            beta = ((i[:, None] - i[None, :] + n // 2) % n - n // 2) * grid.spacing
            depth = (self.F + cfg.h2)[:, None]
            # target-side kernels; the source-side Poisson kernel is P transposed
            self.P = poisson_kernel_periodic(depth, beta, L) * grid.spacing
            self.CP = conj_poisson_kernel_periodic(depth, beta, L) * grid.spacing

    def omega2(self, w1: np.ndarray) -> np.ndarray:
        """Coefficients of the permeability-sheet strength induced by samples w1."""
        if self.n_max is None:
            return forward(-(self.cfg.a_kappa / np.pi) * (self.P.T @ w1), self.grid).coefficients
        # sum_n weights[n] * trunc(f^n w1): one padded inverse, one batched forward
        w1hat = forward(w1, self.grid).coefficients
        prods = padded_coefficients(self.power_samples * padded_samples(w1hat, self.grid),
                                    self.grid)
        acc = self.weights[0] * w1hat + (self.weights[1:] * prods).sum(axis=0)
        return hermitian_symmetrize(-self.cfg.a_kappa * acc)

    def target_pair(self, ghat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Samples of int K(f(a)+h2; b) g(a-b) db for K = P and K = CP (conjugate).

        On the series backend P g + i CP g is one complex series in f^n, summed
        in sample space and truncated once (the truncation is linear).
        """
        grid = self.grid
        if self.n_max is None:
            g = np.fft.ifft(ghat * grid.n_points).real
            return self.P @ g, self.CP @ g
        # at a flat depth P g + i CP g has coefficients pi (1 + sgn xi) e^{-h2|xi|} g_hat
        z = np.pi * (1.0 + np.sign(grid.wavenumbers())) * ghat
        rows = padded_samples(self.weights[1:] * z, grid)
        tail = padded_coefficients((self.power_samples * rows).sum(axis=0), grid)
        s = np.fft.ifft((self.weights[0] * z + tail) * grid.n_points)
        return s.real, s.imag

    @cached_property
    def _offset_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1/beta and the pv weights at the odd offsets, as columns."""
        grid = self.grid
        beta = odd_offsets(grid) * grid.spacing
        pv = pv_kernel_periodic(beta, grid.domain_length) * 2.0 * grid.spacing
        return (1.0 / beta)[:, None], pv[:, None]

    @cached_property
    def _kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """Delta_m f(a) and the self kernel (df(a) - Delta)/(1 + Delta^2) x pv_m.

        One row per odd offset m, written in place into the storage.  Delta is
        computed a second time rather than held in a third array while
        1 + Delta^2 takes its place.
        """
        inv_beta, pv = self._offset_weights
        delta, kernel = self.storage
        rows = odd_offset_rows(self.F)
        np.subtract(self.F, rows, out=delta)
        delta *= inv_beta
        np.subtract(self.dF, delta, out=kernel)
        np.multiply(delta, delta, out=delta)
        delta += 1.0
        kernel /= delta
        kernel *= pv
        np.subtract(self.F, rows, out=delta)
        delta *= inv_beta
        return delta, kernel

    @staticmethod
    def _gather(kernel: np.ndarray, w: np.ndarray) -> np.ndarray:
        # alternating-rule sum over odd offsets m: sum_m kernel[m, a] w[a - m]
        return np.einsum("ja,ja->a", kernel, odd_offset_rows(w))

    def self_induction(self, w1: np.ndarray) -> np.ndarray:
        """Self-induced term of the fluid-sheet strength equation."""
        return self._gather(self._kernels[1], w1)

    def slope_terms(self, w1: np.ndarray) -> np.ndarray:
        """(I1 - pi H w1) + I2 as one kernel, Delta (df - Delta) / (1 + Delta^2)."""
        delta, kernel = self._kernels
        return np.einsum("ja,ja,ja->a", delta, kernel, odd_offset_rows(w1))

    def i1_remainder(self, w1: np.ndarray) -> np.ndarray:
        """I1 - pi H w1 alone: -Delta^2 / (1 + Delta^2) against the pv kernel."""
        delta, pv = self._kernels[0], self._offset_weights[1]
        return self._gather(-(delta ** 2) / (1.0 + delta ** 2) * pv, w1)

    def potential_self(self, O1: np.ndarray) -> np.ndarray:
        """Self term of the fluid-side potential identity."""
        delta, pv = self._kernels[0], self._offset_weights[1]
        kernel = (delta - odd_offset_rows(self.dF)) / (1.0 + delta ** 2) * pv
        return self._gather(kernel, O1)


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
            update = forward(t1 - w1, grid).coefficients * ws.multiplier
            delta = float(np.sum(np.abs(update)))  # its F^{0,1} norm
            history.append(delta)
            w1 = w1 + np.fft.ifft(update * grid.n_points).real
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
                         residual=delta, iterations=it, contraction_ratio=ratio)


def potentials(pair: VorticityPair, f, cfg: FluidConfig) -> PotentialPair:
    """Potential jumps recovered from a solved strength pair.

    The fluid-side potential is the spectral antiderivative of its strength;
    its additive constant is fixed so the defining integral identity holds at
    the first collocation node.  The line-side potential follows by direct
    quadrature.  Both are verified against d/da Potential = strength, to 1e-6
    relative.
    """
    ws = _Workspace(f, cfg, DEFAULT_SERIES_TOL, method="quadrature")
    grid, F, dF = ws.grid, ws.F, ws.dF
    xi = grid.wavenumbers()
    w1hat = pair.omega1.coefficients
    inv_ixi = np.zeros_like(xi, dtype=complex)
    nz = xi != 0
    inv_ixi[nz] = 1.0 / (1j * xi[nz])
    O1hat = w1hat * inv_ixi
    O1hat[grid.nyquist_index()] = 0.0
    O1_0 = np.fft.ifft(O1hat * grid.n_points).real
    n = grid.n_points

    def omega2_potential(O1: np.ndarray) -> np.ndarray:
        # source-side kernel P + df(b) CP at depth f(b) + h2: the target-side
        # matrices transposed, CP changing sign as an odd kernel
        return -(cfg.a_kappa / np.pi) * (ws.P.T @ O1 - ws.CP.T @ (dF * O1))

    def rhs_at(O1: np.ndarray, O2: np.ndarray) -> np.ndarray:
        return (-(cfg.a_mu / np.pi) * ws.potential_self(O1)
                - (cfg.a_mu / np.pi) * (ws.P @ O2)
                - 2.0 * cfg.a_rho * F)

    # gauge: the identity is affine in the additive constant c1; solve at node 0
    O2_0 = omega2_potential(O1_0)
    ones = np.ones(n)
    O2_lin = omega2_potential(ones)
    r0 = rhs_at(O1_0, O2_0)[0] - O1_0[0]
    slope = 1.0 - (rhs_at(ones, O2_lin)[0] - rhs_at(np.zeros(n), np.zeros(n))[0])
    if abs(slope) < 1e-12:
        raise RegimeError("potential gauge equation is degenerate")
    c1 = r0 / slope
    O1 = O1_0 + c1
    O2 = omega2_potential(O1)

    O1fld = forward(O1, grid)
    O2fld = forward(O2, grid)
    f01 = NormSpec(0.0)
    err1 = fourier_norm(forward(inverse(derivative(O1fld)) - inverse(pair.omega1), grid), f01)
    err2 = fourier_norm(forward(inverse(derivative(O2fld)) - inverse(pair.omega2), grid), f01)
    scale = max(fourier_norm(pair.omega1, f01), fourier_norm(pair.omega2, f01), 1e-12)
    if max(err1, err2) > 1e-6 * max(1.0, scale):
        raise InternalConsistencyError(
            f"potential derivatives disagree with strengths: {err1:.3g}, {err2:.3g}"
        )
    return PotentialPair(O1fld, O2fld)


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
    fld: SpectralField = getattr(f, "f", f)
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
