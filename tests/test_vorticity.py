import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from muskatjump import (FluidConfig, GridSpec, NormSpec, SpectralField, forward, fourier_norm,
                        inverse, oracle, solve_vorticity, vorticity_bound_check)
from muskatjump.certify import ledger, thresholds
from muskatjump.errors import GeometryError
from muskatjump.evolution import InterfaceField
from muskatjump import vorticity
from muskatjump.spectral import derivative, hermitian_extension, odd_offsets, pv_kernel_periodic
from muskatjump.vorticity import (_SELF_ROUNDING_ULPS, DEFAULT_SERIES_TOL, _coupling_nodes,
                                  _pv_power_spectra, _self_rule, _Workspace)

from helpers import (REF_CFG, decay_packet, gaussian_bump, random_admissible_interface,
                     random_field)

L12 = 12 * np.pi


def _flat(grid):
    return InterfaceField.from_samples(np.zeros(grid.n_points), grid)


def _full(half, grid):
    """The field of a half spectrum k = 0..N/2."""
    return SpectralField(grid, hermitian_extension(half, grid))


def _omega2(f, w1, cfg, tol=DEFAULT_SERIES_TOL):
    """Permeability-sheet strength induced by w1 on the snapshot's backend."""
    ws = _Workspace(f, cfg, tol)
    return _full(ws.evaluate(inverse(w1)).omega2, ws.grid)


def _quad_omega2(f, w1, cfg):
    """The same strength by the oracle's trapezoid rule."""
    g = f.f.grid
    return forward(oracle.quad_omega2(f.samples(), inverse(w1), cfg, g.domain_length), g)


def _dense_pair(f, cfg):
    """Trapezoid matrices of the target-side Poisson and conjugate-Poisson kernels.

    Row a holds the periodized kernels at depth f(a) + h2 and offset a - b,
    typed here in closed form, times the spacing.
    """
    g = f.f.grid
    n, L = g.n_points, g.domain_length
    i = np.arange(n)
    q = 2.0 * np.pi * ((i[:, None] - i[None, :] + n // 2) % n - n // 2) / n
    r = 2.0 * np.pi * (f.samples() + cfg.h2)[:, None] / L
    denom = (np.cosh(r) - np.cos(q)) * (L / np.pi / g.spacing)
    return np.sinh(r) / denom, np.sin(q) / denom


class _QuadratureWorkspace(_Workspace):
    """A snapshot backend whose line coupling is the dense trapezoid rule."""

    def __init__(self, f, cfg, tol):
        super().__init__(f, cfg, tol)
        self.P, self.CP = _dense_pair(f, cfg)

    def evaluate(self, w1):
        w2 = forward(-(self.cfg.a_kappa / np.pi) * (self.P.T @ w1), self.grid)
        g = inverse(w2)
        return super().evaluate(w1)._replace(
            omega2=w2.coefficients[: self.grid.nyquist_index() + 1], p=self.P @ g, cp=self.CP @ g)


def test_omega2_flat_interface_single_mode():
    # f = 0, strength cos(a): the line-sheet response is -A_k e^{-h2} / 2 per mode
    g = GridSpec(128, 2 * np.pi)
    w1 = forward(np.cos(g.nodes()), g)
    w2 = _omega2(_flat(g), w1, REF_CFG)
    want = -REF_CFG.a_kappa * np.exp(-REF_CFG.h2) * 0.5
    assert abs(w2.coefficients[1] - want) < 1e-13
    assert abs(w2.coefficients[-1] - want) < 1e-13
    w2q = _quad_omega2(_flat(g), w1, REF_CFG)
    assert abs(w2q.coefficients[1] - want) < 1e-13


def test_omega2_vanishes_without_jump():
    cfg = FluidConfig(0.0, 0.2, 1.0, 1.0)
    g = GridSpec(128, 2 * np.pi)
    w1 = forward(np.cos(g.nodes()), g)
    w2 = _omega2(_flat(g), w1, cfg)
    assert np.max(np.abs(w2.coefficients)) < 1e-16


def test_omega2_matches_the_oracle_on_random_medium_data():
    rng = np.random.default_rng(101)
    g = GridSpec(256, L12)
    k0, k1 = 0.043, 0.043
    f = random_admissible_interface(g, rng, REF_CFG, k0, k1)
    w1 = forward(np.sin(2 * np.pi * 3 * g.nodes() / L12)
                 * np.exp(-((g.nodes() - L12 / 2) ** 2) / 8.0), g)
    ws = _omega2(f, w1, REF_CFG)
    wq = _quad_omega2(f, w1, REF_CFG)
    diff = fourier_norm(SpectralField(g, ws.coefficients - wq.coefficients), NormSpec(0.0))
    assert diff < 1e-8


def test_omega2_matches_the_oracle_past_the_height_series_radius():
    # F^{0,1} = 0.6 >= h2 = 0.5 while the interfaces stay separated: no
    # series in the height converges here, and the interpolant still does
    g = GridSpec(128, 2 * np.pi)
    x = g.nodes()
    f = InterfaceField.from_samples(0.3 * np.cos(x) + 0.3 * np.cos(2 * x), g)
    w1 = forward(np.cos(x), g)
    shallow = FluidConfig(0.5, 0.2, 1.0, 0.5)
    assert fourier_norm(f.f, NormSpec(0.0)) > shallow.h2
    w2, wq = _omega2(f, w1, shallow), _quad_omega2(f, w1, shallow)
    diff = fourier_norm(SpectralField(g, w2.coefficients - wq.coefficients), NormSpec(0.0))
    assert diff < 1e-8


def test_omega2_geometry_error_when_touching():
    shallow = FluidConfig(0.5, 0.2, 1.0, 0.2)
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(np.full(128, -0.3), g)
    w1 = forward(np.cos(g.nodes()), g)
    with pytest.raises(GeometryError):
        _omega2(f, w1, shallow)


def test_solve_flat_interface_gives_zero():
    g = GridSpec(128, 2 * np.pi)
    pair = solve_vorticity(_flat(g), REF_CFG)
    assert pair.iterations == 1
    assert np.max(np.abs(inverse(pair.omega1))) < 1e-14
    assert np.max(np.abs(inverse(pair.omega2))) < 1e-14


def test_solve_explicit_when_no_contrasts():
    cfg = FluidConfig(0.0, 0.0, 2.0, 1.0)
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(0.05 * np.cos(g.nodes()), g)
    pair = solve_vorticity(f, cfg)
    want = -2.0 * cfg.a_rho * inverse(derivative(f.f))
    assert np.max(np.abs(inverse(pair.omega1) - want)) < 1e-13
    assert np.max(np.abs(inverse(pair.omega2))) < 1e-16


def test_solve_matches_linearized_prediction():
    # small single mode: strength_1_hat ~ -2 A_rho i xi f_hat / (1 - A_k A_m e^{-2 h2 |xi|})
    g = GridSpec(256, 2 * np.pi)
    eps = 0.01
    f = InterfaceField.from_samples(eps * np.cos(g.nodes()), g)
    pair = solve_vorticity(f, REF_CFG)
    fhat = f.f.coefficients
    denom = 1.0 - REF_CFG.a_kappa * REF_CFG.a_mu * np.exp(-2.0 * REF_CFG.h2)
    want = -2.0 * REF_CFG.a_rho * 1j * 1.0 * fhat[1] / denom
    got = pair.omega1.coefficients[1]
    assert abs(got - want) / abs(want) < 5e-2


def test_solve_consistent_with_defining_equations():
    # residual of both integral equations via independent quadrature
    from muskatjump import oracle

    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    pair = solve_vorticity(f, REF_CFG, tol=1e-12)
    F = f.samples()
    w1, w2 = inverse(pair.omega1), inverse(pair.omega2)
    w2_or = oracle.quad_omega2(F, w1, REF_CFG, L12)
    assert np.max(np.abs(w2 - w2_or)) < 1e-8


def test_reflection_equivariance():
    # even interface height: both strengths are odd
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.03, 2.0)
    pair = solve_vorticity(f, REF_CFG)
    for fld in (pair.omega1, pair.omega2):
        w = inverse(fld)
        w_reflected = np.roll(w[::-1], 1)  # a -> -a on the periodic grid
        assert np.max(np.abs(w + w_reflected)) < 1e-10


def test_forcing_scaling_in_density_contrast():
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(0.05 * np.cos(g.nodes()), g)
    p1 = solve_vorticity(f, FluidConfig(0.0, 0.0, 1.0, 1.0))
    p2 = solve_vorticity(f, FluidConfig(0.0, 0.0, 2.0, 1.0))
    assert np.max(np.abs(2.0 * inverse(p1.omega1) - inverse(p2.omega1))) < 1e-14


def test_picard_contraction_ratio_recorded():
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    pair = solve_vorticity(f, REF_CFG)
    assert pair.contraction_ratio is not None
    assert pair.contraction_ratio < 1.0
    assert pair.residual <= 1e-11


def test_vorticity_bounds_flat():
    g = GridSpec(128, 2 * np.pi)
    checks = vorticity_bound_check(solve_vorticity(_flat(g), REF_CFG), _flat(g), REF_CFG)
    assert all(c.passed for c in checks)
    assert all(c.lhs == 0.0 for c in checks)


def test_vorticity_bounds_single_mode():
    g = GridSpec(256, 2 * np.pi)
    f = InterfaceField.from_samples(0.05 * np.cos(g.nodes()), g)
    pair = solve_vorticity(f, REF_CFG)
    checks = vorticity_bound_check(pair, f, REF_CFG)
    assert all(c.passed for c in checks)


def test_vorticity_bounds_random_sample():
    rng = np.random.default_rng(7)
    g = GridSpec(128, 2 * np.pi)
    from muskatjump import thresholds

    k0, k1 = thresholds(REF_CFG)
    for _ in range(10):
        f = random_admissible_interface(g, rng, REF_CFG, k0, k1)
        pair = solve_vorticity(f, REF_CFG)
        assert all(c.passed for c in vorticity_bound_check(pair, f, REF_CFG))


def test_omega2_matches_the_oracle_near_the_height_series_radius():
    # F01 just under 0.9 h2, as large as a series in the height could take
    g = GridSpec(256, 2 * np.pi)
    x = g.nodes()
    f = InterfaceField.from_samples(0.40 * np.cos(x) + 0.15 * np.cos(2 * x), g)
    a0 = fourier_norm(f.f, NormSpec(0.0))
    assert 0.5 * REF_CFG.h2 < a0 < 0.9 * REF_CFG.h2
    w1 = forward(np.sin(x) * 0.3, g)
    ws = _omega2(f, w1, REF_CFG, tol=1e-12)
    wq = _quad_omega2(f, w1, REF_CFG)
    diff = fourier_norm(SpectralField(g, ws.coefficients - wq.coefficients), NormSpec(0.0))
    assert diff < 1e-8


def test_picard_iteration_cap_reports_history():
    from muskatjump.errors import PicardDivergenceError

    # strong viscosity contrast with a steep interface: the solve converges,
    # but in more iterations than the cap of 12 allows
    cfg = FluidConfig(0.5, 0.95, 1.0, 1.0)
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(0.44 * np.cos(g.nodes()) + 0.3 * np.cos(2 * g.nodes()), g)
    with pytest.raises(PicardDivergenceError) as err:
        solve_vorticity(f, cfg, tol=1e-12, max_iter=12)
    assert len(err.value.residual_history) == 12
    pair = solve_vorticity(f, cfg, tol=1e-12)
    assert 12 < pair.iterations and pair.residual < 1e-12


@pytest.mark.parametrize("a_mu", [0.2, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("amplitude, most", [(0.01, 4), (0.5, 10)])
def test_cold_solve_iteration_counts(a_mu, amplitude, most):
    # README grid and bump; measured 3 at amplitude 0.01 and 6 / 7 / 8 / 9 at
    # 0.5 (plain Picard took 7 / 12 / 16 / 18 at 0.01)
    g = GridSpec(256, L12)
    pair = solve_vorticity(gaussian_bump(g, amplitude, 1.5), FluidConfig(0.5, a_mu, 1.0, 1.0))
    assert pair.iterations <= most


def test_tiny_mode_converges_from_the_linear_seed():
    # at amplitude 1e-9 the nonlinear part is O(1e-18): the linear strength
    # is the solution, and the first update already meets the tolerance
    g = GridSpec(256, 2 * np.pi)
    eps = 1e-9
    f = InterfaceField.from_samples(eps * np.cos(g.nodes()), g)
    pair = solve_vorticity(f, REF_CFG)
    assert pair.iterations == 1
    denom = 1.0 - REF_CFG.a_kappa * REF_CFG.a_mu * np.exp(-2.0 * REF_CFG.h2)
    want = -2.0 * REF_CFG.a_rho * 1j * f.f.coefficients[1] / denom
    assert abs(pair.omega1.coefficients[1] - want) <= 1e-8 * abs(want)


def test_vorticity_bounds_with_analyticity_weight():
    # the four inequalities also hold in the weighted norms (nu > 0, t > 0)
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    pair = solve_vorticity(f, REF_CFG, tol=1e-12)
    checks = vorticity_bound_check(pair, f, REF_CFG, nu=0.1, t=0.5)
    assert all(c.passed for c in checks)


def test_omega2_outpaces_the_oracle():
    # the O(p N log N) interpolant, workspace included, vs the O(N^2) kernel
    # sum; the ratio at this size is large, asserted with a wide safety margin
    import time

    L = 12 * np.pi
    g = GridSpec(2048, L)
    x = g.nodes()
    f = InterfaceField.from_samples(0.01 * np.exp(-((x - L / 2) ** 2) / (2 * 1.5 ** 2)), g)
    w1 = forward(np.sin(2 * np.pi * 3 * x / L) * np.exp(-((x - L / 2) ** 2) / 8), g)
    t0 = time.perf_counter()
    _omega2(f, w1, REF_CFG)
    t_series = time.perf_counter() - t0
    t0 = time.perf_counter()
    _quad_omega2(f, w1, REF_CFG)
    t_quad = time.perf_counter() - t0
    assert t_series * 3.0 < t_quad


def test_solve_matches_the_dense_line_coupling_at_large_amplitude():
    # README grid, bump amplitude 0.88: a Taylor series in the height would
    # need over 170 terms, past the point where n! overflows a double; the
    # interpolant needs a handful of nodes
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.88, 1.5)
    ws = _Workspace(f, REF_CFG, 1e-10)
    assert ws.coupling_nodes <= 20
    ps = solve_vorticity(f, REF_CFG, workspace=ws)
    pq = solve_vorticity(f, REF_CFG, workspace=_QuadratureWorkspace(f, REF_CFG, 1e-10))
    for a, b in ((ps.omega1, pq.omega1), (ps.omega2, pq.omega2)):
        diff = fourier_norm(SpectralField(g, a.coefficients - b.coefficients), NormSpec(0.0))
        assert diff < 1e-8 * fourier_norm(b, NormSpec(0.0))


def test_line_coupling_matches_the_dense_trapezoid_rule():
    # P omega2 and CP omega2 of the evaluation against the dense trapezoid rule
    # on the same omega2, scaled to the size of w1 (omega2 is linear in w1)
    g = GridSpec(256, L12)
    x = g.nodes()
    f = gaussian_bump(g, 0.3, 1.5)
    ws = _Workspace(f, REF_CFG, 1e-10)
    w1 = np.sin(2 * np.pi * 3 * x / L12) * np.exp(-((x - L12 / 2) ** 2) / 8.0)
    w1 = w1 * np.max(np.abs(w1)) / np.max(np.abs(inverse(_full(ws.evaluate(w1).omega2, g))))
    ev = ws.evaluate(w1)
    omega2 = inverse(_full(ev.omega2, g))
    P, CP = _dense_pair(f, REF_CFG)
    for a, b in zip((ev.p, ev.cp), (P @ omega2, CP @ omega2)):
        assert np.max(np.abs(a - b)) < 1e-10


def _near_line_dip():
    """A dip to min f + h2 = 0.1 on L = 2 pi, N = 512, where the oracle's
    aliasing e^{-2 pi (min f + h2) / h} is 6e-23."""
    g = GridSpec(512, 2 * np.pi)
    x = g.nodes()
    return InterfaceField.from_samples(-0.9 * np.exp(-((x - np.pi) ** 2) / (2 * 0.3 ** 2)), g)


def _coupling_case(amplitude):
    if amplitude == "near-line dip":
        return _near_line_dip()
    return gaussian_bump(GridSpec(256, L12), amplitude, 1.5)


@pytest.mark.parametrize("amplitude", [0.01, 0.5, 0.88, 0.99, "near-line dip"])
def test_line_coupling_matches_the_oracle(amplitude):
    # README grid and bump up to amplitude 0.99, past any series in the height;
    # P g and CP g against the oracle's I4 = df P g and I3 = CP g
    f = _coupling_case(amplitude)
    g = f.f.grid
    L, F = g.domain_length, f.samples()
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    w1 = ws.dF + np.cos(2 * np.pi * 5 * g.nodes() / L)
    ev = ws.evaluate(w1)
    w2 = inverse(_full(ev.omega2, g))
    for got, want in ((w2, oracle.quad_omega2(F, w1, REF_CFG, L)),
                      (ev.cp, oracle.quad_I(F, w2, REF_CFG, 3, L)),
                      (ws.dF * ev.p, oracle.quad_I(F, w2, REF_CFG, 4, L))):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("amplitude", [0.5, "near-line dip"])
def test_target_pair_is_the_collocation_sum(amplitude):
    # P g(a) = sum_k pi e^{-(h2 + f(a))|xi_k|} g_k e^{i xi_k a}, CP with -i sgn(xi_k)
    # too, Nyquist left out, on g = omega2; the node rule holds the symbol's
    # error, times the operand scale max(1, ...) >= 1, to series_tol / 10
    f = _coupling_case(amplitude)
    g = f.f.grid
    x, xi = g.nodes(), g.wavenumbers()
    keep = np.arange(g.n_points) != g.nyquist_index()
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    ev = ws.evaluate(np.sin(2 * np.pi * 3 * x / g.domain_length) + 0.5 * ws.dF)
    ghat = _full(ev.omega2, g).coefficients
    waves = (np.exp(-np.outer(REF_CFG.h2 + f.samples(), np.abs(xi[keep])))
             * np.exp(1j * np.outer(x, xi[keep])))
    h = np.pi * ghat[keep]
    want = (waves @ h).real, (waves @ (-1j * np.sign(xi[keep]) * h)).real
    bound = DEFAULT_SERIES_TOL / 10.0 * np.sum(np.abs(h))
    for got, ref in zip((ev.p, ev.cp), want):
        assert np.max(np.abs(got - ref)) <= bound


def _interpolation_error(f, cfg, p):
    """Max over the samples and |xi| < xi_max of the symbol's error at p Chebyshev
    nodes on [min f, max f], by numpy's interpolant."""
    g = f.f.grid
    F = f.samples()
    center, rho = 0.5 * (F.max() + F.min()), 0.5 * (F.max() - F.min())
    axi = np.abs(g.wavenumbers()[: g.nyquist_index()])
    coef = chebinterpolate(lambda x: np.exp(-np.outer(cfg.h2 + center + rho * x, axi)), p - 1)
    return np.max(np.abs(chebval((F - center) / rho, coef) - np.exp(-np.outer(axi, cfg.h2 + F))))


@pytest.mark.parametrize("amplitude, slack", [(0.01, 4), (0.5, 4), (0.88, 4), (0.99, 4),
                                              ("decay", 4), (20.0, 8), ("near-line dip", 8)])
def test_coupling_node_rule_holds_its_bound(amplitude, slack):
    # the rule's p meets the tolerance it promises, within a few nodes of the
    # least p that does: 4 on the README bumps and the decay datum, 8 where
    # rho xi_max is large (71 against 63 at amplitude 20, 46 against 41 on
    # the dip; the (z/2)^k e^z / k! bound alone asks 157 on the dip and more
    # than N at amplitude 20)
    if amplitude == "decay":
        f = decay_packet(GridSpec(512, 400 * np.pi))
    else:
        f = _coupling_case(amplitude)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    scale = max(1.0, 4.0 * REF_CFG.a_rho * fourier_norm(f.f, NormSpec(1.0)))
    target = DEFAULT_SERIES_TOL / 10.0
    p = ws.coupling_nodes
    assert scale * _interpolation_error(f, REF_CFG, p) < target
    need = next(q for q in range(1, p + 1) if scale * _interpolation_error(f, REF_CFG, q) < target)
    assert p - need <= slack


def test_coupling_node_rule_edges():
    # a flat interface takes one node; one the grid cannot resolve raises
    assert _coupling_nodes(1.0, 0.0, 20.0, 1.0, 1e-10, 256) == 1
    assert _Workspace(_flat(GridSpec(64, 1.0)), REF_CFG, 1e-10).coupling_nodes == 1
    with pytest.raises(GeometryError):
        _coupling_nodes(1e-3, 10.0, 1e3, 1.0, 1e-10, 256)


def _correction(f, pair):
    """Samples of the nonlinear correction omega1 - M (-2 A_rho df) of a solved pair."""
    return inverse(pair.omega1) - _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL).linear


def test_exact_correction_as_guess_converges_in_one_iteration():
    g = GridSpec(256, L12)
    k0, k1 = thresholds(REF_CFG)
    f = random_admissible_interface(g, np.random.default_rng(1), REF_CFG, k0, k1)
    tight = solve_vorticity(f, REF_CFG, tol=1e-15)
    cold = solve_vorticity(f, REF_CFG)
    warm = solve_vorticity(f, REF_CFG, guess=_correction(f, tight))
    assert cold.iterations > warm.iterations == 1
    assert warm.residual < 1e-11


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 1.0),
       scale=st.floats(0.0, 2.0))
# the guess is the exact correction: both solves stop at round-off, where
# only the rounding term of the bound is left
@example(seed=101, frac=0.0703125, scale=1.0)
def test_warm_and_cold_solves_agree(seed, frac, scale):
    # the guess is the correction of a rescaled datum, as a previous step
    # would leave it; the guess moves the start, not the fixed point
    k0, k1 = thresholds(REF_CFG)
    g = GridSpec(256, L12)
    f = random_admissible_interface(g, np.random.default_rng(seed), REF_CFG, k0, k1, frac)
    prev = InterfaceField(SpectralField(g, scale * f.f.coefficients, 0.0), 0.0)
    guess = _correction(prev, solve_vorticity(prev, REF_CFG))
    cold = solve_vorticity(f, REF_CFG)
    warm = solve_vorticity(f, REF_CFG, guess=guess)
    # T(w) = D w + N w - 2 A_rho df with D = A_kappa A_mu e^{-2 h2 |xi|} its
    # flat part, and the iteration is w <- w + M (T(w) - w), M = (1 - D)^{-1}.
    # Its error maps as e -> M N e.  The ledger's q = 1 - 1/C1 bounds D + N
    # in F^{0,1} with |A_kappa A_mu| for D, so N is bounded by
    # q - |A_kappa A_mu|, and M by 1/(1 - |A_kappa A_mu|): the map
    # G(w) = w + M (T(w) - w) contracts by q_G.  A solve returns the iterate w
    # whose own update r = ||G(w) - w|| is its residual, so
    # ||w - w*|| <= r + ||G(w) - G(w*)|| <= r + q_G ||w - w*||, that is
    # ||w - w*|| <= r / (1 - q_G), up to the rounding of the iterates
    # themselves, a few ulps of their size.
    led = ledger(fourier_norm(f.f, NormSpec(0.0)), fourier_norm(f.f, NormSpec(1.0)), REF_CFG)
    flat = abs(REF_CFG.a_kappa * REF_CFG.a_mu)
    q_g = (1.0 - 1.0 / led.c1 - flat) / (1.0 - flat)
    diff = fourier_norm(SpectralField(g, warm.omega1.coefficients - cold.omega1.coefficients),
                        NormSpec(0.0))
    rounding = 8.0 * np.finfo(float).eps * fourier_norm(cold.omega1, NormSpec(0.0))
    assert diff <= (cold.residual + warm.residual) / (1.0 - q_g) + rounding


def _reference_sums(f, w):
    """Self term df S0 - S1, S0 and S1 of w by the O(N^2) alternating rule, and its
    operand scale sum_m |pv_m| ||w||_inf.

    Typed here in one unblocked pass, one row per odd offset m, from the
    periodized pv kernel and the difference quotients of the samples.
    """
    g = f.f.grid
    n, h = g.n_points, g.spacing
    m = odd_offsets(g)
    pv = 2.0 * h * pv_kernel_periodic(m * h, g.domain_length)
    shifted = (np.arange(n) - m[:, None]) % n
    F, dF = f.samples(), inverse(derivative(f.f))
    delta = (F - F[shifted]) / (m[:, None] * h)
    weight = pv[:, None] / (1.0 + delta ** 2) * w[shifted]
    sums = (np.sum(weight * (dF - delta), axis=0), np.sum(weight, axis=0),
            np.sum(weight * delta, axis=0))
    return sums, np.sum(np.abs(pv)) * np.max(np.abs(w))


def _self_sum_error(f, ws, w):
    """Largest error of the self term, S0 and S1 of one evaluation against the
    reference, relative to the operand scale."""
    ev = ws.evaluate(w)
    want, scale = _reference_sums(f, w)
    return max(np.max(np.abs(got - ref)) for got, ref in zip((ev.self_term, ev.s0, ev.s1), want)) \
        / scale


def _readme_operand(g):
    x, L = g.nodes(), g.domain_length
    return np.sin(2 * np.pi * 3 * x / L) * np.exp(-((x - L / 2) ** 2) / 8.0)


@pytest.mark.parametrize("amplitude, orders", [(0.001, (1, 4)), (0.01, (3, 6)), (0.05, (5, 8))])
def test_self_series_matches_the_rows(amplitude, orders):
    # README grid and bump: the series alone (K = 0) is chosen, at a modest
    # order, and is the alternating-rule sum of the rows up to its tolerance
    g = GridSpec(256, L12)
    f = gaussian_bump(g, amplitude, 1.5)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    assert ws.near_width == 0 and orders[0] <= ws.self_order <= orders[1]
    for w in (_readme_operand(g), ws.dF):
        assert _self_sum_error(f, ws, w) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([64, 128, 256]), seed=st.integers(0, 2 ** 32 - 1),
       log_frac=st.floats(-3.0, 0.0))
def test_self_series_matches_the_rows_on_admissible_data(n, seed, log_frac):
    # broadband data (spectrum ~e^{-|xi|/2}) and a broadband operand over
    # three decades of size
    k0, k1 = thresholds(REF_CFG)
    g = GridSpec(n, L12)
    rng = np.random.default_rng(seed)
    f = random_admissible_interface(g, rng, REF_CFG, k0, k1, 10.0 ** log_frac)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    assert _self_sum_error(f, ws, rng.standard_normal(n)) <= 1e-12


@pytest.mark.parametrize("amplitude, near", [(0.02, "none"), (0.3, "split"), (0.95, "rows"),
                                             (2.0, "rows")])
def test_self_sums_match_the_rows_at_every_amplitude(amplitude, near):
    # README grid and bump, at u = ||f||_F11 up to 1.06 (amplitude 2.0): the
    # series alone (K = 0), near and far fields (0 < K < N/2) and the direct
    # sums alone (K = N/2, no far field) all meet the tolerance
    g = GridSpec(256, L12)
    f = gaussian_bump(g, amplitude, 1.5)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    assert {"none": ws.near_width == 0, "split": 0 < ws.near_width < 128,
            "rows": (ws.near_width, ws.self_order) == (128, 0)}[near]
    if amplitude == 2.0:
        assert fourier_norm(f.f, NormSpec(1.0)) > 1.0
    for w in (_readme_operand(g), ws.dF):
        assert _self_sum_error(f, ws, w) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([64, 128, 256, 512]), seed=st.integers(0, 2 ** 32 - 1),
       log_u=st.floats(-3.0, 0.5))
# u = 1.26 at N = 512 takes near and far fields together
@example(n=512, seed=1, log_u=0.1)
def test_self_sums_match_the_rows_at_any_slope(n, seed, log_u):
    # broadband data rescaled to ||f||_F11 = u, up to 3.2, and a broadband
    # operand; the line sits deep enough for any of them
    g = GridSpec(n, L12)
    rng = np.random.default_rng(seed)
    fld = random_field(g, rng)
    c = fld.coefficients * 10.0 ** log_u / fourier_norm(fld, NormSpec(1.0))
    f = InterfaceField(SpectralField(g, c, 0.0))
    cfg = FluidConfig(0.5, 0.2, 1.0, 1.0 + 2.0 * np.max(np.abs(f.samples())))
    ws = _Workspace(f, cfg, DEFAULT_SERIES_TOL)
    if (n, seed, log_u) == (512, 1, 0.1):
        assert 0 < ws.near_width < n // 2 and fourier_norm(f.f, NormSpec(1.0)) > 1.0
    assert _self_sum_error(f, ws, rng.standard_normal(n)) <= 1e-12


def test_self_series_rule():
    # the truncation bound sets the order of the series alone; where the
    # binomial terms are too large to round below the tolerance, or the slope
    # is past the series' radius, a near field of K offsets serves the
    # nearest ones; past any far field the series could meet, K = N/2
    assert _self_rule(0.0, 0.0, 1e-10, 256) == (0, 0)
    assert _self_rule(1e-3, 1.0, 1e-10, 256) == (0, 4)
    assert _self_rule(1e-3, 1e4, 1e-10, 256) == (128, 0)
    assert _self_rule(1e-3, 1e300, 1e-10, 256) == (128, 0)
    near, order = _self_rule(0.16, 4.1, 1e-10, 1024)
    assert 0 < near < 512 and order < 15
    near, order = _self_rule(1.06, 27.0, 1e-10, 2048)
    assert 0 < near < 1024 and order < 20
    # order 5 on the acceptance decay datum, with no near field
    assert _self_rule(4.34e-3, 1.47e-2, 1e-10, 512) == (0, 5)


@pytest.mark.parametrize("n, amplitude, rule", [
    (256, 0.02, (0, 6)), (256, 0.3, (48, 8)), (256, 0.95, (128, 0)),
    (1024, 0.02, (0, 6)), (1024, 0.3, (48, 8)), (1024, 0.95, (88, 10)),
    (2048, 0.02, (0, 6)), (2048, 0.3, (48, 8)), (2048, 0.95, (88, 10))])
def test_self_rule_choices_at_the_status_amplitudes(n, amplitude, rule):
    # README fluid, spacing and bump: the near width K and the order are
    # pinned, so that a change of the cost model or of the bounds shows here
    g = GridSpec(n, L12 * n / 256)
    ws = _Workspace(gaussian_bump(g, amplitude, 1.5), REF_CFG, DEFAULT_SERIES_TOL)
    assert (ws.near_width, ws.self_order) == rule


def test_self_order_stays_where_the_factorials_are_finite():
    # the tables carry d!, and 171! overflows a double, while the cost alone
    # would allow order 171 from N = 45 056
    for u in np.concatenate((np.linspace(0.0, 0.999, 40), np.logspace(0.0, 0.5, 5))):
        for r_c in np.concatenate(([0.0], np.logspace(-6.0, 6.0, 49))):
            assert _self_rule(float(u), float(r_c), DEFAULT_SERIES_TOL, 65536)[1] <= 170
    assert np.all(np.isfinite(_pv_power_spectra(GridSpec(512, L12), 170, 0)))


def test_large_data_fall_back_to_the_rows():
    # README grid at amplitude 0.95: no far field the series could meet is
    # cheaper than the direct sums, K = N/2, whose far-field table is zero
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.95, 1.5)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    assert (ws.near_width, ws.self_order) == (128, 0)
    assert not np.any(_pv_power_spectra(g, 0, 128))
    assert _self_sum_error(f, ws, ws.dF) <= 1e-12


@pytest.mark.parametrize("rule, amplitude", [("series", 0.02), ("quadrature", 0.3)],
                         ids=["series-alone", "split"])
def test_kernel_storage_reused_bit_identically(rule, amplitude):
    # the far-field tables cached per (grid, order, K) and shared by every
    # snapshot: a snapshot summed by its series alone or with a near field
    # gets the same bits whatever snapshot was built before it
    g = GridSpec(256, L12)
    w1 = _readme_operand(g)
    f = gaussian_bump(g, amplitude, 2.0)
    first = _Workspace(f, REF_CFG, 1e-10).evaluate(w1)
    assert (_Workspace(f, REF_CFG, 1e-10).near_width > 0) == (rule == "quadrature")
    for other in (0.02, 0.3, 0.95):
        _Workspace(gaussian_bump(g, other, 1.5), REF_CFG, 1e-10).evaluate(w1)
        again = _Workspace(f, REF_CFG, 1e-10).evaluate(w1)
        for a, b in zip((first.self_term, first.s0, first.s1), (again.self_term, again.s0, again.s1)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("amplitude", [0.02, 0.3, 0.95, 2.0])
def test_self_rule_bounds_hold(monkeypatch, n, amplitude):
    # README spacing and bump at near widths K = 0, 4 and the rule's own
    # (where q < 1), orders 0, 3, ..., 30: the error against the rows stays
    # below max(1, u) q^(order+1)/(1 - q), the truncation bound, plus
    # 16 eps max(1, u) (order + 1) max(1, rho)^order, the rounding bound.
    # Over N = 256..1024, K = 0, 2, 4 and the rule's own and orders 0..40 the
    # two sat 5.9 to 49 times above the error, at their closest; where the
    # truncation bound is below 1e-3 of the rounding bound the error reached
    # 0.22 of the rounding bound's eps max(1, u) (order + 1) max(1, rho)^order,
    # with rho up to 6.5
    g = GridSpec(n, L12 * n / 256)
    f = gaussian_bump(g, amplitude, 1.5)
    F = f.samples()
    u, r_c = fourier_norm(f.f, NormSpec(1.0)), (F.max() - F.min()) / g.spacing
    slope = max(1.0, u)
    own = _self_rule(u, r_c, DEFAULT_SERIES_TOL, n)[0]
    w = _readme_operand(g) + 0.5
    eps = np.finfo(float).eps
    for near in sorted({0, 4, own} - {n // 2}):
        rho = r_c / (near + 1)
        q = min(u, rho)
        if q >= 1.0:
            continue
        for order in range(0, 31, 3):
            monkeypatch.setattr(vorticity, "_self_rule", lambda *args: (near, order))
            error = _self_sum_error(f, _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL), w)
            truncation = slope * q ** (order + 1) / (1.0 - q)
            rounding = eps * slope * (order + 1) * max(1.0, rho) ** order
            assert error <= truncation + _SELF_ROUNDING_ULPS * rounding
            if truncation < 1e-3 * rounding:
                assert error <= rounding
