import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskatjump import (FluidConfig, GridSpec, NormSpec, SpectralField, forward, fourier_norm,
                        inverse, solve_vorticity, vorticity_bound_check)
from muskatjump.certify import ledger, thresholds
from muskatjump.errors import GeometryError, MethodUnavailableError
from muskatjump.evolution import InterfaceField
from muskatjump.spectral import (derivative, hermitian_symmetrize, odd_offset_rows,
                                 padded_samples, product_coefficients)
from muskatjump.vorticity import _KERNEL_BLOCK, DEFAULT_SERIES_TOL, _Workspace

from helpers import REF_CFG, gaussian_bump, random_admissible_interface

L12 = 12 * np.pi


def _flat(grid):
    return InterfaceField.from_samples(np.zeros(grid.n_points), grid)


def _omega2(f, w1, cfg, method, tol=DEFAULT_SERIES_TOL):
    """Permeability-sheet strength induced by w1 on the backend ``method`` forces."""
    ws = _Workspace(f, cfg, tol, method)
    return SpectralField(ws.grid, ws.omega2(inverse(w1)))


def test_omega2_flat_interface_single_mode():
    # f = 0, strength cos(a): the line-sheet response is -A_k e^{-h2} / 2 per mode
    g = GridSpec(128, 2 * np.pi)
    w1 = forward(np.cos(g.nodes()), g)
    w2 = _omega2(_flat(g), w1, REF_CFG, method="series")
    want = -REF_CFG.a_kappa * np.exp(-REF_CFG.h2) * 0.5
    assert abs(w2.coefficients[1] - want) < 1e-13
    assert abs(w2.coefficients[-1] - want) < 1e-13
    w2q = _omega2(_flat(g), w1, REF_CFG, method="quadrature")
    assert abs(w2q.coefficients[1] - want) < 1e-13


def test_omega2_vanishes_without_jump():
    cfg = FluidConfig(0.0, 0.2, 1.0, 1.0)
    g = GridSpec(128, 2 * np.pi)
    w1 = forward(np.cos(g.nodes()), g)
    w2 = _omega2(_flat(g), w1, cfg, method="series")
    assert np.max(np.abs(w2.coefficients)) < 1e-16


def test_omega2_series_vs_quadrature_random_medium():
    rng = np.random.default_rng(101)
    g = GridSpec(256, L12)
    k0, k1 = 0.043, 0.043
    f = random_admissible_interface(g, rng, REF_CFG, k0, k1)
    w1 = forward(np.sin(2 * np.pi * 3 * g.nodes() / L12)
                 * np.exp(-((g.nodes() - L12 / 2) ** 2) / 8.0), g)
    ws = _omega2(f, w1, REF_CFG, method="series")
    wq = _omega2(f, w1, REF_CFG, method="quadrature")
    diff = fourier_norm(SpectralField(g, ws.coefficients - wq.coefficients), NormSpec(0.0))
    assert diff < 1e-8


def test_omega2_series_unavailable_for_large_interface():
    # F^{0,1} = 0.6 >= h2 = 0.5 while the interfaces stay separated
    g = GridSpec(128, 2 * np.pi)
    x = g.nodes()
    f = InterfaceField.from_samples(0.3 * np.cos(x) + 0.3 * np.cos(2 * x), g)
    w1 = forward(np.cos(x), g)
    shallow = FluidConfig(0.5, 0.2, 1.0, 0.5)
    with pytest.raises(MethodUnavailableError):
        _omega2(f, w1, shallow, method="series")
    # quadrature fallback still works
    w2 = _omega2(f, w1, shallow, method="quadrature")
    assert np.all(np.isfinite(w2.coefficients))


def test_omega2_geometry_error_when_touching():
    shallow = FluidConfig(0.5, 0.2, 1.0, 0.2)
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(np.full(128, -0.3), g)
    w1 = forward(np.cos(g.nodes()), g)
    with pytest.raises(GeometryError):
        _omega2(f, w1, shallow, method="quadrature")


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


def test_series_quadrature_equivalence_near_radius():
    # agreement holds up to F01 just under 0.9 h2
    g = GridSpec(256, 2 * np.pi)
    x = g.nodes()
    f = InterfaceField.from_samples(0.40 * np.cos(x) + 0.15 * np.cos(2 * x), g)
    a0 = fourier_norm(f.f, NormSpec(0.0))
    assert a0 < 0.9 * REF_CFG.h2
    w1 = forward(np.sin(x) * 0.3, g)
    ws = _omega2(f, w1, REF_CFG, method="series", tol=1e-12)
    wq = _omega2(f, w1, REF_CFG, method="quadrature")
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


def test_series_path_outpaces_quadrature():
    # the O(n_max N log N) series path vs the O(N^2) kernel sum; the measured
    # ratio at this size is ~200x, asserted with a wide safety margin
    import time

    L = 12 * np.pi
    g = GridSpec(2048, L)
    x = g.nodes()
    f = InterfaceField.from_samples(0.01 * np.exp(-((x - L / 2) ** 2) / (2 * 1.5 ** 2)), g)
    w1 = forward(np.sin(2 * np.pi * 3 * x / L) * np.exp(-((x - L / 2) ** 2) / 8), g)
    t0 = time.perf_counter()
    _omega2(f, w1, REF_CFG, method="series")
    t_series = time.perf_counter() - t0
    t0 = time.perf_counter()
    _omega2(f, w1, REF_CFG, method="quadrature")
    t_quad = time.perf_counter() - t0
    assert t_series * 3.0 < t_quad


def test_series_and_quadrature_solves_agree_at_large_amplitude():
    # README grid, bump amplitude 0.88: the series needs n_max > 170, past the
    # point where n! overflows a double
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.88, 1.5)
    ws = _Workspace(f, REF_CFG, 1e-10)
    assert ws.n_max is not None and ws.n_max > 170
    ps = solve_vorticity(f, REF_CFG, workspace=ws)
    pq = solve_vorticity(f, REF_CFG,
                         workspace=_Workspace(f, REF_CFG, 1e-10, method="quadrature"))
    for a, b in ((ps.omega1, pq.omega1), (ps.omega2, pq.omega2)):
        diff = fourier_norm(SpectralField(g, a.coefficients - b.coefficients), NormSpec(0.0))
        assert diff < 1e-8 * fourier_norm(b, NormSpec(0.0))


def test_target_series_matches_quadrature():
    g = GridSpec(256, L12)
    x = g.nodes()
    f = gaussian_bump(g, 0.3, 1.5)
    ghat = forward(np.sin(2 * np.pi * 3 * x / L12) * np.exp(-((x - L12 / 2) ** 2) / 8.0),
                   g).coefficients
    series = _Workspace(f, REF_CFG, 1e-10, method="series")
    assert series.n_max is not None
    got = series.target_pair(ghat)
    want = _Workspace(f, REF_CFG, 1e-10, method="quadrature").target_pair(ghat)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-10


def _product_by_convolution(chat, dhat):
    """Coefficients of the pointwise product by direct convolution, cut to |k| <= n/3."""
    n = len(chat)
    k = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    full = np.convolve(np.fft.fftshift(chat), np.fft.fftshift(dhat))  # modes -n .. n - 2
    out = full[k + n]
    out[np.abs(k) > n // 3] = 0.0
    return out


def _series_by_products(ws, w1, ghat):
    """omega2 and target_pair of a series backend, one convolution product per term.

    The products avoid the transforms and the truncation of ``spectral``, so a
    fault shared by the fast path and ``product_coefficients`` still shows.
    """
    grid, fhat = ws.grid, ws.fld.coefficients
    powers = [fhat]
    for _ in range(1, ws.n_max):
        powers.append(_product_by_convolution(powers[-1], fhat))
    # e^{-h2|xi|} (-|xi|)^n / n! on the full spectrum, Nyquist slot zeroed
    axi = np.abs(grid.wavenumbers())
    weights = [np.exp(-ws.cfg.h2 * axi)]
    weights[0][grid.nyquist_index()] = 0.0
    for n in range(1, ws.n_max + 1):
        weights.append(weights[-1] * (-axi / n))
    w1hat = forward(w1, grid).coefficients
    acc = weights[0] * w1hat
    for fn, wn in zip(powers, weights[1:]):
        acc = acc + wn * _product_by_convolution(fn, w1hat)
    z = np.pi * (1.0 + np.sign(grid.wavenumbers())) * ghat
    out = weights[0] * z
    for fn, wn in zip(powers, weights[1:]):
        out = out + _product_by_convolution(fn, wn * z)
    s = np.fft.ifft(out * grid.n_points)
    return hermitian_symmetrize(-ws.cfg.a_kappa * acc), (s.real, s.imag)


def _assert_series_matches_products(f):
    g = f.f.grid
    x = g.nodes()
    L = g.domain_length
    ws = _Workspace(f, REF_CFG, 1e-10, method="series")
    w1 = np.sin(2 * np.pi * 3 * x / L) * np.exp(-((x - L / 2) ** 2) / 8.0) + ws.dF
    ghat = forward(np.cos(2 * np.pi * 5 * x / L) * np.exp(-((x - L / 3) ** 2) / 4.0),
                   g).coefficients
    want_w2, want_pair = _series_by_products(ws, w1, ghat)
    got_w2 = ws.omega2(w1)
    assert np.max(np.abs(got_w2 - want_w2)) <= 1e-12 * np.max(np.abs(want_w2))
    for a, b in zip(ws.target_pair(ghat), want_pair):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    return ws.n_max


@pytest.mark.parametrize("amplitude, n_range", [(0.01, (1, 10)), (0.5, (20, 60)),
                                                (0.88, (150, 250)),
                                                pytest.param(None, (1, 10), id="broadband")])
def test_sample_space_series_matches_products(amplitude, n_range):
    g = GridSpec(256, L12)
    if amplitude is None:
        # spectrum ~e^{-|xi|/2}: unlike the bumps, it has content above the
        # 2/3 cutoff, so a product that skips the truncation shows
        k0, k1 = thresholds(REF_CFG)
        f = random_admissible_interface(g, np.random.default_rng(3), REF_CFG, k0, k1)
    else:
        f = gaussian_bump(g, amplitude, 1.5)
    n_max = _assert_series_matches_products(f)
    assert n_range[0] <= n_max <= n_range[1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 1.0))
def test_sample_space_series_matches_products_on_admissible_data(seed, frac):
    k0, k1 = thresholds(REF_CFG)
    g = GridSpec(256, L12)
    f = random_admissible_interface(g, np.random.default_rng(seed), REF_CFG, k0, k1, frac)
    _assert_series_matches_products(f)


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
    # q - |A_kappa A_mu|, and M by 1/(1 - |A_kappa A_mu|).  Each final iterate
    # lies within q_G/(1-q_G) times its last step of the fixed point.
    led = ledger(fourier_norm(f.f, NormSpec(0.0)), fourier_norm(f.f, NormSpec(1.0)), REF_CFG)
    flat = abs(REF_CFG.a_kappa * REF_CFG.a_mu)
    q_g = (1.0 - 1.0 / led.c1 - flat) / (1.0 - flat)
    diff = fourier_norm(SpectralField(g, warm.omega1.coefficients - cold.omega1.coefficients),
                        NormSpec(0.0))
    assert diff <= q_g / (1.0 - q_g) * (cold.residual + warm.residual)


def test_power_samples_match_product_built_powers():
    # each power is transformed once; the result is bit for bit the powers
    # built by product_coefficients and padded afterwards
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.5, 1.5)
    ws = _Workspace(f, REF_CFG, 1e-10, method="series")
    fhat = f.f.coefficients
    powers = [fhat]
    for _ in range(1, ws.n_max):
        powers.append(product_coefficients(powers[-1], fhat, g))
    assert ws.n_max > 20
    assert np.array_equal(ws.power_samples, padded_samples(np.array(powers), g))


def _unblocked_kernels(ws):
    """Delta and the self kernel in one pass over all offset rows."""
    inv_beta, pv = ws._offset_weights
    rows = odd_offset_rows(ws.F)
    delta = (ws.F - rows) * inv_beta
    kernel = (ws.dF - delta) / (1.0 + delta * delta) * pv
    return delta, kernel


@pytest.mark.parametrize("n", [384, 512])
def test_blocked_kernel_build_matches_one_pass(n):
    # at n = 384 the last block is a partial one
    g = GridSpec(n, L12)
    if n == 384:
        assert (n // 2) % (_KERNEL_BLOCK // n) != 0
    ws = _Workspace(gaussian_bump(g, 0.3, 1.5), REF_CFG, 1e-10)
    for got, want in zip(ws._kernels, _unblocked_kernels(ws)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["series", "quadrature"])
def test_kernel_storage_reused_bit_identically(method):
    g = GridSpec(256, L12)
    x = g.nodes()
    w1 = np.sin(2 * np.pi * 3 * x / L12) * np.exp(-((x - L12 / 2) ** 2) / 8.0)
    first = _Workspace(gaussian_bump(g, 0.3, 1.5), REF_CFG, 1e-10, method=method)
    first.self_induction(w1)
    f = gaussian_bump(g, 0.02, 2.0)
    shared = _Workspace(f, REF_CFG, 1e-10, method=method, storage=first.storage)
    fresh = _Workspace(f, REF_CFG, 1e-10, method=method)
    assert shared.storage is first.storage
    assert np.array_equal(shared.self_induction(w1), fresh.self_induction(w1))
    assert np.array_equal(shared.slope_terms(w1), fresh.slope_terms(w1))
