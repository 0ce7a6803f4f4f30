import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskatjump import (FluidConfig, GridSpec, SpectralField, inverse, solve_vorticity,
                        thresholds)
from muskatjump import oracle
from muskatjump.errors import ConfigurationError, GeometryError
from muskatjump.evolution import InterfaceField, SolverOptions, rhs

from helpers import REF_CFG, conj_poisson_hat, gaussian_bump, random_admissible_interface

L12 = 12 * np.pi


def test_i1_flat_interface_is_hilbert():
    # f = 0, strength cos: I1 = pi H(cos) = pi sin
    g = GridSpec(512, 2 * np.pi)
    x = g.nodes()
    out = oracle.quad_I(np.zeros(512), np.cos(x), REF_CFG, 1, 2 * np.pi)
    assert np.max(np.abs(out - np.pi * np.sin(x))) < 1e-6


def test_i2_vanishes_for_flat_slope():
    g = GridSpec(256, 2 * np.pi)
    out = oracle.quad_I(np.zeros(256), np.cos(g.nodes()), REF_CFG, 2, 2 * np.pi)
    assert np.max(np.abs(out)) < 1e-14


def test_i3_flat_interface_matches_multiplier():
    # f = 0, strength cos: I3 equals the conjugate-Poisson multiplier applied to cos
    g = GridSpec(256, 2 * np.pi)
    x = g.nodes()
    out = oracle.quad_I(np.zeros(256), np.cos(x), REF_CFG, 3, 2 * np.pi)
    mult = conj_poisson_hat(REF_CFG.h2, 1.0)
    c = np.zeros(256, complex)
    c[1] = 0.5 * mult
    c[-1] = np.conj(c[1])
    want = np.fft.ifft(c * 256).real
    assert np.max(np.abs(out - want)) < 1e-6


def test_quad_I_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        oracle.quad_I(np.zeros(64), np.zeros(32), REF_CFG, 1, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        oracle.quad_I(np.zeros(64), np.zeros(64), REF_CFG, 5, 2 * np.pi)
    with pytest.raises(GeometryError):
        oracle.quad_I(np.full(64, -2.0), np.zeros(64), REF_CFG, 1, 2 * np.pi)


def test_br_trace_zero_strengths():
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    u1, u2 = oracle.quad_BR_trace(f.samples(), np.zeros(128), np.zeros(128),
                                  REF_CFG, L12, "fluid_curve")
    assert np.max(np.abs(u1)) == 0.0 and np.max(np.abs(u2)) == 0.0


def test_br_tangential_identity():
    # the solved pair satisfies the fluid-curve trace identity
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    pair = solve_vorticity(f, REF_CFG, tol=1e-12)
    F = f.samples()
    w1, w2 = inverse(pair.omega1), inverse(pair.omega2)
    u1, u2 = oracle.quad_BR_trace(F, w1, w2, REF_CFG, L12, "fluid_curve")
    xi = g.wavenumbers()
    dF = np.fft.ifft(1j * xi * np.fft.fft(F)).real
    tang = u1 + u2 * dF
    ident = w1 / (2.0 * REF_CFG.a_mu) + REF_CFG.a_rho * dF / REF_CFG.a_mu
    assert np.max(np.abs(tang - ident)) < 1e-6


def test_br_soil_line_equation_residual():
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    pair = solve_vorticity(f, REF_CFG, tol=1e-12)
    F = f.samples()
    w1, w2 = inverse(pair.omega1), inverse(pair.omega2)
    u1, _ = oracle.quad_BR_trace(F, w1, w2, REF_CFG, L12, "soil_curve")
    assert np.max(np.abs(w2 - (-2.0 * REF_CFG.a_kappa * u1))) < 1e-6


def test_grid_refinement_reduces_discrepancy():
    # doubling n reduces the oracle-vs-spectral gap by >= 4x until the 1e-8 floor
    gaps = {}
    for n in (128, 256):
        g = GridSpec(n, L12)
        f = gaussian_bump(g, 0.02, 1.5)
        pair = solve_vorticity(f, REF_CFG, tol=1e-12)
        w2_or = oracle.quad_omega2(f.samples(), inverse(pair.omega1), REF_CFG, L12)
        gaps[n] = np.max(np.abs(inverse(pair.omega2) - w2_or))
    floor = 1e-8
    assert gaps[256] <= max(gaps[128] / 4.0, floor)


def test_translation_invariance():
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    F = f.samples()
    w = np.sin(2 * np.pi * 2 * g.nodes() / L12) * np.exp(-((g.nodes() - L12 / 2) ** 2) / 8)
    out = oracle.quad_omega2(F, w, REF_CFG, L12)
    shift = 5
    out_shifted = oracle.quad_omega2(np.roll(F, shift), np.roll(w, shift), REF_CFG, L12)
    rel = np.max(np.abs(np.roll(out, shift) - out_shifted)) / max(np.max(np.abs(out)), 1e-300)
    assert rel < 1e-8


def test_quad_rhs_flat_is_zero():
    g = GridSpec(128, 2 * np.pi)
    out = oracle.quad_rhs(np.zeros(128), np.zeros(128), np.zeros(128), REF_CFG, 2 * np.pi)
    assert np.max(np.abs(out)) == 0.0


def _band_limited(f: InterfaceField, n: int) -> InterfaceField:
    """The same trigonometric polynomial on n points (its Nyquist mode is zero)."""
    c, m = f.f.coefficients, f.f.grid.n_points
    out = np.zeros(n, dtype=complex)
    out[: m // 2] = c[: m // 2]
    out[n - m // 2 + 1:] = c[m // 2 + 1:]
    return InterfaceField(SpectralField(GridSpec(n, f.f.grid.domain_length), out))


@settings(max_examples=20, deadline=None)
@given(a_kappa=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       a_mu=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       a_rho=st.floats(0.1, 5.0), h2=st.floats(0.3, 3.0), seed=st.integers(0, 2 ** 32 - 1))
# omega2 ~ 5.6e-313 is subnormal, where one rounding step (4.9e-324) is far
# more than 1e-10 of it
@example(a_kappa=2.225073858507e-311, a_mu=0.0, a_rho=1.0, h2=1.0, seed=0)
def test_fast_paths_match_the_oracle_on_random_fluids(a_kappa, a_mu, a_rho, h2, seed):
    # random data are broadband on N = 128, where the oracle's trapezoid rule
    # does not resolve them.  Its error falls like exp(-2 pi (f + h2) n / L):
    # at h2 = 0.3 it is 1e-10 on 512 points and at round-off (3e-14) on 768.
    # Random data are not localized, so the leakage check is off
    cfg = FluidConfig(a_kappa, a_mu, a_rho, h2)
    coarse = random_admissible_interface(GridSpec(128, L12), np.random.default_rng(seed),
                                         cfg, *thresholds(cfg))
    f = _band_limited(coarse, 768)
    F = f.samples()
    br = rhs(f, cfg, SolverOptions(leakage_threshold=math.inf))
    w1, w2 = inverse(br.pair.omega1), inverse(br.pair.omega2)
    w2_oracle = oracle.quad_omega2(F, w1, cfg, L12)
    # relative to the reference, or to the smallest normal double where the
    # reference is subnormal and rounds in absolute steps
    tiny = np.finfo(float).tiny
    assert np.max(np.abs(w2 - w2_oracle)) <= 1e-10 * max(np.max(np.abs(w2_oracle)), tiny)
    fast = sum(inverse(p) for p in (br.i1, br.i2, br.i3, br.i4)) / (2.0 * np.pi)
    rhs_oracle = oracle.quad_rhs(F, w1, w2, cfg, L12)
    assert np.max(np.abs(fast - rhs_oracle)) <= 1e-10 * max(np.max(np.abs(rhs_oracle)), tiny)
