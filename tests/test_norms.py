import numpy as np
import pytest

from muskatjump import (GridSpec, NormSpec, SpectralField, decay_fit, forward, fourier_norm,
                        strip_radius, weighted_l2)
from muskatjump.errors import DomainError, WeightRangeError
from muskatjump.norms import NOISE_FLOOR, NormReport, _power_weights, _weights, norm_report
from muskatjump.spectral import hermitian_symmetrize

from helpers import decay_packet, exp_spectrum_bump, gaussian_bump, random_field


def test_fourier_norm_cosine_s0():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    assert abs(fourier_norm(f, NormSpec(0.0)) - 1.0) < 1e-12


def test_fourier_norm_cosine_s1():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    assert abs(fourier_norm(f, NormSpec(1.0)) - 1.0) < 1e-12


def test_fourier_norm_weighted_hand_value():
    # cos(2a): two modes of size 1/2 at |xi| = 2; s=1, nu=0.5, t=1 gives 2 * (1/2) * 2 * e
    g = GridSpec(64, 2 * np.pi)
    c = np.zeros(64, complex)
    c[2] = c[-2] = 0.5
    f = SpectralField(g, c)
    val = fourier_norm(f, NormSpec(1.0, nu=0.5, time=1.0))
    assert abs(val - 2.0 * np.e) < 1e-12 * 2 * np.e


def test_fourier_norm_overflow_guard():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    with pytest.raises(OverflowError):
        fourier_norm(f, NormSpec(0.0, nu=100.0, time=1000.0))


@pytest.mark.parametrize("nu_t", [0.0, 0.37])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_fourier_norm_matches_the_inline_formula_bitwise(s, nu_t):
    g = GridSpec(64, 12 * np.pi)
    f = random_field(g, np.random.default_rng(3))
    xi = np.abs(g.wavenumbers())
    w = np.exp(nu_t * xi) * xi ** s
    if s > 0:
        w[0] = 0.0
    expected = float(np.sum(w * np.abs(f.coefficients)))
    got = fourier_norm(f, NormSpec(s, nu=nu_t, time=1.0) if nu_t else NormSpec(s))
    assert got.hex() == expected.hex()


def test_cached_power_weights_are_read_only():
    g = GridSpec(64, 12 * np.pi)
    f = random_field(g, np.random.default_rng(4))
    for w in (_power_weights(g, 1.5), _weights(g, NormSpec(1.5), np.abs(f.coefficients))):
        with pytest.raises(ValueError):
            w[1] = 0.0


def test_fourier_norm_overflow_guard_threshold():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    xi_max = float(np.max(np.abs(g.wavenumbers())))
    assert np.isfinite(fourier_norm(f, NormSpec(0.0, nu=699.0 / xi_max, time=1.0)))
    with pytest.raises(OverflowError):
        fourier_norm(f, NormSpec(0.0, nu=701.0 / xi_max, time=1.0))


def test_weighted_l2_cosine():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    assert abs(weighted_l2(f, NormSpec(0.0)) - np.sqrt(np.pi)) < 1e-12


def test_weighted_l2_zero():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.zeros(64), g)
    assert weighted_l2(f, NormSpec(0.0)) == 0.0


def test_weighted_l2_matches_trapezoid():
    rng = np.random.default_rng(5)
    g = GridSpec(256, 11.0)
    x = rng.standard_normal(256)
    f = forward(x, g)
    quad = np.sqrt(np.sum(x ** 2) * g.spacing)
    assert abs(weighted_l2(f, NormSpec(0.0)) - quad) / quad < 1e-10


@pytest.mark.parametrize("nu_t", [0.0, 0.37])
def test_weighted_l2_matches_the_inline_formula_bitwise(nu_t):
    g = GridSpec(64, 12 * np.pi)
    f = random_field(g, np.random.default_rng(6))
    xi = np.abs(g.wavenumbers())
    total = np.sum(np.exp(2.0 * nu_t * 1.0 * xi) * np.abs(f.coefficients) ** 2)
    expected = float(np.sqrt(g.domain_length * total))
    got = weighted_l2(f, NormSpec(0.0, nu=nu_t, time=1.0) if nu_t else NormSpec(0.0))
    assert got.hex() == expected.hex()


def test_weighted_l2_overflow_guard_threshold():
    # the squared weight is the weight at 2 nu, so the guard acts at 2 nu t xi_max = 700
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    xi_max = float(np.max(np.abs(g.wavenumbers())))
    assert np.isfinite(weighted_l2(f, NormSpec(0.0, nu=349.0 / xi_max, time=1.0)))
    with pytest.raises(WeightRangeError, match="at t = 1 exceeds the exponential guard"):
        weighted_l2(f, NormSpec(0.0, nu=351.0 / xi_max, time=1.0))


def test_strip_radius_exponential():
    g = GridSpec(256, 2 * np.pi)
    xi = g.wavenumbers()
    c = np.exp(-0.7 * np.abs(xi))
    c[g.nyquist_index()] = 0.0
    f = SpectralField(g, hermitian_symmetrize(c))
    r = strip_radius(f)
    assert r is not None and abs(r - 0.7) < 1e-6


def test_strip_radius_algebraic_decay():
    g = GridSpec(1024, 2 * np.pi)
    xi = g.wavenumbers()
    c = np.zeros(1024)
    nz = np.abs(xi) > 0
    c[nz] = np.abs(xi[nz]) ** -4.0
    c[g.nyquist_index()] = 0.0
    f = SpectralField(g, hermitian_symmetrize(c.astype(complex)))
    r = strip_radius(f)
    assert r is not None and r < 0.05


def test_strip_radius_unavailable_below_floor():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.full(64, 1e-15), g)
    assert strip_radius(f) is None


def test_decay_fit_exact_power_laws():
    t = np.linspace(0.0, 30.0, 40)
    assert abs(decay_fit(list(zip(t, (1 + t) ** -1.0))) - (-1.0)) < 1e-8
    assert abs(decay_fit(list(zip(t, 3.0 * (1 + t) ** -2.0))) - (-2.0)) < 1e-8
    assert abs(decay_fit(list(zip(t, np.full_like(t, 4.2))))) < 1e-10


def _polyfit_strip_radius(fld):
    """strip_radius's selection, fitted by numpy's polyfit: the reference slope."""
    c = np.abs(fld.coefficients)
    sel = (fld.grid.mode_numbers() >= 1) & (c > NOISE_FLOOR * np.max(c))
    return max(float(np.polyfit(fld.grid.wavenumbers()[sel], -np.log(c[sel]), 1)[0]), 0.0)


def _noisy_bump(n, rng):
    g = GridSpec(n, 12 * np.pi * n / 256)
    xi = g.wavenumbers()
    rate = rng.uniform(0.1, 2.0)
    noise = 1.0 + 0.3 * rng.standard_normal(n)
    c = rng.uniform(1e-3, 1.0) * np.exp(-rate * np.abs(xi)) * np.abs(noise)
    c = c * np.exp(2j * np.pi * rng.random(n))
    c[g.nyquist_index()] = 0.0
    return SpectralField(g, hermitian_symmetrize(c))


@pytest.mark.parametrize("fld", [
    # an exact line: -log|c_k| = log 3 + 0.4 xi_k
    exp_spectrum_bump(GridSpec(256, 12 * np.pi), 3.0, 0.4).f,
    decay_packet(GridSpec(512, 400 * np.pi)).f,
    *(gaussian_bump(GridSpec(256, 12 * np.pi), amp, 1.5).f for amp in (0.01, 0.3, 0.95)),
    *(_noisy_bump(n, np.random.default_rng(seed))
      for seed, n in enumerate((64, 96, 128, 256, 512, 512))),
], ids=["line", "decay_packet", "bump_0.01", "bump_0.3", "bump_0.95",
        *(f"noisy_{i}" for i in range(6))])
def test_strip_radius_is_the_least_squares_slope(fld):
    got, want = strip_radius(fld), _polyfit_strip_radius(fld)
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("seed", range(5))
def test_decay_fit_is_the_least_squares_slope(seed):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 100.0, 40))
    v = 2.0 * (1.0 + t) ** rng.uniform(-2.0, -0.5) * np.exp(0.1 * rng.standard_normal(40))
    want = float(np.polyfit(np.log1p(t), np.log(v), 1)[0])
    assert abs(decay_fit(list(zip(t, v))) - want) <= 1e-12 * abs(want)


def test_decay_fit_errors():
    t = np.linspace(0.0, 30.0, 40)
    with pytest.raises(DomainError):
        decay_fit(list(zip(t, -np.ones_like(t))))
    with pytest.raises(DomainError):
        decay_fit([(0.0, 1.0)] * 5)
    with pytest.raises(DomainError):
        decay_fit(list(zip(np.linspace(0, 1, 20), np.ones(20))))


def _interpolates(f, s1, s, s2):
    """||f||_s <= ||f||_s1^theta ||f||_s2^(1-theta), theta = (s2-s)/(s2-s1), to 1e-9 relative."""
    theta = (s2 - s) / (s2 - s1)
    lo, mid, hi = (fourier_norm(f, NormSpec(x)) for x in (s1, s, s2))
    return mid <= lo ** theta * hi ** (1.0 - theta) * (1.0 + 1e-9)


def test_interpolation_single_mode_equality():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(3 * g.nodes()), g)
    lo = fourier_norm(f, NormSpec(0.0))
    mid = fourier_norm(f, NormSpec(1.0))
    hi = fourier_norm(f, NormSpec(2.0))
    assert abs(mid - np.sqrt(lo * hi)) < 1e-12
    assert _interpolates(f, 0.0, 1.0, 2.0)


def test_interpolation_random_field():
    rng = np.random.default_rng(23)
    f = random_field(GridSpec(128, 2 * np.pi), rng)
    assert _interpolates(f, 0.0, 1.0, 2.0)


def test_interpolation_property_sweep():
    rng = np.random.default_rng(29)
    g = GridSpec(64, 2 * np.pi)
    for _ in range(1000):
        f = random_field(g, rng, decay=rng.uniform(0.1, 1.0))
        assert _interpolates(f, 0.0, 0.5, 1.0)


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(31)
    g = GridSpec(128, 2 * np.pi)
    spec = NormSpec(1.0)
    for _ in range(50):
        f = random_field(g, rng)
        h = random_field(g, rng)
        s = SpectralField(g, f.coefficients + h.coefficients)
        assert fourier_norm(s, spec) <= fourier_norm(f, spec) + fourier_norm(h, spec) + 1e-12
        scaled = SpectralField(g, -2.5 * f.coefficients)
        assert abs(fourier_norm(scaled, spec) - 2.5 * fourier_norm(f, spec)) < 1e-12


def _exact_product(a: SpectralField, b: SpectralField) -> SpectralField:
    """The product's coefficients, the l1 convolution of a's and b's, on the 2n grid.

    fftshift orders each factor k = -n/2..n/2-1, so the convolution holds
    k = -n..n-2, which the 2n grid keeps without aliasing or truncation.
    """
    n, L = a.grid.n_points, a.grid.domain_length
    conv = np.convolve(np.fft.fftshift(a.coefficients), np.fft.fftshift(b.coefficients))
    c = np.zeros(2 * n, dtype=complex)
    c[np.arange(-n, n - 1) % (2 * n)] = conv
    return SpectralField(GridSpec(2 * n, L), c)


def test_product_rule_s1():
    # ||gh||_{F11} <= ||g||_{F11} ||h||_{F01} + ||g||_{F01} ||h||_{F11}, exact products
    rng = np.random.default_rng(37)
    g = GridSpec(128, 2 * np.pi)
    for _ in range(100):
        a = random_field(g, rng)
        b = random_field(g, rng)
        p = _exact_product(a, b)
        lhs = fourier_norm(p, NormSpec(1.0))
        rhs = (fourier_norm(a, NormSpec(1.0)) * fourier_norm(b, NormSpec(0.0))
               + fourier_norm(a, NormSpec(0.0)) * fourier_norm(b, NormSpec(1.0)))
        assert lhs <= rhs * (1 + 1e-12)


def test_exponential_splitting():
    # ||gh||_{F01,nu} <= ||g||_{F01,nu} ||h||_{F01,nu} for nu t <= 2
    rng = np.random.default_rng(41)
    g = GridSpec(128, 2 * np.pi)
    spec = NormSpec(0.0, nu=0.05, time=2.0)
    for _ in range(100):
        a = random_field(g, rng, decay=0.8)
        b = random_field(g, rng, decay=0.8)
        p = _exact_product(a, b)
        lhs = fourier_norm(p, spec)
        assert lhs <= fourier_norm(a, spec) * fourier_norm(b, spec) * (1 + 1e-12)


@pytest.mark.parametrize("time", [0.0, 40.0])
def test_norm_report_equals_the_single_norms_bitwise(time):
    # one |c| serves the report; each entry is the public norm's value, with
    # nu t = 0 and with nu t = 2, where the noise floor drops the datum's zero
    # modes k = 0 and N/2
    f = decay_packet(GridSpec(256, 400 * np.pi)).f
    nu = 0.05
    rep = norm_report(f, nu, time)
    for got, s in ((rep.f01, 0.0), (rep.f11, 1.0), (rep.f21, 2.0), (rep.f3half, 1.5)):
        assert got.hex() == fourier_norm(f, NormSpec(s, nu, time)).hex()
    assert rep.l2nu.hex() == weighted_l2(f, NormSpec(0.0, nu, time)).hex()
    assert rep.strip_radius == strip_radius(f)


def test_norm_report_validates_interpolation():
    with pytest.raises(DomainError):
        NormReport(f01=1.0, f11=10.0, f21=1.0, f3half=1.0, l2nu=1.0,
                   strip_radius=None)
