import numpy as np
import pytest

from muskatjump import GridSpec, conj_poisson_hat, derivative, forward, hilbert, inverse, poisson_hat
from muskatjump.errors import ConfigurationError, DomainError
from muskatjump.spectral import (SpectralField, dealias, dealias_mask, hermitian_extension,
                                 hermitian_symmetrize, odd_offset_rows, odd_offsets,
                                 padded_coefficients, padded_samples, product_coefficients,
                                 pv_kernel_periodic)


def test_forward_constant():
    g = GridSpec(32, 2 * np.pi)
    f = forward(np.ones(32), g)
    assert abs(f.coefficients[0] - 1.0) < 1e-14
    assert np.max(np.abs(f.coefficients[1:])) < 1e-14


def test_forward_cosine_single_mode():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.cos(g.nodes()), g)
    assert abs(f.coefficients[1] - 0.5) < 1e-12
    assert abs(f.coefficients[-1] - 0.5) < 1e-12
    c = f.coefficients.copy()
    c[1] = c[-1] = 0.0
    assert np.max(np.abs(c)) < 1e-12


def test_round_trip_random():
    rng = np.random.default_rng(7)
    g = GridSpec(128, 5.0)
    x = rng.standard_normal(128)
    assert np.max(np.abs(inverse(forward(x, g)) - x)) < 1e-12


@pytest.mark.parametrize("n", [32, 64, 256, 1024, 4096])
def test_round_trip_all_sizes(n):
    rng = np.random.default_rng(n)
    g = GridSpec(n, 7.3)
    x = rng.standard_normal(n)
    err = np.max(np.abs(inverse(forward(x, g)) - x))
    assert err < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_forward_length_mismatch():
    g = GridSpec(32, 1.0)
    with pytest.raises(ConfigurationError):
        forward(np.ones(31), g)


def test_grid_invariants():
    with pytest.raises(ConfigurationError):
        GridSpec(33, 1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(32, -1.0)


def test_reality_symmetry_exact():
    rng = np.random.default_rng(3)
    g = GridSpec(64, 2 * np.pi)
    c = forward(rng.standard_normal(64), g).coefficients
    assert np.array_equal(c, np.conj(np.concatenate((c[:1], c[:0:-1]))))


def test_hilbert_cosine():
    g = GridSpec(64, 2 * np.pi)
    x = g.nodes()
    f = forward(np.cos(3 * x), g)
    assert np.max(np.abs(inverse(hilbert(f)) - np.sin(3 * x))) < 1e-12


def test_hilbert_constant_annihilated():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.full(64, 2.5), g)
    assert np.max(np.abs(inverse(hilbert(f)))) < 1e-14


def test_hilbert_squared_is_minus_projection():
    rng = np.random.default_rng(11)
    g = GridSpec(128, 2 * np.pi)
    f = forward(rng.standard_normal(128), g)
    c = f.coefficients.copy()
    c[g.nyquist_index()] = 0.0  # H zeroes the Nyquist slot by policy
    f = f.with_coefficients(c)
    x = inverse(f)
    hh = inverse(hilbert(hilbert(f)))
    assert np.max(np.abs(hh + (x - x.mean()))) < 1e-11


def test_hilbert_isometry_on_mean_free():
    rng = np.random.default_rng(13)
    g = GridSpec(256, 3.0)
    x = rng.standard_normal(256)
    x -= x.mean()
    f = forward(x, g)
    h = hilbert(f)
    # Nyquist is zeroed by the multiplier; compare on the rest
    keep = np.ones(256, bool)
    keep[g.nyquist_index()] = False
    a = np.sum(np.abs(f.coefficients[keep]) ** 2)
    b = np.sum(np.abs(h.coefficients[keep]) ** 2)
    assert abs(a - b) < 1e-12 * a


def test_derivative_sine():
    g = GridSpec(64, 2 * np.pi)
    x = g.nodes()
    f = forward(np.sin(x), g)
    assert np.max(np.abs(inverse(derivative(f)) - np.cos(x))) < 1e-12


def test_derivative_constant():
    g = GridSpec(64, 2 * np.pi)
    f = forward(np.ones(64), g)
    assert np.max(np.abs(inverse(derivative(f)))) < 1e-14


def _fd4_gap(n):
    g = GridSpec(n, 2 * np.pi)
    x = g.nodes()
    y = np.exp(np.sin(x))
    h = g.spacing
    fd = (-np.roll(y, -2) + 8 * np.roll(y, -1) - 8 * np.roll(y, 1) + np.roll(y, 2)) / (12 * h)
    sp = inverse(derivative(forward(y, g)))
    return np.max(np.abs(sp - fd)) / np.max(np.abs(sp))


def test_derivative_against_finite_differences():
    # 4th-order central differences as the independent oracle.  The gap is the
    # oracle's own truncation error: small, and shrinking at 4th order.
    gap = _fd4_gap(256)
    assert gap < 1e-6
    assert _fd4_gap(512) < gap / 12.0


def _tapered_transform(kernel, xi, half_width, n, power=4):
    """Trapezoid quadrature of int kernel(x) exp(-i xi x) dx with a smooth edge taper."""
    x = (np.arange(n) - n / 2) * (2 * half_width / n)
    w = np.ones_like(x)
    edge = np.abs(x) > 0.7 * half_width
    u = np.clip((np.abs(x[edge]) - 0.7 * half_width) / (0.3 * half_width), 0, 1)
    w[edge] = (1 - (3 * u ** 2 - 2 * u ** 3)) ** power
    vals = kernel(x) * w
    return np.sum(vals * np.exp(-1j * xi * x)) * (2 * half_width / n)


def test_poisson_hat_values():
    assert abs(poisson_hat(1.0, 0.0) - np.pi) < 1e-15
    assert abs(poisson_hat(2.0, 0.0) - np.pi) < 1e-15
    with pytest.raises(DomainError):
        poisson_hat(0.0, 1.0)
    with pytest.raises(DomainError):
        poisson_hat(-1.0, 1.0)


def test_poisson_hat_against_quadrature():
    a = 1.0
    for xi in (0.5, 1.0, 2.0):
        num = _tapered_transform(lambda x: a / (x ** 2 + a ** 2), xi, 100.0, 2 ** 14)
        assert abs(num - poisson_hat(a, xi)) / poisson_hat(a, xi) < 1e-4


def test_conj_poisson_hat_values():
    assert conj_poisson_hat(1.0, 0.0) == 0.0
    want = -1j * np.pi * np.exp(-1.0)
    assert abs(conj_poisson_hat(1.0, 1.0) - want) < 1e-15
    with pytest.raises(DomainError):
        conj_poisson_hat(-0.5, 1.0)


def test_conj_poisson_hat_parity():
    # real odd kernel: transform is odd and purely imaginary
    rng = np.random.default_rng(17)
    for xi in rng.uniform(-4, 4, size=20):
        v = conj_poisson_hat(1.3, xi)
        assert abs(v + conj_poisson_hat(1.3, -xi)) < 1e-15
        assert abs(v - np.conj(conj_poisson_hat(1.3, -xi))) < 1e-15
        assert abs(v.real) < 1e-15


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_kernel_transforms_match_quadrature_sweep(a):
    # 1e-4 relative, floored at 1e-9 absolute where the true value sits below
    # the quadrature oracle's cancellation noise (a |xi| >~ 12)
    for xi in (0.5, 1.0, 2.0, 4.0):
        num_p = _tapered_transform(lambda x: a / (x ** 2 + a ** 2), xi, 2000.0, 2 ** 18)
        want_p = poisson_hat(a, xi)
        assert abs(num_p - want_p) < max(1e-4 * abs(want_p), 1e-9)
        num_c = _tapered_transform(lambda x: x / (x ** 2 + a ** 2), xi, 2000.0, 2 ** 18)
        want_c = conj_poisson_hat(a, xi)
        assert abs(num_c - want_c) < max(1e-4 * abs(want_c), 1e-9)


def test_alternating_pv_rule_reproduces_hilbert_multiplier():
    g = GridSpec(256, 2 * np.pi)
    m = odd_offsets(g)
    beta = m * g.spacing
    w = pv_kernel_periodic(beta, g.domain_length) * 2 * g.spacing
    for k in (1, 2, 17, 100):
        lam = np.sum(np.exp(-1j * k * beta * (2 * np.pi / g.domain_length) / g.spacing * g.spacing) * w)
        lam = np.sum(np.exp(-1j * (2 * np.pi * k / g.domain_length) * beta) * w)
        assert abs(lam - (-1j * np.pi)) < 1e-12


def test_dealiased_product_single_modes():
    g = GridSpec(96, 2 * np.pi)
    x = g.nodes()
    f = forward(np.cos(2 * x), g)
    h = forward(np.cos(3 * x), g)
    p = product_coefficients(f.coefficients, h.coefficients, g)
    # cos2 cos3 = (cos5 + cos1)/2
    assert abs(p[1] - 0.25) < 1e-13
    assert abs(p[5] - 0.25) < 1e-13
    assert abs(p[2]) < 1e-14


@pytest.mark.parametrize("n", [4, 64, 512])
def test_grid_constants_built_once_and_read_only(n):
    g = GridSpec(n, 7.3)
    freq = np.fft.fftfreq(n, d=1.0 / n)
    k = np.rint(freq).astype(int)
    keep = np.abs(k) <= n // 3
    keep[n // 2] = False
    assert np.array_equal(g.wavenumbers(), 2.0 * np.pi * freq / 7.3)
    assert np.array_equal(g.mode_numbers(), k)
    assert np.array_equal(dealias_mask(g), keep)
    for arr in (g.wavenumbers(), g.mode_numbers(), dealias_mask(g)):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert g.wavenumbers() is g.wavenumbers()
    # the cache lives outside the dataclass fields: a grid that never built
    # it is still equal, with an equal hash
    twin = GridSpec(n, 7.3)
    assert g == twin and hash(g) == hash(twin)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_odd_offset_rows_is_read_only_circulant(n):
    w = np.random.default_rng(n).standard_normal(n)
    m = odd_offsets(GridSpec(n, 1.0))
    rows = odd_offset_rows(w)
    assert np.array_equal(rows, w[(np.arange(n)[None, :] - m[:, None]) % n])
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


# The 2n-padded layer as it was on complex transforms, kept verbatim as the
# reference for the real one.

def _complex_padded_samples(chat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples on the 2n grid of a spectrum, or of each row of a stack, zero-padded."""
    half = grid.n_points // 2
    pad = np.zeros(chat.shape[:-1] + (4 * half,), dtype=complex)
    pad[..., : half + 1] = chat[..., : half + 1]
    pad[..., 3 * half + 1:] = chat[..., half + 1:]
    return np.fft.ifft(pad * (4 * half))


def _complex_padded_coefficients(samples: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of 2n-grid samples (the last axis), restricted to |k| <= n/3."""
    big = 2 * grid.n_points
    return dealias(np.fft.fft(samples)[..., grid.mode_numbers() % big] / big, grid)


def _complex_product_coefficients(chat: np.ndarray, dhat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of the pointwise product, alias-free (padded to 2n), 2/3-truncated."""
    return _complex_padded_coefficients(
        _complex_padded_samples(chat, grid) * _complex_padded_samples(dhat, grid), grid)


def _hermitian_spectra(n: int, rows: int, seed: int) -> np.ndarray:
    """Random Hermitian spectra with content up to k = n/2 - 1 and none at Nyquist."""
    rng = np.random.default_rng(seed)
    c = hermitian_symmetrize(rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    c[:, n // 2] = 0.0
    return c


@pytest.mark.parametrize("n", [64, 256, 512])
def test_real_padded_layer_matches_the_complex_one(n):
    g = GridSpec(n, 7.3)
    c, d = _hermitian_spectra(n, 3, n), _hermitian_spectra(n, 3, n + 1)
    for a, b in ((c[0], d[0]), (c, d)):  # one spectrum, then a stack
        samples = padded_samples(a, g)
        want = _complex_padded_samples(a, g)
        assert samples.dtype == float and samples.shape == a.shape[:-1] + (2 * n,)
        assert np.max(np.abs(samples - want)) <= 1e-13 * np.max(np.abs(want))
        # the half spectrum reads the same samples as the full one
        assert np.array_equal(padded_samples(a[..., : n // 2 + 1], g), samples)

        prod = padded_samples(b, g) * samples
        half = padded_coefficients(prod, g)
        want = _complex_padded_coefficients(prod, g)
        assert half.shape == a.shape[:-1] + (n // 2 + 1,)
        assert np.max(np.abs(hermitian_extension(half, g) - want)) <= 1e-13 * np.max(np.abs(want))

        got = product_coefficients(a, b, g)
        want = _complex_product_coefficients(a, b, g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # Hermitian by construction, Nyquist and |k| > n/3 zero
        assert np.array_equal(got, hermitian_symmetrize(got))
        assert not np.any(got[..., ~dealias_mask(g)])


@pytest.mark.parametrize("n", [8, 64, 512])
def test_nyquist_coefficient_enters_the_padded_samples_at_half_weight(n):
    # c_{n/2} stands for the modes +n/2 and -n/2, which are distinct on the 2n
    # grid: the real interpolant is c_{n/2} cos(pi n a / L), which takes the
    # n-grid samples c_{n/2} (-1)^j at the even 2n-grid nodes.  At full weight
    # the samples would double.
    g = GridSpec(n, 5.0)
    c = np.zeros(n, dtype=complex)
    c[0], c[n // 2] = 0.25, 1.5
    samples = padded_samples(c, g)
    cos = np.tile([1.0, 0.0, -1.0, 0.0], n // 2)  # cos(pi j / 2) at 2n-grid node j
    assert np.max(np.abs(samples - (0.25 + 1.5 * cos))) < 1e-14
    assert np.max(np.abs(samples[::2] - inverse(SpectralField(g, c)))) < 1e-14
    # the complex layer put c_{n/2} at +n/2 alone: same real part, and an
    # imaginary part the real layer has no room for
    assert np.max(np.abs(samples - _complex_padded_samples(c, g).real)) < 1e-14
    # n/2 > n/3: the product truncation drops the Nyquist mode again
    assert padded_coefficients(samples, g)[n // 2] == 0.0
