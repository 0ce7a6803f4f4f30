import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskatjump import (GridSpec, SpectralField, conj_poisson_hat, derivative, forward, inverse,
                        poisson_hat)
from muskatjump.errors import ConfigurationError, DomainError
from muskatjump.spectral import (dealias_mask, hermitian_symmetrize, odd_offset_rows, odd_offsets,
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
    # even, but off the alternating rule, whose odd offsets need n = 4j
    for n in (6, 130):
        with pytest.raises(ConfigurationError, match="multiple of 4"):
            GridSpec(n, 1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(32, -1.0)


def test_reality_symmetry_exact():
    rng = np.random.default_rng(3)
    g = GridSpec(64, 2 * np.pi)
    c = forward(rng.standard_normal(64), g).coefficients
    assert np.array_equal(c, np.conj(np.concatenate((c[:1], c[:0:-1]))))


_ZEROS_AND_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, float(np.finfo(float).tiny), 1e300, -1e300]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3, 8, 16]), rows=st.integers(1, 3))
def test_hermitian_symmetrize_is_idempotent_bit_for_bit(data, n, rows):
    # real and imaginary parts from finite doubles up to 1e300 in magnitude
    # (their pair sums stay finite), with signed zeros and subnormals mixed in;
    # a second projection leaves the first one's bits, the signs of zeros
    # included, on every row, and the modes past n/2 are the conjugates of
    # those below to the bit
    parts = data.draw(st.lists(st.one_of(st.sampled_from(_ZEROS_AND_EXTREMES),
                                         st.floats(-1e300, 1e300)),
                               min_size=2 * n * rows, max_size=2 * n * rows))
    c = np.array(parts).view(complex).reshape(rows, n)
    once = hermitian_symmetrize(c)
    assert np.array_equal(once.view(np.uint64), hermitian_symmetrize(once).view(np.uint64))
    assert np.array_equal(once, 0.5 * (c + np.conj(np.concatenate((c[:, :1], c[:, :0:-1]), 1))))
    upper = n // 2 + 1
    assert np.array_equal(once[:, upper:].view(np.uint64),
                          np.conj(once[:, n - upper: 0: -1]).view(np.uint64))


def test_spectral_field_holds_no_time():
    # a third argument, the time, is accepted and dropped: the interface
    # state that holds the field is the one place with a time
    g = GridSpec(8, 1.0)
    fld = SpectralField(g, np.ones(8), 0.0)
    assert [f.name for f in dataclasses.fields(SpectralField)] == ["grid", "coefficients"]
    assert set(vars(fld)) == {"grid", "coefficients"}


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
        lam = np.sum(np.exp(-1j * (2 * np.pi * k / g.domain_length) * beta) * w)
        assert abs(lam - (-1j * np.pi)) < 1e-12


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
