"""Periodic collocation grid, transform pair, Fourier multipliers and kernel transforms.

Conventions used throughout the package:

* Fourier series ``f(a) = sum_k c_k exp(i xi_k a)`` with ``xi_k = 2 pi k / L``
  and ``k`` in ``{-n/2+1, ..., n/2}``; coefficients are stored in numpy FFT
  order, ``forward`` divides by ``n`` so single modes have O(1) coefficients.
* The Nyquist mode is forced to zero after every multiplier application.
* The line-coupling kernels ``a/(x^2+a^2)`` and ``x/(x^2+a^2)`` enter only
  through their whole-line transforms ``pi exp(-a|xi|)`` and
  ``-i pi sgn(xi) exp(-a|xi|)``, which their periodizations over L share on
  the discrete mode set.  ``pv 1/x`` is periodized in closed form for the
  alternating-offset rule, which then reproduces ``-i pi sgn(xi)`` exactly.
* A real field's spectrum is read on its half k = 0..n/2 (the rest is the
  complex conjugate mirror); ``hermitian_extension`` restores the full n
  coefficients.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))
_SQRT_MAX = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with n_points nodes on a domain of length L."""

    n_points: int
    domain_length: float

    def __post_init__(self):
        n, L = self.n_points, self.domain_length
        # the alternating pv rule needs odd offsets symmetric about zero
        if not isinstance(n, (int, np.integer)) or n <= 0 or n % 4 != 0:
            raise ConfigurationError(f"n_points must be a positive multiple of 4, got {n!r}")
        if not np.isfinite(L) or L <= 0:
            raise ConfigurationError(f"domain_length must be finite and positive, got {L!r}")
        # past this length xi_1^2 is no normal double: F^{2,1} and the strip-radius fit fail
        if 2.0 * np.pi / L < _SQRT_TINY:
            raise ConfigurationError(f"domain_length must keep 2 pi / L >= {_SQRT_TINY:.3g}, "
                                     f"got {L!r}")
        # below this length the Nyquist wavenumber pi n / L has no finite square
        if L <= np.pi * n / _SQRT_MAX:
            raise ConfigurationError(f"domain_length must keep pi n / L < {_SQRT_MAX:.3g}, "
                                     f"got {L!r}")

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n_points

    def nodes(self) -> np.ndarray:
        """Collocation nodes a_j = j L / n on [0, L)."""
        return np.arange(self.n_points) * self.spacing

    def wavenumbers(self) -> np.ndarray:
        """xi_k = 2 pi k / L in FFT order (Nyquist slot carries -n/2); read-only."""
        return self._modes[1]

    def mode_numbers(self) -> np.ndarray:
        return self._modes[0]

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only mode numbers, wavenumbers and |k| <= n/3 mask, cached outside the fields."""
        freq = np.fft.fftfreq(self.n_points, d=1.0 / self.n_points)
        k = np.rint(freq).astype(int)
        out = (k, 2.0 * np.pi * freq / self.domain_length, np.abs(k) <= self.n_points // 3)
        for a in out:
            a.flags.writeable = False
        return out

    def nyquist_index(self) -> int:
        return self.n_points // 2


@dataclass(frozen=True)
class SpectralField:
    """Fourier-series coefficients of one real periodic field.

    A field carries no time; the interface state that holds it does.
    """

    grid: GridSpec
    coefficients: np.ndarray
    # accepted and dropped, so SpectralField(grid, c, t) still constructs
    time_tag: InitVar[float] = 0.0

    def __post_init__(self, time_tag):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"coefficient count {c.shape} does not match n_points={self.grid.n_points}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def with_coefficients(self, c: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, c)

    @classmethod
    def _adopt(cls, grid: GridSpec, c: np.ndarray) -> "SpectralField":
        """Field over ``c``, a complex array of n_points that no one else writes: no copy."""
        fld = object.__new__(cls)
        c.flags.writeable = False
        object.__setattr__(fld, "grid", grid)
        object.__setattr__(fld, "coefficients", c)
        return fld


def forward(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Transform real collocation samples to Fourier-series coefficients.

    The coefficients are Hermitian-symmetrized exactly so that reality
    symmetry c_{-k} = conj(c_k) holds to the last bit.
    """
    x = np.asarray(samples, dtype=float)
    if x.shape != (grid.n_points,):
        raise ConfigurationError(
            f"sample count {x.shape} does not match n_points={grid.n_points}"
        )
    return SpectralField(grid, hermitian_symmetrize(np.fft.fft(x) / grid.n_points))


def inverse(fld: SpectralField) -> np.ndarray:
    """Collocation samples of the field. Real part only; imaginary round-off discarded."""
    return np.fft.ifft(fld.coefficients * fld.grid.n_points).real


def hermitian_symmetrize(c: np.ndarray) -> np.ndarray:
    """(c_k + conj c_{-k}) / 2 along the last axis, idempotent bit for bit.

    The real and imaginary parts are halved apart (a complex multiply by 0.5
    adds 0 times the other part, which moves the sign of a zero part), and
    the modes past n/2 are the exact conjugates of those below, signed zeros
    included: the projection is the Hermitian extension of its own half.
    """
    n = c.shape[-1]
    # the mirror [c_0, c_{n-1}, ..., c_1] is c_{-k mod n} without an index array
    mirror = np.concatenate((c[..., :1], c[..., :0:-1]), axis=-1)
    out = np.empty(mirror.shape, dtype=complex)
    np.multiply(0.5, np.add(c.real, mirror.real), out=out.real)
    np.multiply(0.5, np.subtract(c.imag, mirror.imag), out=out.imag)
    upper = n // 2 + 1
    np.negative(out.imag[..., n - upper: 0: -1], out=out.imag[..., upper:])
    return out


def derivative(fld: SpectralField) -> SpectralField:
    """Spectral derivative: multiplier i xi, Nyquist zeroed."""
    c = fld.coefficients * (1j * fld.grid.wavenumbers())
    c[fld.grid.nyquist_index()] = 0.0
    return fld.with_coefficients(c)


# ---------------------------------------------------------------------------
# The periodized principal-value kernel and its alternating-offset rule.

def pv_kernel_periodic(beta, L: float):
    """Periodization of pv 1/x over period L: (pi/L) cot(pi beta / L)."""
    return (np.pi / L) / np.tan(np.pi * np.asarray(beta) / L)


def odd_offsets(grid: GridSpec) -> np.ndarray:
    """Integer offsets for the alternating-point principal-value rule.

    Odd multiples of the grid spacing covering one period, symmetric about
    zero since n is a multiple of 4.  With the periodized pv kernel this rule
    reproduces the Hilbert multiplier -i pi sgn(k) exactly for |k| < n/2.
    """
    n = grid.n_points
    m = np.arange(-n // 2 + 1, n // 2 + 1)
    return m[m % 2 != 0]


def odd_offset_rows(w: np.ndarray) -> np.ndarray:
    """Read-only n/2 x n circulant view R[j, a] = w[(a - m_j) % n], m_j from odd_offsets.

    m_j = 2j - n/2 + 1, so row j is w shifted by m_j: a contiguous window over
    three periods of w that starts at 3n/2 - 1 - 2j, two elements before the
    start of row j - 1.
    """
    n = len(w)
    w3 = np.concatenate((w, w, w))
    size = w3.itemsize
    rows = np.ndarray((n // 2, n), w3.dtype, w3, (3 * n // 2 - 1) * size, (-2 * size, size))
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# The 2/3 rule for products formed in sample space, and the half spectrum.

def dealias_mask(grid: GridSpec) -> np.ndarray:
    return grid._modes[2]


def hermitian_extension(h: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Full n coefficients, in FFT order, of the half spectrum k = 0..n/2 on the last axis."""
    half = grid.n_points // 2
    c = np.empty(h.shape[:-1] + (2 * half,), dtype=complex)
    c[..., : half + 1] = h
    np.conj(h[..., half - 1: 0: -1], out=c[..., half + 1:])
    return c

