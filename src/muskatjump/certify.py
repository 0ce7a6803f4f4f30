"""Admissibility constants: theta, the C/lambda/sigma ledger, thresholds, certificates.

Every series here is a power series in the size parameters

    a0 = ||f||_{F^{0,1}}   (radius h2, or 2 h2 for the double-depth series)
    a1 = ||f||_{F^{1,1}}   (radius 1)

summed with a rigorous geometric tail bound below 1e-12; outside its radius a
series is marked divergent rather than evaluated.  Constants that additionally
depend on ||f||_{F^{1/2,1}} or ||f||_{F^{3/2,1}} are exposed as methods taking
those norms as arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, RegimeError
from .norms import NormSpec, fourier_norm
from .spectral import SpectralField

if TYPE_CHECKING:
    from .vorticity import FluidConfig

SERIES_TAIL_TOL = 1e-12
_SERIES_NMAX = 60000


# ---------------------------------------------------------------------------
# Series kernels.  _log_env(n, depth) = log of sup_xi exp(-depth |xi|) |xi|^n / n!

def _log_env(n: int, depth: float) -> float:
    if n == 0:
        return 0.0
    return n * (math.log(n / depth) - 1.0) - math.lgamma(n + 1)


def _log_env_half(n: int, depth: float) -> float:
    # sup_xi exp(-depth |xi|) |xi|^(n - 1/2) / n!
    p = n - 0.5
    return p * (math.log(p / depth) - 1.0) - math.lgamma(n + 1)


def _series(term_fn, cap_fn, start: int):
    """Sum term_fn(n) for n >= start with cap_fn(n) >= sup_{m>=n} term(m+1)/term(m).

    Returns (value, tail_bound) or None when no geometric tail bound below
    SERIES_TAIL_TOL can be certified (divergent or at the radius).
    """
    total = 0.0
    n = start
    while n < _SERIES_NMAX:
        t = term_fn(n)
        cap = cap_fn(n)
        total += t
        if cap < 1.0:
            tail = term_fn(n + 1) / (1.0 - cap)
            if tail < SERIES_TAIL_TOL:
                return total, tail
        n += 1
    return None


def _pow_term(log_env_n: float, a0: float, power: int) -> float:
    # env * a0^power computed in log space; the factors alone can overflow
    # a double even when their product is tame (small h2, a0 near the radius)
    if power == 0:
        return math.exp(log_env_n)
    if a0 == 0.0:
        return 0.0
    return math.exp(log_env_n + power * math.log(a0))


def _c0_series(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series(lambda n: _pow_term(_log_env(n, h2), a0, n),
                   lambda n: q, start=0)


def _c2_series(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series(lambda n: n * _pow_term(_log_env(n, h2), a0, n),
                   lambda n: q * (n + 2) / (n + 1), start=1)


def _dc2_series(a0: float, h2: float):
    # sum_{n>=1} n * env(n) * a0^(n-1); finite limit 1/(e h2) at a0 = 0
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series(lambda n: n * _pow_term(_log_env(n, h2), a0, n - 1),
                   lambda n: q * (n + 2) / (n + 1), start=1)


def _lambda4_series(a0: float, h2: float):
    q = a0 / (2.0 * h2)
    if q >= 1.0:
        return None
    return _series(lambda n: 0.5 * (n + 1) * _pow_term(_log_env(n, 2.0 * h2), a0, n),
                   lambda n: q * (n + 2) / (n + 1), start=1)


def _c8_series(a0: float, h2: float):
    # sum_{n>=1} n * env_half(n) * a0^(n-1); multiplied by ||f||_{F^{1/2,1}} later
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series(lambda n: n * _pow_term(_log_env_half(n, h2), a0, n - 1),
                   lambda n: q * (n + 1.5) / max(n, 1), start=1)


# ---------------------------------------------------------------------------

def theta_closed_form(cfg: "FluidConfig") -> float:
    """inf over xi of 1 - A_kappa (1 - A_mu) / (exp(2 h2 |xi|) - A_kappa A_mu).

    The bracket is monotone in |xi|: for A_kappa >= 0 the infimum sits at
    xi = 0, otherwise the expression exceeds 1 for all finite xi and the
    infimum is the xi -> infinity limit, 1.
    """
    ak, am = cfg.a_kappa, cfg.a_mu
    if abs(ak * am) >= 1.0:
        raise RegimeError("theta requires |A_kappa A_mu| < 1")
    if ak * (1.0 - am) >= 0.0:
        return 1.0 - ak * (1.0 - am) / (1.0 - ak * am)
    return 1.0


def theta_grid_scan(cfg: "FluidConfig") -> float:
    # the range keeps exp(2 h2 xi_max) >= e^50 so the at-infinity infimum is
    # resolved well below the 1e-9 agreement tolerance
    xi = np.arange(0.0, max(50.0, 25.0 / cfg.h2) + 1e-3, 1e-3)
    vals = 1.0 - cfg.a_kappa * (1.0 - cfg.a_mu) / (np.exp(2.0 * cfg.h2 * xi) - cfg.a_kappa * cfg.a_mu)
    return float(np.min(vals))


_theta_cache: dict = {}


def theta(cfg: "FluidConfig") -> float:
    """Closed-form infimum, cross-checked once per config against a dense grid scan."""
    key = (cfg.a_kappa, cfg.a_mu, cfg.h2)
    if key not in _theta_cache:
        closed = theta_closed_form(cfg)
        scanned = theta_grid_scan(cfg)
        if abs(closed - scanned) > 1e-9:
            raise RegimeError(
                f"theta closed form {closed!r} disagrees with grid scan {scanned!r}"
            )
        _theta_cache[key] = closed
    return _theta_cache[key]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantLedger:
    """Evaluable admissibility constants at one (a0, a1) point.

    Constants depending on the extra norms ||f||_{F^{1/2,1}} (f_half) and
    ||f||_{F^{3/2,1}} (f_3half) are methods.  ``divergent`` names the series
    whose radius was exceeded; every dependent entry is then None.
    """

    a0: float
    a1: float
    theta: float
    c0: float | None
    c1: float | None
    c2: float | None
    c3: float | None
    c4: float | None
    c5: float
    c6: float | None
    c9: float | None
    c11: float | None
    lambda0: float | None
    lambda1: float | None
    lambda2: float | None
    lambda3: float | None
    lambda4: float | None
    lambda5: float | None
    lambda6: float | None
    lambda7: float | None
    sigma0: float | None
    sigma1: float | None
    divergent: tuple[str, ...]
    tail_bounds: dict = field(default_factory=dict, repr=False)
    _cfg: tuple = field(default=(), repr=False)
    _dc2: float | None = field(default=None, repr=False)
    _c8_base: float | None = field(default=None, repr=False)

    # --- constants needing the extra norm arguments -----------------------

    def c7(self, f_3half: float) -> float | None:
        if self.c6 is None:
            return None
        return f_3half * (1.0 + self.a1 ** 2) / (1.0 - self.a1 ** 2) ** 2

    def c8(self, f_half: float) -> float | None:
        if self._c8_base is None:
            return None
        return f_half * self._c8_base

    def c10(self, f_half: float, f_3half: float) -> float | None:
        if self._dc2 is None or self.c0 is None:
            return None
        return self._dc2 * f_half * (1.0 + self.a1) + self.c0 * f_3half

    def c12(self, f_half: float) -> float | None:
        c8 = self.c8(f_half)
        if c8 is None or self.c6 is None or self.c0 is None or self.c9 is None:
            return None
        ak, am = self._cfg[0], self._cfg[1]
        den = 1.0 - abs(am) * (self.c6 + abs(ak) * (self.c0 + c8) * self.c9)
        if den <= 0.0:
            raise RegimeError("C12 denominator is nonpositive")
        return 1.0 / den

    def c13(self, f_half: float, f_3half: float) -> float | None:
        c10 = self.c10(f_half, f_3half)
        c8 = self.c8(f_half)
        c7 = self.c7(f_3half)
        if None in (c10, c8, c7, self.c11, self.c0):
            return None
        ak, am = self._cfg[0], self._cfg[1]
        return abs(am) * self.c11 * (c7 + abs(ak) * (self.c0 + c8) * c10)

    def c14(self, f_half: float, f_3half: float) -> float | None:
        c13 = self.c13(f_half, f_3half)
        c12 = self.c12(f_half)
        c10 = self.c10(f_half, f_3half)
        if None in (c13, c12, c10, self.c9, self.c11):
            return None
        return self.c9 * c12 * c13 + c10 * self.c11

    def sigma2(self, f_half: float) -> float | None:
        c12 = self.c12(f_half)
        need = (c12, self.c0, self.c2, self.c6, self.c9,
                self.lambda4, self.lambda5, self.lambda7)
        if None in need:
            return None
        ak, am = self._cfg[0], self._cfg[1]
        return (
            c12 * (self.c6 + self.c0 + self.c2) * self.a1
            + abs(1.0 + am) * c12 * (
                2.0 * abs(ak) * self.lambda4
                + self.c5 * (self.lambda5 + abs(ak) * (self.lambda7 * self.c9 + self.lambda4))
            )
            + 2.0 * math.pi * abs(ak) * (self.c0 - 1.0 + self.c2) * self.c9 * c12
            + self.c6 * c12 * self.a1
            + 2.0 * self.lambda5 * c12
            + 2.0 * abs(ak) * self.lambda7 * self.c9 * c12
        )


def ledger(a0: float, a1: float, cfg: "FluidConfig") -> ConstantLedger:
    """Evaluate the constant ledger at (a0, a1) for a given fluid configuration."""
    if a0 < 0 or a1 < 0:
        raise DomainError("size parameters a0, a1 must be nonnegative")
    ak, am, h2 = cfg.a_kappa, cfg.a_mu, cfg.h2
    th = theta(cfg)
    divergent: list[str] = []
    tails: dict = {}

    def record(name, result):
        if result is None:
            divergent.append(name)
            return None
        value, tail = result
        tails[name] = tail
        return value

    c0 = record("C0", _c0_series(a0, h2))
    c2 = record("C2", _c2_series(a0, h2))
    dc2 = record("C2/a0", _dc2_series(a0, h2))
    lam4 = record("lambda4", _lambda4_series(a0, h2))
    c8b = record("C8", _c8_series(a0, h2))
    c5 = abs(ak * am) / (1.0 - ak * am)

    c1 = c3 = c4 = c9 = c11 = None
    lam0 = lam1 = lam2 = lam3 = lam5 = lam6 = lam7 = None
    sig0 = sig1 = None
    if a1 >= 1.0:
        divergent += ["C6", "C1", "C3"]
        c6 = None
    else:
        c6 = a1 / (1.0 - a1 ** 2)
    if c6 is not None and c0 is not None:
        # a nonpositive denominator is a divergent Neumann series: recorded,
        # and every constant built on it stays None
        den1 = 1.0 - abs(am) * (2.0 * a1 / (1.0 - a1 ** 2) + abs(ak) * c0 ** 2 * (1.0 + a1))
        c1 = 1.0 / den1 if den1 > 0.0 else None
        c9 = c0 * (1.0 + a1)
        den11 = 1.0 - abs(am) * c6 - abs(ak * am) * c0 * c9
        c11 = 1.0 / den11 if den11 > 0.0 else None
        divergent += [name for name, c in (("C1", c1), ("C11", c11)) if c is None]
        lam1 = 4.0 * c6 + 2.0 * abs(ak) * c0 * (c0 * a1 + (c0 - 1.0))
        lam5 = 2.0 * c6 + a1 * (c0 + c2)
        lam6 = 2.0 * (1.0 + a1 ** 2) / (1.0 - a1 ** 2) ** 2 + c0
        lam7 = (c0 - 1.0) + c2
    if c1 is not None:
        c3 = 1.0 + 2.0 * abs(am) * c1 * (
            a1 * (1.0 + a1 ** 2) / (1.0 - a1 ** 2) ** 2
            + 0.5 * abs(ak) * c0 * ((c0 + 2.0 * c2) * a1 + c2 * (1.0 + a1))
        )
        c4 = c2 + c0 * c3
        lam0 = c0 * (c0 + c2 + c4) * a1
        lam2 = 2.0 * (c0 - 1.0) * c3 + 2.0 * c2
        lam3 = (
            4.0 * a1 * (1.0 + a1 ** 2) / (1.0 - a1 ** 2) ** 2
            + 4.0 * c3 * c6
            + 2.0 * abs(ak) * c0 * (c0 + c2 + c4) * a1
            + 2.0 * abs(ak) * (c0 * c2 + (c0 - 1.0) * c4)
        )
        sig0 = c1 * (
            (c6 + abs(ak) * c0 ** 2) * a1
            + 0.5 * abs(1.0 + am) * (
                2.0 * abs(ak) * (c0 - 1.0)
                + c5 * (2.0 * abs(ak) * (c0 - 1.0) + lam1)
            )
            + 2.0 * math.pi * abs(ak) * c0 * (c0 - 1.0)
            + abs(am) * lam1
            + c6 * a1
        )
        # last sigma1 term is 2 C6^2 / a1 written without the 0/0 at a1 = 0
        sig1 = c1 * (
            2.0 * (1.0 + 0.5 * c3 * (1.0 - a1 ** 2)) * c6 ** 2
            + abs(ak) * lam0
            + 0.5 * abs(1.0 + am) * (abs(ak) * lam2 + c5 * (abs(ak) * lam2 + lam3))
            + 2.0 * math.pi * abs(ak) * (c0 * c2 + (c0 ** 2 - 1.0) * c4)
            + 0.5 * abs(am) * lam3
            + c3 * c6 * a1
            + 2.0 * a1 / (1.0 - a1 ** 2) ** 2
        )

    return ConstantLedger(
        a0=a0, a1=a1, theta=th,
        c0=c0, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c9=c9, c11=c11,
        lambda0=lam0, lambda1=lam1, lambda2=lam2, lambda3=lam3,
        lambda4=lam4, lambda5=lam5, lambda6=lam6, lambda7=lam7,
        sigma0=sig0, sigma1=sig1,
        divergent=tuple(divergent), tail_bounds=tails,
        _cfg=(ak, am, h2), _dc2=dc2, _c8_base=c8b,
    )


# ---------------------------------------------------------------------------

def _sigma_triple(tau: float, cfg: "FluidConfig"):
    """(sigma0, sigma1, sigma2) at the diagonal-ray point (tau h2, tau)."""
    led = ledger(tau * cfg.h2, tau, cfg)
    if led.divergent:
        return None
    f_half = tau * math.sqrt(cfg.h2)  # interpolation: F^{1/2,1} <= sqrt(a0 a1)
    s2 = led.sigma2(f_half)
    if s2 is None:
        return None
    return led.sigma0, led.sigma1, s2


def _admissible_tau(tau: float, cfg: "FluidConfig") -> bool:
    try:
        sig = _sigma_triple(tau, cfg)
    except RegimeError:
        return False
    if sig is None:
        return False
    th = theta(cfg)
    return all(th - s > 0.0 for s in sig)


_THRESHOLD_HAIRCUT = 0.99
_BISECTION_STEPS = 60
_thresholds_cache: dict = {}


def thresholds(cfg: "FluidConfig") -> tuple[float, float]:
    """Largest diagonal-ray point (k0, k1) = tau (h2, 1) with positive margins.

    Bisection for the supremum of admissible tau in (0, 1), then a 1% haircut.
    Cached per (A_kappa, A_mu, h2), the only parameters the margins depend on;
    a RegimeError is raised again on every call.
    """
    key = (cfg.a_kappa, cfg.a_mu, cfg.h2)
    if key in _thresholds_cache:
        return _thresholds_cache[key]
    if theta(cfg) <= 0.0:
        raise RegimeError("theta must be positive")
    lo = 1e-6
    if not _admissible_tau(lo, cfg):
        raise RegimeError("no admissible tau >= 1e-6: degenerate regime")
    # The upper end is never admissible, so it is not probed.  Wherever the
    # ledger converges, C1 >= 1 (its denominator is <= 1) and every other
    # term of sigma0 is >= 0 (C0 >= 1, C5 >= 0, lambda1 >= 0), so
    # sigma0 >= 2 C6 a1 = 2 tau^2 / (1 - tau^2) ~ 1e12 > 1 >= theta there;
    # where it diverges, _sigma_triple returns None.
    hi = 1.0 - 1e-12
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _admissible_tau(mid, cfg):
            lo = mid
        else:
            hi = mid
    tau_star = lo * _THRESHOLD_HAIRCUT
    _thresholds_cache[key] = (tau_star * cfg.h2, tau_star)
    return _thresholds_cache[key]


# ---------------------------------------------------------------------------

CERTIFICATE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Certificate:
    """Admissibility record for one initial datum under one configuration."""

    cfg: dict
    a0: float
    a1: float
    f_half: float
    f_3half: float
    theta: float
    k0: float
    k1: float
    sigma: dict
    margins: dict
    nu: float | None
    epsilon: float
    verdict: str
    ledger: ConstantLedger

    def constants(self) -> dict:
        """Full evaluable constant table at the datum (None where divergent)."""
        led = self.ledger
        out = {"c0": led.c0, "c1": led.c1, "c2": led.c2, "c3": led.c3, "c4": led.c4,
               "c5": led.c5, "c6": led.c6, "c9": led.c9, "c11": led.c11}
        for name in ("lambda0", "lambda1", "lambda2", "lambda3",
                     "lambda4", "lambda5", "lambda6", "lambda7"):
            out[name] = getattr(led, name)
        if not led.divergent:
            out["c7"] = led.c7(self.f_3half)
            out["c8"] = led.c8(self.f_half)
            out["c10"] = led.c10(self.f_half, self.f_3half)
            try:
                out["c12"] = led.c12(self.f_half)
                out["c13"] = led.c13(self.f_half, self.f_3half)
                out["c14"] = led.c14(self.f_half, self.f_3half)
            except RegimeError:
                out["c12"] = out["c13"] = out["c14"] = None
        else:
            out.update({k: None for k in ("c7", "c8", "c10", "c12", "c13", "c14")})
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "config": self.cfg,
            "a0": self.a0,
            "a1": self.a1,
            "f_half": self.f_half,
            "f_3half": self.f_3half,
            "theta": self.theta,
            "k0": self.k0,
            "k1": self.k1,
            "constants": self.constants(),
            "sigma": {str(k): v for k, v in self.sigma.items()},
            "margins": {str(k): v for k, v in self.margins.items()},
            "nu": self.nu,
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "divergent_series": list(self.ledger.divergent),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def certify_datum(f0, cfg: "FluidConfig") -> Certificate:
    """Evaluate the medium-size admissibility certificate for an initial datum.

    Accepts an interface snapshot (anything exposing ``.f`` as a SpectralField)
    or a bare SpectralField.  The analyticity weight policy is
    nu = min(margin_0, margin_1) / 2.
    """
    fld: SpectralField = getattr(f0, "f", f0)
    if not fld.is_real_symmetric(1e-10):
        raise DomainError("initial datum must be real-symmetric")
    a0 = fourier_norm(fld, NormSpec(0.0))
    a1 = fourier_norm(fld, NormSpec(1.0))
    f_half = fourier_norm(fld, NormSpec(0.5))
    f_3half = fourier_norm(fld, NormSpec(1.5))
    th = theta(cfg)
    k0, k1 = thresholds(cfg)
    led = ledger(a0, a1, cfg)
    eps = 1e-3 * cfg.a_rho * th

    sigma = {0: led.sigma0, 1: led.sigma1, 2: None}
    margins = {0: None, 1: None, 2: None}
    nu = None
    if led.sigma0 is not None and led.sigma1 is not None:
        try:
            sigma[2] = led.sigma2(f_half)
        except RegimeError:
            sigma[2] = None
        margins[0] = cfg.a_rho * (th - led.sigma0)
        margins[1] = cfg.a_rho * (th - led.sigma1)
        if sigma[2] is not None:
            margins[2] = cfg.a_rho * (th - sigma[2])
        nu = 0.5 * min(margins[0], margins[1])

    if led.divergent or sigma[2] is None:
        verdict = "out-of-ledger"
    elif (a0 < k0 and a1 < k1
          and all(m is not None and m > 0.0 for m in margins.values())
          and nu < min(margins.values())):
        verdict = "admissible"
    else:
        verdict = "inadmissible"

    return Certificate(
        cfg=cfg.to_dict(), a0=a0, a1=a1, f_half=f_half, f_3half=f_3half,
        theta=th, k0=k0, k1=k1, sigma=sigma, margins=margins, nu=nu,
        epsilon=eps, verdict=verdict, ledger=led,
    )


def l2_growth_rates(cert: Certificate) -> tuple[float, float, float]:
    """Qualitative Gronwall-rate ingredients (c, c_sq, c_lin) for the L2_nu monitor.

    Assembled from the ledger by Young's inequality with the certificate's
    epsilon: the weighted L2 balance has cross terms bounded by

        d/dt ||f||^2 <= [c + c_sq F32(t)^2 + c_lin F32(t)] ||f||^2

    once the dissipation margin absorbs the gradient terms.  The paper-side
    object is only existential; this is our explicit reconstruction, used as
    a monitored upper bound, never as a pass/fail acceptance gate.
    """
    led = cert.ledger
    if led.divergent:
        raise RegimeError("ledger divergent; no growth rates available")
    ak, am, arho = cert.cfg["a_kappa"], cert.cfg["a_mu"], cert.cfg["a_rho"]
    a1, f_half, f_3half = cert.a1, cert.f_half, cert.f_3half
    c12 = led.c12(f_half)
    c13 = led.c13(f_half, f_3half)
    c14 = led.c14(f_half, f_3half)
    d2 = 2.0 * a1 / (1.0 - a1 ** 2) ** 2
    e2 = led.c6 * a1
    opm = abs(1.0 + am)
    c_o1x = e2 + opm * (abs(ak) * led.lambda4 * (1.0 + 0.5 * led.c5)
                        + 0.5 * led.c5 * led.lambda5) + 0.5 * led.lambda5
    c_o1fy = d2 + 0.5 * (opm * led.c5 + 1.0) * led.lambda6
    c_o2x = (0.5 * (led.c0 + led.c2) * a1
             + (0.5 * opm * led.c5 + math.pi + 0.5) * led.lambda7)
    c_o2fy = 0.5 * led.c0
    p_xy = 2.0 * arho * (c12 * c13 * c_o1x + abs(ak) * c14 * c_o2x)
    p_fxy = 2.0 * arho * (c12 * c_o1fy + abs(ak) * led.c9 * c12 * c_o2fy)
    p_fyy = 2.0 * arho * (c12 * c13 * c_o1fy + abs(ak) * c14 * c_o2fy)
    eps = cert.epsilon
    return p_xy ** 2 / eps, p_fxy ** 2 / eps, 2.0 * p_fyy


def config_hash(cfg_dict: dict) -> str:
    return hashlib.sha256(json.dumps(cfg_dict, sort_keys=True).encode()).hexdigest()
