"""Admissibility constants: theta, the C/lambda/sigma ledger, thresholds, certificates.

Every series here is a power series in the size parameters

    a0 = ||f||_{F^{0,1}}   (radius h2, or 2 h2 for the double-depth series)
    a1 = ||f||_{F^{1,1}}   (radius 1)

summed with a rigorous geometric tail bound below 1e-12; outside its radius a
series is marked divergent rather than evaluated.  ``ledger`` evaluates every
constant once; those that also depend on ||f||_{F^{1/2,1}} or ||f||_{F^{3/2,1}}
are None unless those norms are passed to it.
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

if TYPE_CHECKING:
    from .evolution import InterfaceField
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
    SERIES_TAIL_TOL can be certified (divergent or at the radius).  Each term
    is evaluated once: term(n+1) bounds the tail at n and is then summed.
    """
    total = 0.0
    n = start
    t = term_fn(n)
    while n < _SERIES_NMAX:
        cap = cap_fn(n)
        total += t
        n += 1
        t = term_fn(n)
        if cap < 1.0:
            tail = t / (1.0 - cap)
            if tail < SERIES_TAIL_TOL:
                return total, tail
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
    """The admissibility constants at one (a0, a1) point, each evaluated once.

    A constant is None when a series it uses diverges, when a denominator it
    uses is not positive, or when it needs ||f||_{F^{1/2,1}} (f_half) or
    ||f||_{F^{3/2,1}} (f_3half) and that norm was not passed to ``ledger``.
    The constants that need those norms (C7, C8, C10, C12-C14, sigma2) are
    evaluated only where ``divergent`` is empty.

    ``divergent`` lists, in evaluation order, each series that exceeded its
    radius (C0, C2, C2/a0, lambda4, C8; C6, C1 and C3 when a1 >= 1) and C1 or
    C11 when its Neumann-series denominator is not positive.  It is empty
    exactly when C0-C6, C9, C11 and lambda0-lambda7 are all defined.  A
    nonpositive C12 denominator is not listed: C12 is then None, and so are
    C13, C14 and sigma2.
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
    c7: float | None
    c8: float | None
    c9: float | None
    c10: float | None
    c11: float | None
    c12: float | None
    c13: float | None
    c14: float | None
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
    sigma2: float | None
    divergent: tuple[str, ...]
    tail_bounds: dict = field(repr=False)


def ledger(a0: float, a1: float, cfg: "FluidConfig",
           f_half: float | None = None, f_3half: float | None = None) -> ConstantLedger:
    """Evaluate every admissibility constant at (a0, a1), in dependency order.

    ``f_half`` and ``f_3half`` are ||f||_{F^{1/2,1}} and ||f||_{F^{3/2,1}}.
    ``divergent`` lists the series and Neumann denominators that failed, but
    never C12; ConstantLedger says when each constant is None.
    """
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
    c8_base = record("C8", _c8_series(a0, h2))
    c5 = abs(ak * am) / (1.0 - ak * am)

    c1 = c3 = c4 = c6 = c7 = c8 = c9 = c10 = c11 = c12 = c13 = c14 = None
    lam0 = lam1 = lam2 = lam3 = lam5 = lam6 = lam7 = None
    sig0 = sig1 = sig2 = None
    if a1 >= 1.0:
        divergent += ["C6", "C1", "C3"]
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
        lam6 = 2.0 * (1.0 + a1 ** 2) / (1.0 - a1 ** 2) ** 2 + c0
        # C0 can converge where C2, with its extra factor n, does not
        if c2 is not None:
            lam5 = 2.0 * c6 + a1 * (c0 + c2)
            lam7 = (c0 - 1.0) + c2
    if c1 is not None:
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
    if c1 is not None and c2 is not None:
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

    # every constant the remaining ones use is defined when nothing diverged
    if not divergent and f_3half is not None:
        c7 = f_3half * (1.0 + a1 ** 2) / (1.0 - a1 ** 2) ** 2
    if not divergent and f_half is not None:
        c8 = f_half * c8_base
        den12 = 1.0 - abs(am) * (c6 + abs(ak) * (c0 + c8) * c9)
        c12 = 1.0 / den12 if den12 > 0.0 else None
        if f_3half is not None:
            c10 = dc2 * f_half * (1.0 + a1) + c0 * f_3half
    # C13 does not use C12, but certificates have always reported it only
    # together with C12 (null whenever C12 is), and their JSON is kept
    if c12 is not None and c10 is not None:
        c13 = abs(am) * c11 * (c7 + abs(ak) * (c0 + c8) * c10)
        c14 = c9 * c12 * c13 + c10 * c11
    if c12 is not None:
        sig2 = (
            c12 * (c6 + c0 + c2) * a1
            + abs(1.0 + am) * c12 * (
                2.0 * abs(ak) * lam4
                + c5 * (lam5 + abs(ak) * (lam7 * c9 + lam4))
            )
            + 2.0 * math.pi * abs(ak) * (c0 - 1.0 + c2) * c9 * c12
            + c6 * c12 * a1
            + 2.0 * lam5 * c12
            + 2.0 * abs(ak) * lam7 * c9 * c12
        )

    return ConstantLedger(
        a0=a0, a1=a1, theta=th,
        c0=c0, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8, c9=c9,
        c10=c10, c11=c11, c12=c12, c13=c13, c14=c14,
        lambda0=lam0, lambda1=lam1, lambda2=lam2, lambda3=lam3,
        lambda4=lam4, lambda5=lam5, lambda6=lam6, lambda7=lam7,
        sigma0=sig0, sigma1=sig1, sigma2=sig2,
        divergent=tuple(divergent), tail_bounds=tails,
    )


# ---------------------------------------------------------------------------

def _admissible_tau(tau: float, cfg: "FluidConfig") -> bool:
    # on the diagonal ray (tau h2, tau), F^{1/2,1} <= sqrt(a0 a1) = tau sqrt(h2)
    led = ledger(tau * cfg.h2, tau, cfg, f_half=tau * math.sqrt(cfg.h2))
    sig = (led.sigma0, led.sigma1, led.sigma2)
    return None not in sig and all(led.theta - s > 0.0 for s in sig)


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
    # where it diverges, sigma2 is None.
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
# the ledger constants a certificate reports
_CONSTANT_NAMES = (tuple(f"c{i}" for i in range(15))
                   + tuple(f"lambda{i}" for i in range(8)))


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
            "constants": {name: getattr(self.ledger, name) for name in _CONSTANT_NAMES},
            "sigma": {str(k): v for k, v in self.sigma.items()},
            "margins": {str(k): v for k, v in self.margins.items()},
            "nu": self.nu,
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "divergent_series": list(self.ledger.divergent),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def certify_datum(f0: "InterfaceField", cfg: "FluidConfig") -> Certificate:
    """Evaluate the medium-size admissibility certificate for an initial datum.

    The analyticity weight policy is nu = min(margin_0, margin_1) / 2.
    """
    fld = f0.f
    a0 = fourier_norm(fld, NormSpec(0.0))
    a1 = fourier_norm(fld, NormSpec(1.0))
    f_half = fourier_norm(fld, NormSpec(0.5))
    f_3half = fourier_norm(fld, NormSpec(1.5))
    th = theta(cfg)
    k0, k1 = thresholds(cfg)
    led = ledger(a0, a1, cfg, f_half, f_3half)
    eps = 1e-3 * cfg.a_rho * th

    sigma = {0: led.sigma0, 1: led.sigma1, 2: led.sigma2}
    margins = {s: None if v is None else cfg.a_rho * (th - v) for s, v in sigma.items()}
    nu = None if None in (margins[0], margins[1]) else 0.5 * min(margins[0], margins[1])

    # sigma2 is None wherever the ledger diverges
    if sigma[2] is None:
        verdict = "out-of-ledger"
    elif (a0 < k0 and a1 < k1
          and all(m > 0.0 for m in margins.values())
          and nu < min(margins.values())):
        verdict = "admissible"
    else:
        verdict = "inadmissible"

    return Certificate(
        cfg=cfg.to_dict(), a0=a0, a1=a1, f_half=f_half, f_3half=f_3half,
        theta=th, k0=k0, k1=k1, sigma=sigma, margins=margins, nu=nu,
        epsilon=eps, verdict=verdict, ledger=led,
    )


def l2_growth_rates(cert: Certificate) -> tuple[float, float, float] | None:
    """Qualitative Gronwall-rate ingredients (c, c_sq, c_lin) for the L2_nu monitor.

    Assembled from the ledger by Young's inequality with the certificate's
    epsilon: the weighted L2 balance has cross terms bounded by

        d/dt ||f||^2 <= [c + c_sq F32(t)^2 + c_lin F32(t)] ||f||^2

    once the dissipation margin absorbs the gradient terms.  The paper-side
    object is only existential; this is our explicit reconstruction, used as
    a monitored upper bound, never as a pass/fail acceptance gate.  None
    where C14 is undefined.
    """
    led = cert.ledger
    if led.c14 is None:
        return None
    ak, am, arho = cert.cfg["a_kappa"], cert.cfg["a_mu"], cert.cfg["a_rho"]
    a1, c12, c13, c14 = cert.a1, led.c12, led.c13, led.c14
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
