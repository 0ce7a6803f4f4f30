"""Admissibility constants: theta, the C/lambda/sigma ledger, thresholds, certificates.

Every series here is a power series in the size parameters

    a0 = ||f||_{F^{0,1}}   (radius h2, or 2 h2 for the double-depth series)
    a1 = ||f||_{F^{1,1}}   (radius 1)

summed with a rigorous geometric tail bound below 1e-12; outside its radius a
series is marked divergent rather than evaluated.  The log-envelope of each
term comes from a bounded per-depth table.  ``ledger`` evaluates every
constant once; those that also depend on ||f||_{F^{1/2,1}} or ||f||_{F^{3/2,1}}
are None unless those norms are passed to it.

``thresholds`` returns the bits of a 60-step bisection for the largest
admissible point on the diagonal ray, but asks the ledger only near the
margin's zero: a root solve brackets the zero, and the bisection is replayed
with the ledger probed only at midpoints inside that bracket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

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


# entries kept per log-envelope table: every term of a series with
# a0 / depth <= 0.95; a term past them has its envelope computed afresh
_ENV_TABLE_LEN = 1024


@lru_cache(maxsize=32)
def _env_table(log_env, depth: float) -> dict:
    """Memo {n: log_env(n, depth)}, filled by _series up to _ENV_TABLE_LEN entries."""
    return {}


def _env_at(env: dict, log_env, n: int, depth: float) -> float:
    # log_env(n, depth), kept in env while it has room; an entry is only ever
    # written whole, so threads that share a table never read a wrong one
    le = log_env(n, depth)
    if len(env) < _ENV_TABLE_LEN:
        env[n] = le
    return le


def _series(a0: float, depth: float, log_env, shift: int, start: int,
            weight: tuple, ratio: tuple | None):
    """Sum over n >= start of w(n) exp(log_env(n, depth)) a0^(n - shift).

    w(n) = weight[0] n + weight[1], exact for the weights used (1, n and
    (n + 1)/2).  With q = a0 / depth, cap(n) = q, or q (n + ratio[0]) /
    (n + ratio[1]) when ``ratio`` is given, bounds sup_{m>=n} term(m+1)/term(m).
    Returns (value, tail_bound) or None when q >= 1 or no geometric tail bound
    below SERIES_TAIL_TOL can be certified (divergent or at the radius).  Each
    term is evaluated once: term(n+1) bounds the tail at n and is then summed.
    A term is exp(log_env + power log a0) in log space, since the factors
    alone can overflow a double even when their product is tame (small h2,
    a0 near the radius); at a0 = 0 only the power-0 term is nonzero.
    """
    q = a0 / depth
    if q >= 1.0:
        return None
    env = _env_table(log_env, depth)
    log_a0 = math.log(a0) if a0 > 0.0 else -math.inf
    w1, w0 = weight
    r0, r1 = ratio or (None, None)
    exp = math.exp
    n = start
    le = env[n] if n in env else _env_at(env, log_env, n, depth)
    # the first power, start - shift, is 0 or 1; 0 * log 0 would be nan
    t = (w1 * n + w0) * (exp(le + (n - shift) * log_a0) if n > shift else exp(le))
    total = 0.0
    cap = q
    while n < _SERIES_NMAX:
        if r0 is not None:
            cap = q * (n + r0) / (n + r1)
        total += t
        n += 1
        try:
            le = env[n]
        except KeyError:
            le = _env_at(env, log_env, n, depth)
        t = (w1 * n + w0) * exp(le + (n - shift) * log_a0)
        if cap < 1.0:
            tail = t / (1.0 - cap)
            if tail < SERIES_TAIL_TOL:
                return total, tail
    return None


def _c0_series(a0: float, h2: float):
    return _series(a0, h2, _log_env, shift=0, start=0, weight=(0, 1.0), ratio=None)


def _c2_series(a0: float, h2: float):
    return _series(a0, h2, _log_env, shift=0, start=1, weight=(1.0, 0), ratio=(2, 1))


def _dc2_series(a0: float, h2: float):
    # sum_{n>=1} n * env(n) * a0^(n-1); finite limit 1/(e h2) at a0 = 0
    return _series(a0, h2, _log_env, shift=1, start=1, weight=(1.0, 0), ratio=(2, 1))


def _lambda4_series(a0: float, h2: float):
    return _series(a0, 2.0 * h2, _log_env, shift=0, start=1, weight=(0.5, 0.5), ratio=(2, 1))


def _c8_series(a0: float, h2: float):
    # sum_{n>=1} n * env_half(n) * a0^(n-1); multiplied by ||f||_{F^{1/2,1}} later
    return _series(a0, h2, _log_env_half, shift=1, start=1, weight=(1.0, 0), ratio=(1.5, 0))


# ---------------------------------------------------------------------------

def theta(cfg: "FluidConfig") -> float:
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

def _margin(tau: float, cfg: "FluidConfig") -> float:
    """min_s (theta - sigma_s) at the diagonal-ray point tau; -inf where a sigma is None."""
    # on the diagonal ray (tau h2, tau), F^{1/2,1} <= sqrt(a0 a1) = tau sqrt(h2)
    led = ledger(tau * cfg.h2, tau, cfg, f_half=tau * math.sqrt(cfg.h2))
    sig = (led.sigma0, led.sigma1, led.sigma2)
    return -math.inf if None in sig else min(led.theta - s for s in sig)


_THRESHOLD_HAIRCUT = 0.99
_BISECTION_STEPS = 60
# a margin g with |g| >= _MARGIN_EPS keeps its sign at every smaller tau
# (g > 0) or larger tau (g < 0); the ledger rounds g far below it
_MARGIN_EPS = 1e-13
# the root solve stops once g(a) - g(b) <= _BRACKET_SPREAD * _MARGIN_EPS
_BRACKET_SPREAD = 6.0
_thresholds_cache: dict = {}


def _bracket(cfg: "FluidConfig", th: float, g_lo: float) -> tuple[float, float]:
    """(a, b) around the zero of g = _margin: g(a) >= eps, g(b) <= -eps or -inf.

    A safeguarded root solve (Brent 1973, ch. 4).  The first probe is the
    zero of the chord from (0, theta), where every sigma is 0, through
    (1e-6, g_lo).  Later ones interpolate g in tau through a, b and the end
    replaced last (inverse quadratic) or through a and b (secant), aimed 2 eps
    toward the end whose |g| is larger so that the probe lands where the
    sign of g is certain.  A probe takes the midpoint in log tau when the
    estimate leaves the bracket or the bracket did not halve in log tau over
    two probes.  A probe with |g| < eps sits on the zero to rounding; from it
    the solve steps out to each side by 2 eps / |g'|, doubling the step until
    the sign is certain or the step passes that end.
    """
    eps = _MARGIN_EPS
    a, ga = 1e-6, g_lo
    # inadmissible (see thresholds), so it is never probed
    b, gb = math.sqrt(th / (2.0 + th)), None
    c, gc = b, gb
    widths = []
    while gb is None or ga - gb > _BRACKET_SPREAD * eps:
        widths.append(math.log(b / a))
        if gb == -math.inf or (len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
            t = math.sqrt(a * b)
        elif gb is None:
            t = a * th / (th - ga)
        else:
            if gc is not None and math.isfinite(gc) and gc not in (ga, gb):
                t = (a * gb * gc / ((ga - gb) * (ga - gc))
                     + b * ga * gc / ((gb - ga) * (gb - gc))
                     + c * ga * gb / ((gc - ga) * (gc - gb)))
            else:
                t = a - ga * (b - a) / (gb - ga)
            t += (2.0 * eps if ga > -gb else -2.0 * eps) * (b - a) / (gb - ga)
        if not a < t < b:
            t = math.sqrt(a * b)
            if not a < t < b:
                break
        g = _margin(t, cfg)
        if g >= eps:
            c, gc, a, ga = a, ga, t, g
        elif g <= -eps:
            c, gc, b, gb = b, gb, t, g
        else:
            step = 2.0 * eps * (t - a) / (ga - g)
            for d in (-step, step):
                while a < t + d < b:
                    g = _margin(t + d, cfg)
                    if g >= eps:
                        a = t + d
                        break
                    if g <= -eps:
                        b = t + d
                        break
                    d *= 2.0
            break
    return a, b


def thresholds(cfg: "FluidConfig") -> tuple[float, float]:
    """Largest diagonal-ray point (k0, k1) = tau (h2, 1) with positive margins.

    The value is that of a bisection for the supremum of admissible tau in
    (1e-6, 1 - 1e-12) over _BISECTION_STEPS midpoints 0.5 (lo + hi), then a 1%
    haircut.  It is computed in two phases:

    - Bracket: ``_bracket`` solves g(tau) = min_s (theta - sigma_s) = 0, a
      None sigma counting as g = -inf, for a with g(a) >= eps and b with
      g(b) <= -eps or -inf (eps = _MARGIN_EPS).  It starts between the
      admissible 1e-6 and tau_max = sqrt(theta / (2 + theta)), where the
      bound on sigma0 below reaches theta.
    - Replay: the bisection's midpoints are replayed exactly.  A midpoint
      <= a is admissible, one >= b is not, and the ledger is probed only at
      those strictly between, each of which narrows (a, b) when its |g| >= eps.

    Why the bits are those of probing every midpoint: every series term and
    every term of the sigma formulas is non-decreasing in tau, and so is each
    series' stopping index, so the computed g is non-increasing in tau up to
    rounding, which stays far below eps.  A sigma is None only past the zero
    of a Neumann denominator, and as that denominator falls to 0 the sigma
    built on it grows past theta; so it is None, or far above theta, at every
    larger tau.  The bisection's predicate g > 0 can therefore differ from the
    sign the bracket implies only where |g| < eps, and the replay probes every
    midpoint there.  The bisection stops early once a midpoint repeats an end,
    since every later step would repeat it too.

    Cached per (A_kappa, A_mu, h2), the only parameters the margins depend
    on; a RegimeError is raised again on every call.
    """
    key = (cfg.a_kappa, cfg.a_mu, cfg.h2)
    if key in _thresholds_cache:
        return _thresholds_cache[key]
    th = theta(cfg)
    if th <= 0.0:
        raise RegimeError("theta must be positive")
    lo = 1e-6
    g_lo = _margin(lo, cfg)
    if not g_lo > 0.0:
        raise RegimeError("no admissible tau >= 1e-6: degenerate regime")
    # No tau >= tau_max is admissible, the bisection's upper end included.
    # Wherever the ledger converges, C1 >= 1 (its denominator is <= 1) and
    # every other term of sigma0 is >= 0 (C0 >= 1, C5 >= 0, lambda1 >= 0), so
    # sigma0 >= 2 C6 a1 = 2 tau^2 / (1 - tau^2), which is >= theta from
    # tau_max on; where the ledger diverges, sigma2 is None.
    a, b = _bracket(cfg, th, g_lo)
    hi = 1.0 - 1e-12
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if a < mid < b:
            g = _margin(mid, cfg)
            if g >= _MARGIN_EPS:
                a = mid
            elif g <= -_MARGIN_EPS:
                b = mid
            admissible = g > 0.0
        else:
            admissible = mid <= a
        if admissible:
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


def config_hash(cfg_dict: dict) -> str:
    # imported here: hashlib loads OpenSSL, which certify, linear and
    # oracle-check never need
    import hashlib

    return hashlib.sha256(json.dumps(cfg_dict, sort_keys=True).encode()).hexdigest()
