import dataclasses
import json
import math
import re
import sys
import threading
import warnings
from decimal import Decimal, getcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskatjump import FluidConfig, GridSpec, certify, certify_datum, forward, ledger, theta, thresholds
from muskatjump.errors import RegimeError
from muskatjump.evolution import InterfaceField, Schedule, run

from helpers import REF_CFG, gaussian_bump, theta_reference_scan

LATTICE_AK = [-0.8, -0.4, 0.0, 0.4, 0.8]
LATTICE_AM = [-0.8, -0.4, 0.0, 0.4, 0.8]
LATTICE_H2 = [0.5, 1.0, 2.0]


@pytest.mark.parametrize("field", ["a_kappa", "a_mu", "a_rho", "h2"])
def test_fluid_hash_covers_every_field(field):
    # the config_hash of metadata.json, and the binding of a checkpoint
    # written outside a run: fluids that differ in one field hash apart
    base = FluidConfig(0.5, 0.2, 1.0, 1.0)
    other = dataclasses.replace(base, **{field: getattr(base, field) + 0.25})
    assert other.hash() != base.hash()


def test_theta_no_permeability_jump():
    assert theta(FluidConfig(0.0, 0.3, 1.0, 1.0)) == 1.0


def test_theta_positive_jump_closed_form():
    cfg = FluidConfig(0.5, 0.0, 1.0, 1.0)
    assert abs(theta(cfg) - 0.5) < 1e-15
    assert abs(theta_reference_scan(cfg) - 0.5) < 1e-9


def test_theta_negative_jump_is_one():
    cfg = FluidConfig(-0.5, 0.0, 1.0, 1.0)
    assert theta(cfg) == 1.0
    assert abs(theta_reference_scan(cfg) - 1.0) < 1e-9


def test_ledger_at_origin():
    led = ledger(0.0, 0.0, REF_CFG)
    assert led.c0 == 1.0
    assert led.c2 == 0.0
    assert led.c6 == 0.0
    assert led.sigma0 == 0.0
    assert led.sigma1 == 0.0
    assert abs(led.c1 - 1.0 / (1.0 - abs(0.5 * 0.2))) < 1e-15


def _decimal_c0(x: str, terms: int = 200) -> Decimal:
    getcontext().prec = 60
    total = Decimal(0)
    fact = Decimal(1)
    xd = Decimal(x)
    for n in range(terms):
        if n == 0:
            t = Decimal(1)
        else:
            fact *= n
            t = Decimal(n) ** n * (-Decimal(n)).exp() / fact * xd ** n
        total += t
        if n > 10 and t < Decimal(10) ** -45:
            break
    return total


def test_c0_golden_at_half_radius():
    # frozen from a 60-digit decimal summation of sum n^n e^-n / n! (1/2)^n
    golden = "1.3020171355721027596360419"
    assert abs(_decimal_c0("0.5") - Decimal(golden)) < Decimal("1e-24")
    led = ledger(0.5, 0.0, REF_CFG)
    assert abs(led.c0 - float(golden)) <= 2e-12
    assert led.tail_bounds["C0"] < 1e-12


def test_c0_divergent_outside_radius():
    led = ledger(1.0, 0.0, REF_CFG)  # a0 = h2
    assert "C0" in led.divergent
    assert led.c0 is None and led.sigma0 is None


def test_paper_limits_at_tiny_size():
    eps = 1e-12
    for ak in LATTICE_AK:
        for am in LATTICE_AM:
            cfg = FluidConfig(ak, am, 1.0, 1.0)
            led = ledger(eps, eps, cfg, f_half=eps)
            lim = 1.0 / (1.0 - abs(ak * am))
            assert abs(led.c1 - lim) < 1e-8
            assert abs(led.c3 - 1.0) < 1e-8
            assert abs(led.c4 - 1.0) < 1e-8
            for lam in (led.lambda0, led.lambda1, led.lambda2, led.lambda3):
                assert abs(lam) < 1e-8
            assert abs(led.c12 - lim) < 1e-8


def test_sigma_continuity_shrinking_sequence():
    # monotone decrease to below 1e-6; the sigma slopes near the origin are
    # ~10 per unit size for this config, so the crossing sits at j ~ 24
    h2 = REF_CFG.h2
    prev = None
    for j in range(1, 25):
        a0 = 2.0 ** -j * h2 / 2.0
        a1 = 2.0 ** -j * 0.5
        led = ledger(a0, a1, REF_CFG, f_half=math.sqrt(a0 * a1))
        vals = (led.sigma0, led.sigma1, led.sigma2)
        assert all(v is not None and v >= 0.0 for v in vals)
        if prev is not None:
            assert all(v <= p + 1e-15 for v, p in zip(vals, prev))
        prev = vals
    assert all(v < 1e-6 for v in prev)


def test_theta_range_and_scan_on_lattice():
    for ak in LATTICE_AK:
        for am in LATTICE_AM:
            for h2 in LATTICE_H2 + [1e-3, 10.0, 1e3]:
                cfg = FluidConfig(ak, am, 1.0, h2)
                th = theta(cfg)
                assert 0.0 < th < 2.0
                assert abs(th - theta_reference_scan(cfg)) < 1e-9


def test_certificate_at_large_depth_warns_nothing():
    # a runtime grid scan of theta overflowed exp(2 h2 xi) here
    g = GridSpec(256, 12 * np.pi)
    cfg = FluidConfig(0.5, 0.2, 1.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify_datum(gaussian_bump(g, 0.01, 1.5), cfg)
    assert cert.theta == theta(cfg)


def test_thresholds_postcondition_replay():
    k0, k1 = thresholds(REF_CFG)
    assert k0 > 0 and k1 > 0
    tau = k1
    led = ledger(tau * REF_CFG.h2, tau, REF_CFG, f_half=tau * math.sqrt(REF_CFG.h2))
    th = theta(REF_CFG)
    for s in (led.sigma0, led.sigma1, led.sigma2):
        assert th - s > 0.0


def test_thresholds_no_contrasts():
    k0, k1 = thresholds(FluidConfig(0.0, 0.0, 1.0, 1.0))
    assert k0 > 0 and k1 > 0


def test_thresholds_monotone_in_permeability_contrast():
    for am in (-0.5, -0.25, 0.0, 0.25, 0.5):
        taus = []
        for ak in (0.8, 0.6, 0.4, 0.2, 0.0):
            _, k1 = thresholds(FluidConfig(ak, am, 1.0, 1.0))
            taus.append(k1)
        assert all(taus[i + 1] >= taus[i] - 1e-12 for i in range(len(taus) - 1))


# frozen from the bisection that still probed tau = 1 - 1e-12 first
PINNED_THRESHOLDS = [
    (REF_CFG, "0x1.5fd607728b98cp-5", "0x1.5fd607728b98cp-5"),
    (FluidConfig(0.0, 0.0, 1.0, 1.0), "0x1.085395c722b62p-3", "0x1.085395c722b62p-3"),
    (FluidConfig(0.95, 0.95, 1.0, 0.1), "0x1.105ccd1252258p-15", "0x1.54740056e6aeep-12"),
    (FluidConfig(-0.95, -0.95, 1.0, 5.0), "0x1.39b453c75011cp-6", "0x1.f5ed52d8801c6p-9"),
]


@pytest.mark.parametrize("cfg, k0_hex, k1_hex", PINNED_THRESHOLDS)
def test_thresholds_pinned_bits(cfg, k0_hex, k1_hex, monkeypatch):
    monkeypatch.setattr(certify, "_thresholds_cache", {})
    k0, k1 = thresholds(cfg)
    assert (k0.hex(), k1.hex()) == (k0_hex, k1_hex)


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(0.6, 0.95),
       ak=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       am=st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       h2=st.floats(0.1, 5.0))
def test_no_admissible_tau_above_sigma0_bound(tau, ak, am, h2):
    # sigma0 >= 2 tau^2 / (1 - tau^2) > 1 >= theta for tau >= 0.6, which is
    # why the bisection never probes its upper end
    assert not certify._margin(tau, FluidConfig(ak, am, 1.0, h2)) > 0.0


@settings(max_examples=60, deadline=None)
@given(u=st.floats(0.0, 1.0, exclude_max=True),
       ak=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True),
       am=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True),
       h2=st.floats(0.01, 100.0))
@example(u=0.0, ak=0.0, am=0.0, h2=1.0)
@example(u=0.0, ak=0.998, am=-0.998, h2=0.01)
def test_no_admissible_tau_above_the_bracket_end(u, ak, am, h2):
    # sigma0 >= 2 tau^2 / (1 - tau^2) >= theta from tau_max = sqrt(theta / (2 + theta))
    # on, so thresholds' root solve starts below it without probing it
    cfg = FluidConfig(ak, am, 1.0, h2)
    tau_max = math.sqrt(theta(cfg) / (2.0 + theta(cfg)))
    assert not certify._margin(tau_max + u * (1.0 - tau_max), cfg) > 0.0


# the constants that need neither f_half nor f_3half
_A0_A1_CONSTANTS = ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c9", "c11",
                    *(f"lambda{i}" for i in range(8)))


@settings(max_examples=60, deadline=None)
@given(ak=st.floats(-0.95, 0.95), am=st.floats(-0.95, 0.95), h2=st.floats(0.1, 5.0),
       a0=st.floats(0.0, 1.2), a1=st.floats(0.0, 1.2), frac=st.floats(0.0, 1.0),
       f_3half=st.none() | st.floats(0.0, 10.0))
# C0 converges at a0 = 0.9994 h2, but C2 with its extra factor n does not
@example(ak=0.0, am=0.2, h2=1.0, a0=0.9994, a1=0.1, frac=1.0, f_3half=1.0)
def test_ledger_undefined_constants_are_none(ak, am, h2, a0, a1, frac, f_3half):
    # interpolation: F^{1/2,1} <= sqrt(a0 a1)
    led = ledger(a0, a1, FluidConfig(ak, am, 1.0, h2),
                 f_half=frac * math.sqrt(a0 * a1), f_3half=f_3half)
    for f in dataclasses.fields(led):
        if f.name not in ("divergent", "tail_bounds"):
            value = getattr(led, f.name)
            assert value is None or math.isfinite(value), f.name
    assert (led.divergent == ()) == all(getattr(led, n) is not None for n in _A0_A1_CONSTANTS)
    if f_3half is None:
        assert (led.c7, led.c10, led.c13, led.c14) == (None, None, None, None)


# The series as each term went through a lambda, a log-space power and a
# fresh log-envelope: the reference the table-driven kernels must equal bit
# for bit.

def _series_reference(term_fn, cap_fn, start: int):
    total = 0.0
    n = start
    t = term_fn(n)
    while n < certify._SERIES_NMAX:
        cap = cap_fn(n)
        total += t
        n += 1
        t = term_fn(n)
        if cap < 1.0:
            tail = t / (1.0 - cap)
            if tail < certify.SERIES_TAIL_TOL:
                return total, tail
    return None


def _pow_term(log_env_n: float, a0: float, power: int) -> float:
    if power == 0:
        return math.exp(log_env_n)
    if a0 == 0.0:
        return 0.0
    return math.exp(log_env_n + power * math.log(a0))


def _c0_reference(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series_reference(lambda n: _pow_term(certify._log_env(n, h2), a0, n),
                             lambda n: q, start=0)


def _c2_reference(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series_reference(lambda n: n * _pow_term(certify._log_env(n, h2), a0, n),
                             lambda n: q * (n + 2) / (n + 1), start=1)


def _dc2_reference(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series_reference(lambda n: n * _pow_term(certify._log_env(n, h2), a0, n - 1),
                             lambda n: q * (n + 2) / (n + 1), start=1)


def _lambda4_reference(a0: float, h2: float):
    q = a0 / (2.0 * h2)
    if q >= 1.0:
        return None
    return _series_reference(
        lambda n: 0.5 * (n + 1) * _pow_term(certify._log_env(n, 2.0 * h2), a0, n),
        lambda n: q * (n + 2) / (n + 1), start=1)


def _c8_reference(a0: float, h2: float):
    q = a0 / h2
    if q >= 1.0:
        return None
    return _series_reference(lambda n: n * _pow_term(certify._log_env_half(n, h2), a0, n - 1),
                             lambda n: q * (n + 1.5) / max(n, 1), start=1)


_REFERENCE_SERIES = {"_c0_series": _c0_reference, "_c2_series": _c2_reference,
                     "_dc2_series": _dc2_reference, "_lambda4_series": _lambda4_reference,
                     "_c8_series": _c8_reference}


def _assert_series_match(a0: float, h2: float):
    for name, reference in _REFERENCE_SERIES.items():
        fast, ref = getattr(certify, name)(a0, h2), reference(a0, h2)
        assert (fast is None) == (ref is None), name
        if ref is not None:
            assert fast == ref, name


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(0.0, 0.9995, exclude_max=True), h2=st.floats(0.1, 5.0))
@example(ratio=0.0, h2=1.0)
@example(ratio=1e-300, h2=1.0)
# C2 and C2/a0 run out of terms here; C0, lambda4 and C8 converge
@example(ratio=0.9994, h2=1.0)
def test_series_match_the_reference_loop(ratio, h2):
    _assert_series_match(ratio * h2, h2)


def test_series_evaluates_each_term_once():
    # every log-envelope is computed once per depth, in order, and then read
    # from its table by every later sum at that depth
    seen = []

    def log_env(n, depth):
        seen.append(n)
        return certify._log_env(n, depth)

    args = dict(shift=0, start=1, weight=(1.0, 0), ratio=(2, 1))
    value, tail = certify._series(0.5, 1.0, log_env, **args)
    assert seen == list(range(1, len(seen) + 1))
    assert (value, tail) == _c2_reference(0.5, 1.0)
    seen.clear()
    assert certify._series(0.5, 1.0, log_env, **args) == (value, tail)
    assert seen == []


def test_series_near_the_radius_and_bounded_tables():
    # q -> 1 takes thousands of terms, past the end of the log-envelope table,
    # which stops growing at its cap
    certify._env_table.cache_clear()
    _assert_series_match(0.999 * 1.25, 1.25)
    assert len(certify._env_table(certify._log_env, 1.25)) == certify._ENV_TABLE_LEN
    # certificates at 100 depths make three tables each; the cache keeps 32
    g = GridSpec(64, 2 * np.pi)
    for k in range(100):
        cfg = FluidConfig(0.5, 0.2, 1.0, 0.5 + 0.01 * k)
        certify_datum(InterfaceField(forward(0.5 * cfg.h2 * np.cos(g.nodes()), g)), cfg)
    info = certify._env_table.cache_info()
    assert info.currsize == info.maxsize == 32


def test_envelope_tables_shared_by_threads():
    # threads filling one fresh table at once must all read exact envelopes
    certify._env_table.cache_clear()
    a0, h2 = 0.9 * 3.0, 3.0
    expected = {name: reference(a0, h2) for name, reference in _REFERENCE_SERIES.items()}
    wrong = []

    def work():
        for name, value in expected.items():
            if getattr(certify, name)(a0, h2) != value:
                wrong.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


def _count_ledger_calls(monkeypatch) -> list:
    calls = []
    real = certify.ledger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "ledger", counting)
    return calls


# ledger probes of a cold thresholds(REF_CFG); the bisection alone took 61
REF_CFG_PROBES = 20


def test_thresholds_cached_per_config(monkeypatch):
    monkeypatch.setattr(certify, "_thresholds_cache", {})
    calls = _count_ledger_calls(monkeypatch)
    first = thresholds(REF_CFG)
    # the 1e-6 probe, the root solve and the replayed midpoints near the zero
    assert len(calls) == REF_CFG_PROBES
    calls.clear()
    assert thresholds(REF_CFG) == first
    assert calls == []


def _bisection_reference(cfg):
    # the 60-step bisection that probes every midpoint, with its predicate
    def admissible(tau):
        led = ledger(tau * cfg.h2, tau, cfg, f_half=tau * math.sqrt(cfg.h2))
        sig = (led.sigma0, led.sigma1, led.sigma2)
        return None not in sig and all(led.theta - s > 0.0 for s in sig)

    if theta(cfg) <= 0.0:
        raise RegimeError("theta must be positive")
    lo = 1e-6
    if not admissible(lo):
        raise RegimeError("no admissible tau >= 1e-6: degenerate regime")
    hi = 1.0 - 1e-12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    tau_star = lo * 0.99
    return tau_star * cfg.h2, tau_star


@settings(max_examples=100, deadline=None)
@given(ak=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True),
       am=st.floats(-0.999, 0.999, exclude_min=True, exclude_max=True),
       h2=st.floats(0.01, 100.0))
@example(ak=1.0 - 1e-9, am=0.0, h2=1.0)  # theta ~ 1e-9: degenerate
# a root-solve probe lands within _MARGIN_EPS of the margin's zero, at tau = 0.0586
@example(ak=-0.6970838025498458, am=0.26242917366727003, h2=1.055301156032362)
def test_thresholds_equal_the_full_bisection(ak, am, h2):
    cfg = FluidConfig(ak, am, 1.0, h2)
    try:
        expected = _bisection_reference(cfg)
    except RegimeError:
        expected = RegimeError
    with mock.patch.object(certify, "_thresholds_cache", {}):
        if expected is RegimeError:
            with pytest.raises(RegimeError):
                thresholds(cfg)
        else:
            assert thresholds(cfg) == expected


@pytest.mark.parametrize("fluid, probes", [
    ((-0.6970838025498458, 0.26242917366727003, 1.0, 1.055301156032362), 21),
    ((-0.809774828331853, 0.21099309254536658, 1.0, 0.28156043908367345), 22),
    ((0.9984087092125052, 0.9911485436571587, 1.0, 63.541673552706115), 10)])
def test_root_solve_steps_out_from_a_probe_on_the_zero(monkeypatch, fluid, probes):
    # a probe of the root solve whose |g| is below _MARGIN_EPS sits on the
    # margin's zero; the solve steps out to both sides from it, and the
    # thresholds stay the bisection's
    cfg = FluidConfig(*fluid)
    expected = _bisection_reference(cfg)
    monkeypatch.setattr(certify, "_thresholds_cache", {})
    calls = _count_ledger_calls(monkeypatch)
    margin, bracket, inside, margins = certify._margin, certify._bracket, [], []

    def recording_margin(tau, c):
        g = margin(tau, c)
        if inside:
            margins.append(g)
        return g

    def recording_bracket(*args):
        inside.append(True)
        try:
            return bracket(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(certify, "_margin", recording_margin)
    monkeypatch.setattr(certify, "_bracket", recording_bracket)
    assert thresholds(cfg) == expected
    assert len(calls) == probes
    assert any(abs(g) < certify._MARGIN_EPS for g in margins)


def test_thresholds_independent_of_a_rho(monkeypatch):
    values = []
    for a_rho in (1.0, 2.5):
        monkeypatch.setattr(certify, "_thresholds_cache", {})
        values.append(thresholds(FluidConfig(0.5, 0.2, a_rho, 1.0)))
    assert values[0] == values[1]


def test_degenerate_thresholds_raise_on_every_call(monkeypatch):
    monkeypatch.setattr(certify, "_thresholds_cache", {})
    calls = _count_ledger_calls(monkeypatch)
    cfg = FluidConfig(1.0 - 1e-9, 0.0, 1.0, 1.0)  # theta ~ 1e-9
    for _ in range(2):
        calls.clear()
        with pytest.raises(RegimeError, match="degenerate"):
            thresholds(cfg)
        assert len(calls) == 1
    assert certify._thresholds_cache == {}


def test_certify_zero_datum():
    g = GridSpec(64, 2 * np.pi)
    cert = certify_datum(InterfaceField(forward(np.zeros(64), g)), REF_CFG)
    assert cert.verdict == "admissible"
    th = theta(REF_CFG)
    for s in (0, 1, 2):
        assert abs(cert.margins[s] - REF_CFG.a_rho * th) < 1e-12
    assert cert.nu == 0.5 * REF_CFG.a_rho * th


def test_certify_large_datum_out_of_ledger():
    g = GridSpec(64, 2 * np.pi)
    f0 = InterfaceField(forward(2.0 * REF_CFG.h2 * np.cos(g.nodes()), g))
    cert = certify_datum(f0, REF_CFG)
    assert cert.verdict == "out-of-ledger"
    assert "C0" in cert.ledger.divergent


def test_certify_golden_reference_datum():
    # frozen after first evaluation; guards against silent formula drift
    g = GridSpec(256, 2 * np.pi)
    f0 = InterfaceField(forward(0.01 * np.cos(g.nodes()), g))
    cert = certify_datum(f0, REF_CFG)
    assert cert.verdict == "admissible"
    assert abs(cert.a0 - 0.01) < 1e-14
    golden = {0: 0.5178253763722432, 1: 0.45609052815559703, 2: 0.4344153876886108}
    for s in (0, 1, 2):
        assert abs(cert.margins[s] - golden[s]) < 1e-12
    assert abs(cert.nu - 0.22804526407779852) < 1e-12


def test_certificate_json_round_trip():
    import json

    g = GridSpec(64, 2 * np.pi)
    cert = certify_datum(InterfaceField(forward(0.005 * np.cos(g.nodes()), g)), REF_CFG)
    blob = json.loads(cert.to_json())
    assert blob["schema_version"] == 1
    assert blob["verdict"] == "admissible"
    assert set(blob["margins"]) == {"0", "1", "2"}


def test_thresholds_extreme_contrast_sweep():
    # strong contrasts and shallow/deep permeability lines must never crash
    # and must always return a strictly positive admissible point
    for ak in (-0.95, -0.5, 0.0, 0.5, 0.95):
        for am in (-0.95, 0.0, 0.95):
            for h2 in (0.1, 1.0, 5.0):
                cfg = FluidConfig(ak, am, 1.0, h2)
                k0, k1 = thresholds(cfg)
                assert 0.0 < k0 and 0.0 < k1 < 1.0
                led = ledger(k0, k1, cfg)
                th = theta(cfg)
                assert th - led.sigma0 > 0.0
                assert th - led.sigma1 > 0.0


PINNED_CERTIFICATES = Path(__file__).with_name("pinned_certificates.json")
_HEX_FLOAT = re.compile(r"-?0x[01]\.[0-9a-f]+p[+-][0-9]+")


def _pinned_datum(name: str):
    readme = GridSpec(256, 12 * np.pi)
    if name == "readme":
        return REF_CFG, gaussian_bump(readme, 0.01, 1.5)
    if name == "inadmissible":
        return REF_CFG, gaussian_bump(readme, 0.1, 1.5)
    if name == "c0_divergent":
        g = GridSpec(64, 2 * np.pi)
        return REF_CFG, InterfaceField(forward(2.0 * REF_CFG.h2 * np.cos(g.nodes()), g))
    if name == "c1_denominator":
        return REF_CFG, gaussian_bump(readme, 0.88, 1.5)
    # only the C12 denominator is nonpositive: the rest of the ledger converges
    return FluidConfig(-0.5, -0.3, 1.3, 0.1), gaussian_bump(readme, 0.088, 0.7)


def _unhex(obj):
    if isinstance(obj, dict):
        return {k: _unhex(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unhex(v) for v in obj]
    if isinstance(obj, str) and _HEX_FLOAT.fullmatch(obj):
        return float.fromhex(obj)
    return obj


@pytest.mark.parametrize("name", ["readme", "inadmissible", "c0_divergent",
                                  "c1_denominator", "c12_only"])
def test_certificate_json_pinned(name):
    # every float of the frozen certificates is stored as float.hex, so the
    # comparison is of exact bytes
    expected = _unhex(json.loads(PINNED_CERTIFICATES.read_text())[name])
    cfg, f0 = _pinned_datum(name)
    cert = certify_datum(f0, cfg)
    assert cert.to_json() == json.dumps(expected, sort_keys=True, indent=2)
    if name == "c12_only":
        # a ledger without C14 still runs
        rec = run(f0, cfg, Schedule(0.01, 0.01), certificate=cert)
        assert len(rec.rows) == 2
