"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

import muskatjump as mj
from muskatjump import FluidConfig, GridSpec, inverse
from muskatjump import oracle
from muskatjump.cli import EXIT_OK, _measure_mode_rate, main
from muskatjump.evolution import (InterfaceField, Schedule, SolverOptions, rhs, run)
from muskatjump.norms import decay_fit
from muskatjump.spectral import SpectralField, hermitian_symmetrize
from muskatjump.vorticity import solve_vorticity, vorticity_bound_check

from helpers import (REF_CFG, decay_packet, gaussian_bump, random_admissible_interface,
                     theta_reference_scan)

REPORT = []


def _report(idx, name, ok, detail):
    line = f"ACCEPTANCE {idx:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    REPORT.append(line)
    print("\n" + line)
    assert ok, line


def test_criterion_01_linear_dispersion():
    t0 = time.time()
    g = GridSpec(256, 2 * np.pi)
    worst = 0.0
    for k in range(1, 9):
        exact = mj.linear_symbol(float(k), REF_CFG)
        measured = _measure_mode_rate(k, g, REF_CFG, SolverOptions())
        worst = max(worst, abs(measured - exact) / exact)
    elapsed = time.time() - t0
    _report(1, "linear dispersion", worst < 0.01 and elapsed < 60.0,
            f"worst rel err {worst:.2e} over k=1..8, {elapsed:.1f}s")


def test_criterion_02_classical_limit():
    cfg = FluidConfig(0.0, 0.2, 1.0, 1.0)
    g = GridSpec(256, 2 * np.pi)
    worst = 0.0
    for k in range(1, 9):
        exact = cfg.a_rho * k
        measured = _measure_mode_rate(k, g, cfg, SolverOptions())
        worst = max(worst, abs(measured - exact) / exact)
    _report(2, "uniform-permeability limit", worst < 0.01,
            f"worst rel err {worst:.2e} against A_rho |xi|")


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    L = 12 * np.pi
    g = GridSpec(256, L)
    f = gaussian_bump(g, 0.01, 1.5)
    F = f.samples()
    pair = solve_vorticity(f, REF_CFG, tol=1e-12)
    w1, w2 = inverse(pair.omega1), inverse(pair.omega2)

    w2_oracle = oracle.quad_omega2(F, w1, REF_CFG, L)
    rel_w2 = np.max(np.abs(w2 - w2_oracle)) / np.max(np.abs(w2_oracle))

    br = rhs(f, REF_CFG)
    fast = sum(inverse(p) for p in (br.i1, br.i2, br.i3, br.i4)) / (2 * np.pi)
    rhs_oracle = oracle.quad_rhs(F, w1, w2, REF_CFG, L)
    rel_rhs = np.max(np.abs(fast - rhs_oracle)) / np.max(np.abs(rhs_oracle))

    elapsed = time.time() - t0
    ok = rel_w2 < 1e-6 and rel_rhs < 1e-6 and elapsed < 30.0
    _report(3, "fast paths vs O(N^2) oracle", ok,
            f"omega2 rel {rel_w2:.2e}, rhs rel {rel_rhs:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def decay_run():
    g = GridSpec(512, 400 * np.pi)
    f0 = decay_packet(g)
    cert = mj.certify_datum(f0, REF_CFG)
    assert cert.verdict == "admissible"
    t0 = time.time()
    rec = run(f0, REF_CFG, Schedule(t_end=100.0, dt=0.1, snapshot_every=5),
              SolverOptions(leakage_threshold=1e-3), certificate=cert)
    return rec, cert, time.time() - t0


def test_criterion_04_decay_at_desk_scale(decay_run):
    rec, cert, elapsed = decay_run
    f11 = [(row["t"], row["F11"]) for row in rec.rows]
    monotone = all(b[1] <= a[1] for a, b in zip(f11, f11[1:]))
    beta = decay_fit([(t, v) for t, v in f11 if t >= 1.0])
    ok = monotone and -1.3 <= beta <= -0.85 and elapsed < 600.0
    _report(4, "interface decay to t=100", ok,
            f"monotone={monotone}, exponent {beta:.3f} in [-1.3,-0.85], {elapsed:.0f}s")


def test_criterion_05_budget_inequality(decay_run):
    rec, cert, _ = decay_run
    ok = True
    worst = 0.0
    for s in (0, 1):
        for row in rec.rows:
            lhs, rhs_v = row[f"budget_s{s}_lhs"], row[f"budget_s{s}_rhs"]
            ok = ok and lhs <= rhs_v * (1.0 + 1e-6)
            worst = max(worst, lhs / rhs_v)
    _report(5, "running decay budget (s=0,1)", ok,
            f"worst lhs/rhs = {worst:.9f} with nu = {cert.nu:.4f}")


def _analyticity_datum(grid: GridSpec, amplitude: float = 4e-3,
                       rate: float = 1.0) -> InterfaceField:
    """Bump with an exactly exponential coefficient envelope and zero mean."""
    xi = grid.wavenumbers()
    axi = np.abs(xi)
    env = amplitude * (np.exp(-rate * axi) - np.exp(-2.0 * rate * axi))
    env[0] = 0.0
    env[grid.nyquist_index()] = 0.0
    c = hermitian_symmetrize(env * np.exp(-1j * xi * grid.domain_length / 2.0))
    return InterfaceField(SpectralField(grid, c, 0.0), 0.0)


def test_criterion_06_instant_analyticity():
    g = GridSpec(256, 12 * np.pi)
    f0 = _analyticity_datum(g)
    cert = mj.certify_datum(f0, REF_CFG)
    assert cert.verdict == "admissible"
    rec = run(f0, REF_CFG, Schedule(t_end=1.0, dt=0.02, snapshot_every=5),
              SolverOptions(leakage_threshold=1e-3), certificate=cert)
    radii = [row["strip_radius"] for row in rec.rows]
    available = [not math.isnan(r) for r in radii]
    monotone = all(radii[i + 1] >= radii[i] - 1e-9
                   for i in range(len(radii) - 1) if available[i] and available[i + 1])
    above = all(r > 0.8 * cert.nu * row["t"]
                for r, row in zip(radii, rec.rows) if not math.isnan(r))
    ok = monotone and above and any(available)
    _report(6, "instant analyticity", ok,
            f"radius {radii[0]:.3f} -> {radii[-1]:.3f} over [0,1], "
            f"floor 0.8*nu*t with nu={cert.nu:.3f}")


def test_criterion_07_constant_ledger_limits():
    t0 = time.time()
    eps = 1e-12
    ok = True
    detail = []
    for ak in (-0.8, -0.4, 0.0, 0.4, 0.8):
        for am in (-0.8, -0.4, 0.0, 0.4, 0.8):
            for h2 in (0.5, 1.0, 2.0):
                cfg = FluidConfig(ak, am, 1.0, h2)
                led0 = mj.ledger(0.0, 0.0, cfg)
                ok = ok and led0.c0 == 1.0 and led0.c2 == 0.0
                led = mj.ledger(eps, eps, cfg, f_half=eps)
                lim = 1.0 / (1.0 - abs(ak * am))
                ok = ok and abs(led.c1 - lim) < 1e-8
                ok = ok and abs(led.c12 - lim) < 1e-8
                ok = ok and led.sigma0 < 1e-8 and led.sigma1 < 1e-8
                s2 = led.sigma2
                ok = ok and s2 is not None and s2 < 1e-8
                ok = ok and abs(mj.theta(cfg) - theta_reference_scan(cfg)) < 1e-9
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(7, "constant ledger limits on 5x5x3 lattice", ok,
            f"all limits within tolerance, {elapsed:.1f}s")


def test_criterion_08_vorticity_bounds_randomized():
    rng = np.random.default_rng(2024)
    g = GridSpec(128, 2 * np.pi)
    k0, k1 = mj.thresholds(REF_CFG)
    passed = 0
    total = 100
    for _ in range(total):
        f = random_admissible_interface(g, rng, REF_CFG, k0, k1)
        pair = solve_vorticity(f, REF_CFG)
        checks = vorticity_bound_check(pair, f, REF_CFG)
        passed += all(c.passed for c in checks)
    _report(8, "vorticity inequalities on random admissible data",
            passed == total, f"{passed}/{total} data sets passed all four bounds")


def _tapered_transform(kernel, xi, half_width=2000.0, n=2 ** 18, power=4):
    x = (np.arange(n) - n / 2) * (2 * half_width / n)
    w = np.ones_like(x)
    edge = np.abs(x) > 0.7 * half_width
    u = np.clip((np.abs(x[edge]) - 0.7 * half_width) / (0.3 * half_width), 0, 1)
    w[edge] = (1 - (3 * u ** 2 - 2 * u ** 3)) ** power
    return np.sum(kernel(x) * w * np.exp(-1j * xi * x)) * (2 * half_width / n)


def test_criterion_09_kernel_transform_identities():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for xi in (0.5, 1.0, 2.0, 4.0, -1.0, -4.0):
            num = _tapered_transform(lambda x: a / (x ** 2 + a ** 2), xi)
            want = mj.poisson_hat(a, xi)
            worst = max(worst, abs(num - want) / abs(want))
            num = _tapered_transform(lambda x: x / (x ** 2 + a ** 2), xi)
            want = mj.conj_poisson_hat(a, xi)
            worst = max(worst, abs(num - want) / abs(want))
    _report(9, "kernel transforms vs quadrature", worst < 1e-4,
            f"worst rel discrepancy {worst:.2e} over a in {{0.5,1,2}}, |xi| <= 4")


def test_criterion_10_determinism_and_restart(tmp_path):
    cfg_json = {
        "version": 1,
        "fluid": {"a_kappa": 0.5, "a_mu": 0.2, "a_rho": 1.0, "h2": 1.0},
        "grid": {"n_points": 128, "domain_length": 12 * np.pi},
        "initial_data": {"preset": "gaussian_bump", "amplitude": 0.01, "width": 1.5},
        "schedule": {"t_end": 0.3, "dt": 0.03, "snapshot_every": 5},
        "seed": 0,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg_json))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
        outs.append(out)
    same_csv = (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()
    metas = []
    for out in outs:
        m = json.loads((out / "metadata.json").read_text())
        m.pop("timestamps")
        metas.append(json.dumps(m, sort_keys=True))
    same_meta = metas[0] == metas[1]

    resumed = tmp_path / "resumed"
    mid = outs[0] / "checkpoints" / "ckpt_00000005.json"
    assert main(["run", "--config", str(p), "--output-dir", str(resumed),
                 "--resume", str(mid)]) == EXIT_OK
    last = "ckpt_00000010.json"
    same_restart = (outs[0] / "checkpoints" / last).read_bytes() == \
        (resumed / "checkpoints" / last).read_bytes()
    ok = same_csv and same_meta and same_restart
    _report(10, "determinism and restart", ok,
            f"rerun CSV identical={same_csv}, metadata identical={same_meta}, "
            f"restart checkpoint identical={same_restart}")


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in REPORT:
        print(line)
    print("=" * 72)
