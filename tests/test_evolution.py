import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from muskatjump import (FluidConfig, GridSpec, SpectralField, evolution, inverse, linear_symbol,
                        oracle)
from muskatjump.certify import thresholds
from muskatjump.errors import BlowUpError, ConfigurationError, StepSizeError
from muskatjump.evolution import (InterfaceField, MonitorState, Schedule, SolverOptions,
                                  checkpoint_payload, leakage, load_checkpoint, rhs, run,
                                  save_checkpoint, step)
from muskatjump.vorticity import solve_vorticity

from muskatjump.spectral import hermitian_symmetrize

from helpers import REF_CFG, decay_packet, gaussian_bump, random_admissible_interface

L12 = 12 * np.pi


def test_linear_symbol_no_jump_is_classical():
    cfg = FluidConfig(0.0, 0.2, 1.5, 1.0)
    xi = np.linspace(-8, 8, 33)
    assert np.max(np.abs(linear_symbol(xi, cfg) - 1.5 * np.abs(xi))) < 1e-14


def test_linear_symbol_reference_value():
    # closed form at xi = 1 for the reference contrasts, checked in 40-digit arithmetic
    mp.mp.dps = 40
    want = mp.mpf(1) * (1 - mp.mpf("0.5") * (1 - mp.mpf("0.2"))
                        / (mp.e ** 2 - mp.mpf("0.5") * mp.mpf("0.2")))
    got = linear_symbol(1.0, REF_CFG)
    assert abs(got - float(want)) < 1e-14
    assert abs(got - 0.9451232101151365) < 1e-13


def test_linear_symbol_vanishes_at_zero():
    for cfg in (REF_CFG, FluidConfig(-0.7, 0.6, 2.0, 0.5)):
        assert linear_symbol(0.0, cfg) == 0.0


def test_rhs_flat_equilibrium():
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(np.zeros(128), g)
    br = rhs(f, REF_CFG)
    total = (br.i1.coefficients + br.i2.coefficients + br.i3.coefficients
             + br.i4.coefficients)
    assert np.max(np.abs(total)) < 1e-14
    assert np.max(np.abs(br.nonlinear_part.coefficients)) < 1e-14


def test_rhs_no_forcing_without_density_jump():
    # A_rho > 0 is enforced; emulate the no-forcing limit with a tiny contrast
    cfg = FluidConfig(0.5, 0.2, 1e-12, 1.0)
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    br = rhs(f, cfg)
    total = (br.i1.coefficients + br.i2.coefficients + br.i3.coefficients
             + br.i4.coefficients)
    assert np.max(np.abs(total)) < 1e-12


def test_rhs_linearizes_to_symbol():
    g = GridSpec(256, 2 * np.pi)
    eps, k = 1e-6, 2
    f = InterfaceField.from_samples(eps * np.cos(k * g.nodes()), g)
    br = rhs(f, REF_CFG)
    total = br.linear_part.coefficients + br.nonlinear_part.coefficients
    want = -linear_symbol(float(k), REF_CFG) * f.f.coefficients[k]
    assert abs(total[k] - want) / abs(want) < 1e-4


def test_rhs_identity_between_parts():
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    br = rhs(f, REF_CFG)
    total = (br.i1.coefficients + br.i2.coefficients + br.i3.coefficients
             + br.i4.coefficients) / (2 * np.pi)
    split = br.linear_part.coefficients + br.nonlinear_part.coefficients
    assert np.max(np.abs(total - split)) < 1e-13


def test_rhs_diagnostics_present_when_requested():
    from muskatjump.evolution import _nonlinear_diagnostics

    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.02, 1.5)
    br = rhs(f, REF_CFG)
    sizes = _nonlinear_diagnostics(f, REF_CFG, solve_vorticity(f, REF_CFG), br.i1, br.i3)
    assert set(sizes) == {"N0", "N1", "N2", "N3", "N4", "N(omega1)", "N(omega2)"}
    assert all(np.isfinite(v) for v in sizes.values())


def test_rhs_parts_are_the_four_integrals():
    # i1..i4 hold I1..I4 one by one (not only their sum), each against the
    # direct quadrature of the oracle
    g = GridSpec(256, L12)
    f = gaussian_bump(g, 0.3, 1.5)
    pair = solve_vorticity(f, REF_CFG)
    br = rhs(f, REF_CFG)
    F, w1, w2 = f.samples(), inverse(pair.omega1), inverse(pair.omega2)
    parts = (br.i1, br.i2, br.i3, br.i4)
    for which, (part, w) in enumerate(zip(parts, (w1, w1, w2, w2)), start=1):
        ref = oracle.quad_I(F, w, REF_CFG, which, L12)
        assert np.max(np.abs(inverse(part) - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("amplitude", [0.95, 1.05])
def test_rhs_beyond_series_radius(amplitude):
    # README grid with ||f||_F01 >= 0.9 h2 (and >= h2): the kernel backend is
    # quadrature, and the rhs and a step go through
    g = GridSpec(256, L12)
    f = gaussian_bump(g, amplitude, 1.5)
    pair = solve_vorticity(f, REF_CFG)
    br = rhs(f, REF_CFG)
    fast = sum(inverse(p) for p in (br.i1, br.i2, br.i3, br.i4)) / (2 * np.pi)
    ref = oracle.quad_rhs(f.samples(), inverse(pair.omega1), inverse(pair.omega2),
                          REF_CFG, L12)
    assert np.max(np.abs(fast - ref)) / np.max(np.abs(ref)) <= 1e-6
    out = step(f, 0.02, REF_CFG)
    assert np.all(np.isfinite(out.f.coefficients))


def test_step_flat_stays_flat():
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(np.zeros(128), g)
    out = step(f, 0.1, REF_CFG)
    assert np.max(np.abs(out.f.coefficients)) < 1e-15


def test_step_pure_linear_decay_is_exact(monkeypatch):
    import muskatjump.evolution as evo

    g = GridSpec(128, 2 * np.pi)
    k, dt = 3, 0.05
    f = InterfaceField.from_samples(1e-3 * np.cos(k * g.nodes()), g)
    monkeypatch.setattr(evo, "nonlinear_tendency",
                        lambda state, cfg, opts, carry=None: np.zeros(128, complex))
    out = evo.step(f, dt, REF_CFG)
    ratio = out.f.coefficients[k] / f.f.coefficients[k]
    want = np.exp(-linear_symbol(float(k), REF_CFG) * dt)
    assert abs(ratio - want) < 1e-12


def test_step_rejects_bad_dt():
    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(np.zeros(128), g)
    with pytest.raises(StepSizeError):
        step(f, -0.1, REF_CFG)


def test_step_convergence_second_order():
    # self-convergence: halving dt reduces the terminal error by ~4x
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.03, 1.5)
    t_end = 0.4

    def terminal(dt):
        state = f0
        for _ in range(int(round(t_end / dt))):
            state = step(state, dt, REF_CFG)
        return state.f.coefficients

    ref = terminal(0.0125)
    e1 = np.max(np.abs(terminal(0.1) - ref))
    e2 = np.max(np.abs(terminal(0.05) - ref))
    assert 3.4 < e1 / e2 < 4.6


def test_even_symmetry_preserved():
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.03, 1.5)
    state = f0
    for _ in range(10):
        state = step(state, 0.05, REF_CFG)
    F = state.samples()
    odd_part = 0.5 * (F - np.roll(F[::-1], 1))
    assert np.max(np.abs(odd_part)) < 1e-10


def test_run_zero_datum_all_zero():
    g = GridSpec(128, 2 * np.pi)
    f0 = InterfaceField.from_samples(np.zeros(128), g)
    rec = run(f0, REF_CFG, Schedule(t_end=0.2, dt=0.05, snapshot_every=2))
    assert all(row["F01"] == 0.0 for row in rec.rows)
    assert not rec.budget_violated


def test_run_budget_and_monotone_norms():
    g = GridSpec(256, L12)
    f0 = gaussian_bump(g, 0.01, 1.5)
    rec = run(f0, REF_CFG, Schedule(t_end=1.0, dt=0.02, snapshot_every=10))
    assert not rec.budget_violated
    f11 = [row["F11"] for row in rec.rows]
    assert all(b <= a for a, b in zip(f11, f11[1:]))
    for s in (0, 1):
        assert all(row[f"budget_s{s}_lhs"] <= row[f"budget_s{s}_rhs"] * (1 + 1e-6)
                   for row in rec.rows)


def test_run_rejects_unsatisfiable_geometry():
    g = GridSpec(128, 2 * np.pi)
    f0 = InterfaceField.from_samples(np.full(128, -0.99), g)
    with pytest.raises(Exception):
        run(f0, REF_CFG, Schedule(t_end=0.1, dt=0.05))


def test_checkpoint_roundtrip_bitwise(tmp_path):
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.02, 1.5)
    state = step(f0, 0.05, REF_CFG)
    path = tmp_path / "ck.json"
    save_checkpoint(path, state, REF_CFG, 1, 0.05)
    loaded, idx, dt, monitor = load_checkpoint(path, REF_CFG)
    assert idx == 1 and dt == 0.05 and monitor is None
    assert np.array_equal(loaded.f.coefficients, state.f.coefficients)
    assert loaded.time == state.time


def test_checkpoint_bytes_match_the_streaming_encoder(tmp_path):
    # save_checkpoint encodes in one json.dumps call; the file must be the one
    # json.dump(..., sort_keys=True) streams out
    import json

    g = GridSpec(32, L12)
    state = step(gaussian_bump(g, 0.02, 1.5), 0.05, REF_CFG)
    rng = np.random.default_rng(7)
    mon = MonitorState(integral={0: 1.25e-7, 1: -0.0},
                       correction=rng.standard_normal(g.n_points))
    path, ref = tmp_path / "ck.json", tmp_path / "ref.json"
    save_checkpoint(path, state, REF_CFG, 7, 0.05, mon)
    with open(ref, "w") as fh:
        json.dump(checkpoint_payload(state, REF_CFG, 7, 0.05, mon), fh, sort_keys=True)
    assert path.read_bytes() == ref.read_bytes()


def test_checkpoint_config_mismatch(tmp_path):
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.02, 1.5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, f0, REF_CFG, 0, 0.05)
    other = FluidConfig(0.3, 0.2, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, other)


def test_restart_reproduces_state_bitwise(tmp_path):
    # older checkpoints also carry the monitor constants nu, rhs0, coef, growth
    # and y0, which a resume recomputes from the datum, and the accumulators
    # f32_max and f32_int of the weighted-L2 bound, which nothing reads any
    # more; wrong values there change nothing
    import json

    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.01, 1.5)
    sched = Schedule(t_end=0.4, dt=0.05, snapshot_every=2)
    path = tmp_path / "ck.json"

    def keep(step_index, state, row, mon):
        if step_index == 4:
            save_checkpoint(path, state, REF_CFG, step_index, sched.dt, mon)

    full = run(f0, REF_CFG, sched, on_snapshot=keep)
    payload = json.loads(path.read_text())
    wrong = (1.0).hex()
    payload["monitor"].update(nu=wrong, rhs0=[wrong, wrong], coef=[wrong, wrong],
                              growth=[wrong] * 3, y0=wrong, f32_max=wrong, f32_int=wrong)
    path.write_text(json.dumps(payload))
    mid, start, _, monitor = load_checkpoint(path, REF_CFG)
    resumed = run(f0, REF_CFG, sched, resume=(mid, start, monitor))
    assert np.array_equal(resumed.final_state.f.coefficients,
                          full.final_state.f.coefficients)
    kept = len(full.rows) - len(resumed.rows)
    assert kept == 2
    # repr, so that NaN strip radii compare equal too
    assert [[repr(v) for v in row.values()] for row in resumed.rows] == \
        [[repr(v) for v in row.values()] for row in full.rows[kept:]]


def test_checkpoint_without_correction_resumes_cold(tmp_path):
    # checkpoints written before the strength solve carried its correction
    import json

    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.01, 1.5)
    sched = Schedule(t_end=0.4, dt=0.05, snapshot_every=2)
    path = tmp_path / "ck.json"

    def keep(step_index, state, row, mon):
        if step_index == 4:
            save_checkpoint(path, state, REF_CFG, step_index, sched.dt, mon)

    full = run(f0, REF_CFG, sched, on_snapshot=keep)
    payload = json.loads(path.read_text())
    assert len(payload["monitor"].pop("correction")) == g.n_points
    path.write_text(json.dumps(payload))
    mid, start, _, monitor = load_checkpoint(path, REF_CFG)
    assert monitor.correction is None
    resumed = run(f0, REF_CFG, sched, resume=(mid, start, monitor))
    assert resumed.rows[-1]["t"] == full.rows[-1]["t"]
    diff = resumed.final_state.f.coefficients - full.final_state.f.coefficients
    assert np.max(np.abs(diff)) <= 1e-9 * np.max(np.abs(full.final_state.f.coefficients))
    # a correction of the wrong length is refused, not broadcast
    payload["monitor"]["correction"] = ["0x0p+0"] * (g.n_points // 2)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, REF_CFG)


def test_leakage_diagnostic():
    g = GridSpec(128, 2 * np.pi)
    F = np.zeros(128)
    F[0] = 0.5  # mass at the domain edge
    f = InterfaceField.from_samples(F, g)
    assert leakage(f) >= 0.5 - 1e-12


def test_step_blowup_detector(monkeypatch):
    import muskatjump.evolution as evo

    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(1e-3 * np.cos(g.nodes()), g)

    def bad_tendency(state, cfg, opts, carry=None):
        out = np.zeros(128, complex)
        out[1] = np.nan
        return out

    monkeypatch.setattr(evo, "nonlinear_tendency", bad_tendency)
    with pytest.raises(BlowUpError) as err:
        evo.step(f, 0.01, REF_CFG)
    assert err.value.last_valid_state is f


def _assert_step_spectra_hermitian(f: InterfaceField):
    """Every spectrum the step and rhs hand on equals its symmetrization bit for bit.

    Random data are not localized, so the leakage check is off.
    """
    opts = SolverOptions(leakage_threshold=math.inf)
    tendency = evolution.nonlinear_tendency
    seen = []

    def recording(state, *args, **kwargs):
        out = tendency(state, *args, **kwargs)
        seen.append((state.f.coefficients, out))
        return out

    with mock.patch.object(evolution, "nonlinear_tendency", recording):
        new = step(f, 0.02, REF_CFG, opts)
    (fhat, n0), (stage, n1) = seen
    br = rhs(f, REF_CFG, opts)
    for c in (fhat, n0, stage, n1, new.f.coefficients,
              br.linear_part.coefficients, br.nonlinear_part.coefficients):
        assert np.array_equal(c, hermitian_symmetrize(c))


def test_decay_step_allocates_no_row_storage():
    # on the acceptance decay datum every self term is summed by its series:
    # a step leaves the carried strength correction and no O(N^2) storage
    g = GridSpec(512, 400 * np.pi)
    carry = MonitorState()
    step(decay_packet(g), 0.1, REF_CFG, SolverOptions(leakage_threshold=1e-3), carry=carry)
    assert carry.correction is not None and carry.kernels is None


@pytest.mark.parametrize("amplitude", [0.01, 0.3])
def test_step_spectra_are_exactly_hermitian(amplitude):
    # forward leaves a Nyquist coefficient; the multipliers zero it later
    _assert_step_spectra_hermitian(gaussian_bump(GridSpec(128, L12), amplitude, 1.5))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.05, 1.0))
def test_step_spectra_are_exactly_hermitian_on_admissible_data(seed, frac):
    k0, k1 = thresholds(REF_CFG)
    g = GridSpec(64, L12)
    _assert_step_spectra_hermitian(
        random_admissible_interface(g, np.random.default_rng(seed), REF_CFG, k0, k1, frac))


def test_interface_field_stores_the_hermitian_projection():
    # a spectrum off Hermitian by round-off passes the reality check; the
    # state holds its exact projection, so the step, which does not
    # symmetrize, never sees the anti-Hermitian part (c_0's would not decay,
    # as m(0) = 0)
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.01, 1.5)
    assert np.array_equal(InterfaceField(f.f).f.coefficients, f.f.coefficients)
    c = f.f.coefficients.copy()
    c[0] += 1e-13j
    c[3] += 2e-13
    state = InterfaceField(SpectralField(g, c))
    assert np.array_equal(state.f.coefficients, hermitian_symmetrize(c))
    for _ in range(10):
        state = step(state, 0.02, REF_CFG)
    c = state.f.coefficients
    assert np.array_equal(c, hermitian_symmetrize(c))
    assert c[0].imag == 0.0


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 63), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       imaginary=st.booleans(), mirrored=st.booleans())
def test_interface_field_rejects_a_nan_or_inf_coefficient(k, bad, imaginary, mirrored):
    # a NaN fails every comparison, so the reality check must be written to
    # fail on one; an inf becomes a NaN in the symmetry defect
    g = GridSpec(64, L12)
    c = gaussian_bump(g, 0.01, 1.5).f.coefficients.copy()
    c[k] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
    if mirrored:
        c[-k] = np.conj(c[k])
    with np.errstate(invalid="ignore"), pytest.raises(ConfigurationError, match="real-symmetric"):
        InterfaceField(SpectralField(g, c))


def test_solver_thresholds_must_be_positive_and_may_be_infinite():
    # math.inf switches a guard off; NaN would too, silently
    for name in ("leakage_threshold", "cfl_bound"):
        assert getattr(SolverOptions(**{name: math.inf}), name) == math.inf
        for bad in (math.nan, 0.0, -1.0, -math.inf):
            with pytest.raises(ConfigurationError, match=name):
                SolverOptions(**{name: bad})


def test_fluid_density_contrast_and_depth_must_be_finite():
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ConfigurationError, match="A_rho"):
            FluidConfig(0.5, 0.2, bad, 1.0)
        with pytest.raises(ConfigurationError, match="h2"):
            FluidConfig(0.5, 0.2, 1.0, bad)


def test_loaded_checkpoint_spectrum_is_exactly_hermitian(tmp_path):
    # a file whose spectrum is off Hermitian by round-off loads as its exact
    # projection, so the step keeps it real; a saved state loads bit for bit
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.01, 1.5)
    path = tmp_path / "c.json"
    save_checkpoint(path, f, REF_CFG, 0, 0.02)
    assert np.array_equal(load_checkpoint(path, REF_CFG)[0].f.coefficients, f.f.coefficients)
    payload = checkpoint_payload(f, REF_CFG, 0, 0.02)
    c = f.f.coefficients
    payload["coeff_im_hex"][0] = float(c[0].imag + 1e-13).hex()
    payload["coeff_re_hex"][3] = float(c[3].real + 2e-13).hex()
    path.write_text(json.dumps(payload))
    state = load_checkpoint(path, REF_CFG)[0]
    for _ in range(3):
        c = state.f.coefficients
        assert np.array_equal(c, hermitian_symmetrize(c))
        state = step(state, 0.02, REF_CFG)
