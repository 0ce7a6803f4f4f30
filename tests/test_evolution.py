import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from muskatjump import (FluidConfig, GridSpec, SpectralField, cli, evolution, inverse,
                        linear_symbol, oracle)
from muskatjump.certify import thresholds
from muskatjump.errors import BlowUpError, ConfigurationError, PicardDivergenceError, StepSizeError
from muskatjump.evolution import (InterfaceField, MonitorState, Schedule, SolverOptions,
                                  leakage, load_checkpoint, nonlinear_tendency, rhs, run,
                                  save_checkpoint, step)
from muskatjump.vorticity import DEFAULT_SERIES_TOL, _Workspace, solve_vorticity

from muskatjump.spectral import hermitian_extension, hermitian_symmetrize

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
    assert np.max(np.abs(nonlinear_tendency(f, REF_CFG, SolverOptions()))) < 1e-14


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
    total = (br.i1.coefficients + br.i2.coefficients + br.i3.coefficients
             + br.i4.coefficients) / (2 * np.pi)
    want = -linear_symbol(float(k), REF_CFG) * f.f.coefficients[k]
    assert abs(total[k] - want) / abs(want) < 1e-4


def _assert_split_is_the_integrals(f: InterfaceField, cfg: FluidConfig):
    """The tendency plus the dealiased linear part, extended to the full N, is rhs's
    dealiased (I1 + I2 + I3 + I4)/2pi within 1e-12 of max|N|: one solve, whose
    transforms rhs groups otherwise."""
    g = f.f.grid
    opts = SolverOptions()
    tendency = nonlinear_tendency(f, cfg, opts)
    assert tendency.shape == (g.nyquist_index() + 1,)
    linear = evolution._dealiased_linear(g, cfg) * f.f.coefficients[: g.nyquist_index() + 1]
    split = hermitian_extension(tendency + linear, g)
    br = rhs(f, cfg, opts)
    total = (br.i1.coefficients + br.i2.coefficients + br.i3.coefficients
             + br.i4.coefficients) / (2 * np.pi)
    assert np.max(np.abs(total - split)) <= 1e-12 * np.max(np.abs(tendency))


def test_rhs_identity_between_parts():
    # the split holds for a negative permeability jump too
    _assert_split_is_the_integrals(gaussian_bump(GridSpec(256, L12), 0.02, 1.5),
                                   FluidConfig(-0.7, 0.6, 2.0, 0.5))


@pytest.mark.parametrize("amplitude", [0.02, 0.3])
def test_rhs_parts_are_the_four_integrals(amplitude):
    # i1..i4 hold I1..I4 one by one (not only their sum), each against the
    # direct quadrature of the oracle, with the self sums by their series
    # alone (amplitude 0.02) and split into a near and a far field (0.3)
    g = GridSpec(256, L12)
    f = gaussian_bump(g, amplitude, 1.5)
    assert (_Workspace(f, REF_CFG, DEFAULT_SERIES_TOL).near_width > 0) == (amplitude == 0.3)
    pair = solve_vorticity(f, REF_CFG)
    br = rhs(f, REF_CFG)
    F, w1, w2 = f.samples(), inverse(pair.omega1), inverse(pair.omega2)
    parts = (br.i1, br.i2, br.i3, br.i4)
    for which, (part, w) in enumerate(zip(parts, (w1, w1, w2, w2)), start=1):
        ref = oracle.quad_I(F, w, REF_CFG, which, L12)
        assert np.max(np.abs(inverse(part) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("amplitude", [0.02, 0.3])
def test_rhs_and_tendency_are_one_assembly(amplitude):
    # the step's tendency, a half spectrum k = 0..N/2, splits the breakdown's
    # integrals, with the self terms by their series alone (amplitude 0.02)
    # and with a near field (0.3)
    _assert_split_is_the_integrals(gaussian_bump(GridSpec(256, L12), amplitude, 1.5), REF_CFG)


@pytest.mark.parametrize("amplitude", [0.95, 1.05])
def test_rhs_beyond_series_radius(amplitude):
    # README grid with ||f||_F01 >= 0.9 h2 (and >= h2): the rhs and a step go
    # through
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
                        lambda state, cfg, opts, carry=None: np.zeros(65, complex))
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
    # self-convergence: halving dt reduces the terminal error by ~4x; the
    # carry hands N_{n-1} from step to step, so every step after the first
    # (ETD1) is ETD2
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.03, 1.5)
    t_end = 0.4

    def terminal(dt):
        state, carry = f0, MonitorState()
        for _ in range(int(round(t_end / dt))):
            state = step(state, dt, REF_CFG, carry=carry)
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


def test_run_is_bare_steps_with_the_cached_stepper_coefficients():
    g = GridSpec(128, L12)
    coeffs = evolution._stepper_coeffs(g, REF_CFG, 0.05)
    assert evolution._stepper_coeffs(GridSpec(128, L12), REF_CFG, 0.05) is coeffs
    for a in coeffs:
        with pytest.raises(ValueError):
            a[0] = 0.0
    # one carried monitor and the run's clock of whole steps
    f0 = gaussian_bump(g, 0.01, 1.5)
    sched = Schedule(t_end=0.5, dt=0.05, snapshot_every=10)
    rec = run(f0, REF_CFG, sched)
    state, carry = f0, MonitorState()
    for i in range(10):
        state = InterfaceField(step(state, sched.dt, REF_CFG, carry=carry).f, (i + 1) * sched.dt)
    assert np.array_equal(state.f.coefficients, rec.final_state.f.coefficients)
    assert state.time == rec.final_state.time


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


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_EXTREME_PATTERNS = [float(v) for v in (0.0, -0.0, 5e-324, -5e-324,
                                        math.nextafter(_SMALLEST_NORMAL, 0.0), _SMALLEST_NORMAL,
                                        np.finfo(float).max, -np.finfo(float).max)]


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_corrections=st.integers(0, 4), with_tendency=st.booleans())
def test_checkpoint_v2_round_trips_every_bit_pattern(tmp_path_factory, data, n_corrections,
                                                     with_tendency):
    # the corrections and N_{n-1} hold arbitrary 64-bit patterns (NaN payloads
    # included), +-0 and subnormals among them; the state holds the finite
    # ones below 1e300, whose Hermitian projection is exact, signed zeros
    # included, with real k = 0 and N/2 modes, as the step builds a state; the
    # float.hex scalars hold any non-NaN double
    g = GridSpec(16, L12)
    h = g.nyquist_index() + 1

    def patterns(n):
        extra = data.draw(st.lists(st.sampled_from(_EXTREME_PATTERNS), max_size=n))
        raw = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=n - len(extra),
                                 max_size=n - len(extra)))
        a = np.concatenate((np.array(raw, dtype=np.uint64).view(float), extra))
        return data.draw(st.permutations(a.tolist()), label="order")

    with np.errstate(invalid="ignore"):
        spectrum = np.array(patterns(2 * h)).view(complex)
        spectrum = np.where(np.abs(spectrum) < 1e300, spectrum, 0.0)
    spectrum[0] = spectrum[0].real
    spectrum[-1] = spectrum[-1].real
    state = InterfaceField(SpectralField(g, hermitian_extension(spectrum, g)),
                           data.draw(st.floats(0.0, 1e300)))
    scalars = st.floats(allow_nan=False)
    mon = MonitorState(integral={0: data.draw(scalars), 1: data.draw(scalars)},
                       corrections=[np.array(patterns(g.n_points)) for _ in range(n_corrections)],
                       tendency=np.array(patterns(2 * h)).view(complex) if with_tendency else None)
    step_index, dt = data.draw(st.integers(0, 2 ** 62)), data.draw(st.floats(5e-324, 1e300))
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    save_checkpoint(path, state, "run hash", step_index, dt, mon)
    loaded, idx, dt_loaded, got = load_checkpoint(path, "run hash")
    assert json.loads(path.read_text())["schema"] == "muskatjump-checkpoint-v2"
    assert (idx, dt_loaded.hex(), loaded.time.hex()) == (step_index, dt.hex(), state.time.hex())
    assert np.array_equal(_bits(loaded.f.coefficients), _bits(state.f.coefficients))
    assert [v.hex() for v in got.integral.values()] == [v.hex() for v in mon.integral.values()]
    assert len(got.corrections) == n_corrections
    for a, b in zip(got.corrections, mon.corrections):
        assert np.array_equal(_bits(a), _bits(b))
    assert (got.tendency is None) == (not with_tendency)
    if with_tendency:
        assert np.array_equal(_bits(got.tendency), _bits(mon.tendency))


@settings(max_examples=40, deadline=None)
@given(samples=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                  st.floats(-1e3, 1e3)), min_size=16, max_size=16),
       even=st.booleans())
def test_any_state_goes_through_a_checkpoint_bit_for_bit(tmp_path_factory, samples, even):
    # a state from samples, not built by a step: its projection is the
    # extension of its half spectrum, so the v2 file's half extends back to
    # the same bits, signed zeros included (even data make exact zeros in
    # the imaginary parts of both mirrors)
    g = GridSpec(16, L12)
    x = np.array(samples)
    if even:
        x = 0.5 * (x + np.roll(x[::-1], 1))
    state = InterfaceField.from_samples(x, g)
    path = tmp_path_factory.mktemp("ck") / "ck.json"
    save_checkpoint(path, state, REF_CFG, 0, 0.05)
    assert np.array_equal(_bits(load_checkpoint(path, REF_CFG)[0].f.coefficients),
                          _bits(state.f.coefficients))


_V1_CHECKPOINT = Path(__file__).parent / "checkpoint_v1.json"


def test_committed_v1_checkpoint_is_refused(tmp_path, capsys):
    # written by the ETDRK2 version at step 2 of a run of the README fluid on
    # a 32-point bump; no reader of that format is left, so the file is
    # refused by its schema, as initial data too, before anything is written
    with pytest.raises(ConfigurationError, match="unknown checkpoint schema "
                                                 "'muskatjump-checkpoint-v1'"):
        load_checkpoint(_V1_CHECKPOINT)
    config = json.loads((Path(__file__).parents[1] / "examples" / "readme.json").read_text())
    config["grid"]["n_points"] = 32
    config["initial_data"] = {"preset": "from_file", "path": str(_V1_CHECKPOINT)}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert cli.main(["certify", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("unknown checkpoint schema 'muskatjump-checkpoint-v1'") == 2


def test_checkpoint_config_mismatch(tmp_path):
    g = GridSpec(128, L12)
    f0 = gaussian_bump(g, 0.02, 1.5)
    path = tmp_path / "ck.json"
    save_checkpoint(path, f0, REF_CFG, 0, 0.05)
    other = FluidConfig(0.3, 0.2, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, other)


@pytest.mark.parametrize("entry, value, message", [
    ("schema", "muskatjump-checkpoint-v3", "unknown checkpoint schema"),
    ("spectrum", "00" * 16 * 16, "spectrum does not match its grid")])
def test_checkpoint_of_another_schema_or_grid_is_refused(tmp_path, entry, value, message):
    # a 32-point grid stores 17 modes of the half spectrum, not 16
    path = tmp_path / "ck.json"
    save_checkpoint(path, gaussian_bump(GridSpec(32, L12), 0.02, 1.5), REF_CFG, 0, 0.05)
    path.write_text(json.dumps({**json.loads(path.read_text()), entry: value}))
    with pytest.raises(ConfigurationError, match=message):
        load_checkpoint(path, REF_CFG)


@pytest.mark.parametrize("bad", [-1, 2.5, "5", True, None])
def test_checkpoint_step_index_must_be_a_non_negative_integer(tmp_path, bad):
    g = GridSpec(32, L12)
    path = tmp_path / "ck.json"
    save_checkpoint(path, gaussian_bump(g, 0.02, 1.5), REF_CFG, 0, 0.05)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "step_index": bad}))
    with pytest.raises(ConfigurationError, match="step_index"):
        load_checkpoint(path, REF_CFG)


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
    # checkpoints written before the strength solve carried its corrections;
    # N_{n-1} is kept, so the resumed steps are the same scheme and differ
    # only by the solve's tolerance
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
    corrections = payload["monitor"].pop("corrections")
    assert [len(c) for c in corrections] == [16 * g.n_points] * 4
    assert "tendency" in payload["monitor"]
    path.write_text(json.dumps(payload))
    mid, start, _, monitor = load_checkpoint(path, REF_CFG)
    assert monitor.corrections == [] and monitor.tendency is not None
    resumed = run(f0, REF_CFG, sched, resume=(mid, start, monitor))
    assert resumed.rows[-1]["t"] == full.rows[-1]["t"]
    diff = resumed.final_state.f.coefficients - full.final_state.f.coefficients
    assert np.max(np.abs(diff)) <= 1e-9 * np.max(np.abs(full.final_state.f.coefficients))
    # a correction or a tendency of the wrong length is refused, not broadcast
    for key, value in (("corrections", [corrections[0][: 8 * g.n_points]]),
                       ("tendency", payload["monitor"]["tendency"][:32])):
        path.write_text(json.dumps({**payload, "monitor": {**payload["monitor"], key: value}}))
        with pytest.raises(ConfigurationError, match="history does not match its grid"):
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
        out = np.zeros(65, complex)
        out[1] = np.nan
        return out

    monkeypatch.setattr(evo, "nonlinear_tendency", bad_tendency)
    with pytest.raises(BlowUpError) as err:
        evo.step(f, 0.01, REF_CFG)
    assert err.value.last_valid_state is f


def _assert_step_spectra_hermitian(f: InterfaceField, steps: int = 3):
    """Every spectrum the steps and rhs hand on equals its symmetrization.

    The states each step reads and each new state, over several ETD2 steps,
    are equal bit for bit, signed zeros at k = 0 and N/2 included: the step
    hands them on without projecting them again, as a projection would leave
    them.  Random data are not localized, so the leakage check is off.
    """
    opts = SolverOptions(leakage_threshold=math.inf)
    tendency = evolution.nonlinear_tendency
    states, tendencies = [], []

    def recording(state, *args, **kwargs):
        out = tendency(state, *args, **kwargs)
        states.append(state.f.coefficients)
        tendencies.append(out)
        return out

    state, carry = f, MonitorState()
    with mock.patch.object(evolution, "nonlinear_tendency", recording):
        for _ in range(steps):
            state = step(state, 0.02, REF_CFG, opts, carry=carry)
            states.append(state.f.coefficients)
    # per step: the state and the new state, with one tendency
    assert len(states) == 2 * steps and len(tendencies) == steps
    assert all(a is b for a, b in zip(states[1:-1:2], states[2::2]))
    for c in states:
        assert np.array_equal(c.view(np.uint64), hermitian_symmetrize(c).view(np.uint64))
    br = rhs(f, REF_CFG, opts)
    grid = f.f.grid
    for c in [hermitian_extension(t, grid) for t in tendencies] + [
            part.coefficients for part in (br.i1, br.i2, br.i3, br.i4)]:
        assert np.array_equal(c, hermitian_symmetrize(c))


def test_decay_step_allocates_no_row_storage():
    # on the acceptance decay datum every self term is summed by its series,
    # at order 5, with no near-field rows; a step leaves the carried correction
    g = GridSpec(512, 400 * np.pi)
    f = decay_packet(g)
    ws = _Workspace(f, REF_CFG, DEFAULT_SERIES_TOL)
    assert (ws.near_width, ws.self_order) == (0, 5)
    carry = MonitorState()
    step(f, 0.1, REF_CFG, SolverOptions(leakage_threshold=1e-3), carry=carry)
    assert len(carry.corrections) == 1


def test_warm_tendency_takes_six_transforms(monkeypatch):
    # one tendency on the decay datum with a warm one-iteration solve: the
    # workspace's samples, the evaluation (a forward and an inverse batch),
    # the update, the carried next iterate and the summed integrals (16 calls
    # when each operator issued its own, 9 before the tendency was one sum)
    g = GridSpec(512, 400 * np.pi)
    f = decay_packet(g)
    opts = SolverOptions(leakage_threshold=1e-3)
    carry = MonitorState()
    nonlinear_tendency(f, REF_CFG, opts, carry=carry)
    assert solve_vorticity(f, REF_CFG, corrections=list(carry.corrections)).iterations == 1
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    nonlinear_tendency(f, REF_CFG, opts, carry=carry)
    assert calls == ["irfft", "rfft", "irfft", "rfft", "irfft", "rfft"]


def test_decay_steps_take_about_one_strength_evaluation_each(monkeypatch):
    # 90 steps of the acceptance decay datum: the first solve is cold, and the
    # cubic start from the carried next iterates passes the stop test at its
    # first evaluation on nearly every later step (182 evaluations from the
    # quadratic in the solves' own iterates, 118 here)
    evaluate, calls = _Workspace.evaluate, []

    def counted(self, w1):
        calls.append(1)
        return evaluate(self, w1)

    monkeypatch.setattr(_Workspace, "evaluate", counted)
    state, carry = decay_packet(GridSpec(512, 400 * np.pi)), MonitorState()
    opts = SolverOptions(leakage_threshold=1e-3)
    for _ in range(90):
        state = step(state, 0.1, REF_CFG, opts, carry=carry)
    assert len(carry.corrections) == 4
    assert len(calls) <= 125


def test_carried_correction_is_the_solves_next_iterate():
    # the carried correction is the solve's next iterate minus the linear
    # strength, bit for bit: what a solve from the same start to the tighter
    # tolerance pair.residual returns, one iteration later, after a cold
    # multi-iteration solve and a warm one-iteration one.  The strength
    # returned stays the iterate checked: capped at its iteration count, that
    # tighter solve fails at the residual returned, and leaves its list as it was
    g = GridSpec(512, 400 * np.pi)
    f = decay_packet(g)
    opts = SolverOptions(leakage_threshold=1e-3)
    carry = MonitorState()
    for iterations in ("many", "one"):
        before = list(carry.corrections)
        pair, ws = evolution._solve(f, REF_CFG, opts, carry=carry)
        assert (pair.iterations > 2) == (iterations == "many")
        assert (pair.iterations == 1) == (iterations == "one")
        assert pair.residual < opts.picard_tol
        assert len(carry.corrections) == len(before[-3:]) + 1
        assert all(a is b for a, b in zip(carry.corrections, before[-3:]))
        tighter = solve_vorticity(f, REF_CFG, tol=pair.residual, workspace=ws,
                                  corrections=list(before), max_iter=pair.iterations + 1)
        assert tighter.iterations == pair.iterations + 1
        assert np.array_equal(_bits(carry.corrections[-1]),
                              _bits(tighter.evaluation.w1 - ws.linear))
        kept = list(before)
        with pytest.raises(PicardDivergenceError) as failed:
            solve_vorticity(f, REF_CFG, tol=pair.residual, workspace=ws, corrections=kept,
                            max_iter=pair.iterations)
        assert failed.value.residual_history[-1] == pair.residual
        assert len(kept) == len(before) and all(a is b for a, b in zip(kept, before))


def _chirp_tendency(grid: GridSpec, modes: int) -> np.ndarray:
    # |n_k| = 1 on k = 1..modes with quadratic phases: max|N| is a few
    # sqrt(modes), far below the bound 2 modes
    k = np.arange(1, modes + 1)
    n = np.zeros(grid.nyquist_index() + 1, complex)
    n[k] = np.exp(1j * np.pi * k * k / modes)
    return n


def test_cfl_check_transforms_the_tendency_only_past_its_bound(monkeypatch):
    import muskatjump.evolution as evo

    g = GridSpec(128, 2 * np.pi)
    f = InterfaceField.from_samples(1e-3 * np.cos(g.nodes()), g)
    n = _chirp_tendency(g, 40)
    monkeypatch.setattr(evo, "nonlinear_tendency", lambda state, cfg, opts, carry=None: n)
    bound = 2.0 * np.sum(np.abs(n))
    speed = np.max(np.abs(np.fft.irfft(n, g.n_points, norm="forward")))
    assert speed < bound / 4.0
    xi_max = float(np.max(np.abs(g.wavenumbers())))
    irfft, transforms = np.fft.irfft, []

    def counted(*args, **kwargs):
        transforms.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    dt = 1e-3
    # the bound passes with its margin: no transform
    evo.step(f, dt, REF_CFG, SolverOptions(cfl_bound=2.01 * dt * xi_max * bound))
    assert transforms == []
    # the bound fails outright, the exact speed passes: one transform, and a step
    out = evo.step(f, dt, REF_CFG, SolverOptions(cfl_bound=2.0 * dt * xi_max * speed))
    assert transforms == [1] and np.all(np.isfinite(out.f.coefficients))
    with pytest.raises(StepSizeError, match="exceeds bound"):
        evo.step(f, dt, REF_CFG, SolverOptions(cfl_bound=0.99 * dt * xi_max * speed))
    with pytest.raises(StepSizeError, match="exceeds bound 1e-300"):
        evo.step(f, dt, REF_CFG, SolverOptions(cfl_bound=1e-300))


@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 32), seed=st.integers(0, 2 ** 32 - 1),
       ratio=st.floats(0.5, 4.0))
def test_cfl_check_rejects_what_the_exact_check_rejects(modes, seed, ratio):
    # a step passes the CFL check iff dt max|N| xi_max <= cfl_bound, with
    # max|N| from the exact transform, near the limit and on either side of
    # it; N is transformed only where its bound is above half the limit
    g = GridSpec(64, L12)
    rng = np.random.default_rng(seed)
    n = np.zeros(g.nyquist_index() + 1, complex)
    n[:modes] = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    n[0] = n[0].real
    f = InterfaceField.from_samples(np.zeros(g.n_points), g)
    dt, xi_max = 0.01, float(np.max(np.abs(g.wavenumbers())))
    speed = float(np.max(np.abs(np.fft.irfft(n, g.n_points, norm="forward"))))
    cfl = ratio * dt * speed * xi_max
    bound = 2.0 * np.sum(np.abs(n)) - abs(n[0]) - abs(n[-1])
    irfft, transforms = np.fft.irfft, []

    def counted(*args, **kwargs):
        transforms.append(1)
        return irfft(*args, **kwargs)

    with mock.patch.object(evolution, "nonlinear_tendency",
                           lambda state, cfg, opts, carry=None: n), \
            mock.patch.object(np.fft, "irfft", counted):
        if dt * speed * xi_max > cfl:
            with pytest.raises(StepSizeError):
                step(f, dt, REF_CFG, SolverOptions(cfl_bound=cfl))
        else:
            step(f, dt, REF_CFG, SolverOptions(cfl_bound=cfl))
    assert len(transforms) == (dt * xi_max * bound > 0.5 * cfl)


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


def test_interface_field_time_must_be_nonnegative_and_finite(tmp_path):
    # a NaN time passes a plain ``time < 0`` test; the same state loads from a
    # checkpoint only with a time run() could have reached
    f = gaussian_bump(GridSpec(64, L12), 0.01, 1.5)
    assert InterfaceField(f.f, 0.0).time == 0.0
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigurationError, match="time must be nonnegative and finite"):
            InterfaceField(f.f, bad)
        ck = tmp_path / "ck.json"
        save_checkpoint(ck, InterfaceField._trusted(f.f, bad), REF_CFG, 0, 0.1)
        with pytest.raises(ConfigurationError, match="time must be nonnegative and finite"):
            load_checkpoint(ck)


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
    # projection, so the step keeps it real; a saved state loads bit for bit.
    # A v2 file holds k = 0..N/2, so only the k = 0 and N/2 modes can be off
    g = GridSpec(128, L12)
    f = gaussian_bump(g, 0.01, 1.5)
    path = tmp_path / "c.json"
    save_checkpoint(path, f, REF_CFG, 0, 0.02)
    assert np.array_equal(load_checkpoint(path, REF_CFG)[0].f.coefficients, f.f.coefficients)
    payload = json.loads(path.read_text())
    half = np.frombuffer(bytes.fromhex(payload["spectrum"]), "<c16").copy()
    half[0] += 1e-13j
    half[-1] += 2e-13j
    payload["spectrum"] = half.tobytes().hex()
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps(payload))
    state, carry = load_checkpoint(v2, REF_CFG)[0], MonitorState()
    assert state.f.coefficients[0].imag == 0.0
    for _ in range(3):
        c = state.f.coefficients
        assert np.array_equal(c.view(np.uint64), hermitian_symmetrize(c).view(np.uint64))
        state = step(state, 0.02, REF_CFG, carry=carry)


@pytest.mark.parametrize("z0", [1e-12, 1e-8, 3e-5, 9.99e-5, 1.0001e-4, 3e-4, 1e-2, 0.7, 5.0,
                                60.0, 700.0])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_phi_functions_match_mpmath(z0, sign):
    # phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2 on both sides of the
    # series cutoff |z| = 1e-4, where the truncated series err by less than
    # |z|^4/120 < 1e-18; the direct forms lose eps/|z| of phi2 to the
    # cancellation in e^z - 1 - z.  Bound: 8 eps below the cutoff and
    # 8 eps (1 + 1/|z|) above it
    eps = np.finfo(float).eps
    z = np.array([sign * z0])
    phi1, phi2 = evolution._phi(z)
    for got, exact in ((phi1[0], lambda w: mp.expm1(w) / w),
                       (phi2[0], lambda w: (mp.expm1(w) - w) / w ** 2)):
        with mp.workdps(80):
            want = exact(mp.mpf(float(z[0])))
        bound = 8 * eps * (1.0 if z0 < evolution._PHI_SERIES_CUTOFF else 1.0 + 1.0 / z0)
        assert abs(mp.mpf(float(got)) - want) <= bound * abs(want)
