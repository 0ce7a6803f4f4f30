"""Interface evolution: right-hand side assembly, exponential integrator, trajectories.

The graph height advances by (I1 + I2 + I3 + I4)/2pi.  The fast path computes
the singular part of I1 with the exact Hilbert multiplier, the remaining
self-induction by the alternating rule (summed by its difference-quotient
series where that converges, by the O(N^2) rows otherwise, chosen once per
snapshot), and the line-coupling integrals I3, I4 by the snapshot's
Chebyshev interpolant in the height (``muskatjump.vorticity``), so large data
run on the rows rather than raise.
The exact linear multiplier m(xi) is removed and handled by the integrating
factor of an ETDRK2 scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import certify
from .errors import BlowUpError, ConfigurationError, GeometryError, StepSizeError
from .norms import norm_report
from .spectral import (GridSpec, SpectralField, dealias, forward, forward_coefficients,
                       hermitian_symmetrize, hilbert, inverse, inverse_coefficients)
from .vorticity import (DEFAULT_PICARD_MAX_ITER, DEFAULT_PICARD_TOL, DEFAULT_SERIES_TOL,
                        FluidConfig, VorticityPair, _Workspace, check_geometry,
                        solve_vorticity)

DEFAULT_LEAKAGE_THRESHOLD = 1e-4
DEFAULT_CFL_BOUND = 1.0
_PHI_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class InterfaceField:
    """Graph height of the fluid interface at one time.

    A spectrum within 1e-10 of Hermitian symmetry is accepted and stored as
    its exact projection, so the height is real by construction and the
    step keeps it so; the projection leaves ``forward``'s spectra bit for bit.
    """

    f: SpectralField
    time: float = 0.0

    def __post_init__(self):
        c = self.f.coefficients
        sym = hermitian_symmetrize(c)
        # c - sym is half of c minus its conjugate mirror; a NaN fails the test
        if not 2.0 * np.max(np.abs(c - sym)) <= 1e-10 * max(np.max(np.abs(c)), 1.0):
            raise ConfigurationError("interface height must be real-symmetric")
        if self.time < 0:
            raise ConfigurationError("time must be nonnegative")
        object.__setattr__(self, "f", self.f.with_coefficients(sym))

    @classmethod
    def from_samples(cls, samples, grid: GridSpec) -> "InterfaceField":
        return cls(forward(np.asarray(samples, dtype=float), grid))

    def samples(self) -> np.ndarray:
        return inverse(self.f)


@dataclass(frozen=True)
class SolverOptions:
    picard_tol: float = DEFAULT_PICARD_TOL
    picard_max_iter: int = DEFAULT_PICARD_MAX_ITER
    series_tol: float = DEFAULT_SERIES_TOL
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD
    cfl_bound: float = DEFAULT_CFL_BOUND

    def __post_init__(self):
        if self.picard_max_iter < 1:
            raise ConfigurationError(
                f"picard_max_iter must be at least 1, got {self.picard_max_iter!r}")
        # a Picard residual never drops below a zero tolerance, and no series
        # order meets one
        for name in ("picard_tol", "series_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        # math.inf switches a guard off; so would NaN, silently
        for name in ("leakage_threshold", "cfl_bound"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RhsBreakdown:
    """The four interface integrals, their linear/nonlinear split and the strengths solved."""

    i1: SpectralField
    i2: SpectralField
    i3: SpectralField
    i4: SpectralField
    linear_part: SpectralField
    nonlinear_part: SpectralField
    pair: VorticityPair


def leakage(f: InterfaceField) -> float:
    """max |f| over the outer 10% band (split across both domain ends)."""
    F = f.samples()
    n = len(F)
    half_band = max(int(round(n * 0.05)), 1)
    return float(max(np.max(np.abs(F[:half_band])), np.max(np.abs(F[-half_band:]))))


def check_leakage(f: InterfaceField, threshold: float) -> None:
    leak = leakage(f)
    if leak > threshold:
        raise GeometryError(f"boundary leakage {leak:.3g} exceeds threshold {threshold:.3g}")


def _depth_growth(axi, cfg: FluidConfig):
    """exp(2 h2 |xi|); inf past the double range, where every quotient by it is its limit 0."""
    with np.errstate(over="ignore"):
        return np.exp(2.0 * cfg.h2 * axi)


def linear_symbol(xi, cfg: FluidConfig):
    """Exact decay rate m(xi) of the linearized evolution; the linear part is -m(xi) f_hat."""
    axi = np.abs(xi)
    return cfg.a_rho * axi * (
        1.0 - cfg.a_kappa * (1.0 - cfg.a_mu) / (_depth_growth(axi, cfg) - cfg.a_kappa * cfg.a_mu)
    )


def _assemble(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions,
              split_i1: bool = False, carry: MonitorState | None = None):
    """Strength pair, four dealiased integral spectra and the linear/nonlinear split.

    One kernel backend serves the strength solve and all four integrals.  The
    first two spectra are pi H(omega1) and the rest of I1 plus I2, which share
    one difference-quotient kernel; ``split_i1`` moves the I1 remainder into
    the first, so the four are I1..I4 one by one.  With a ``carry`` the solve
    starts from its correction and the difference-quotient rows, where a
    snapshot uses them, reuse its storage; both are updated here.  The
    sample-space terms read the solve's own omega1 samples.
    """
    grid = f.f.grid
    carry = carry or MonitorState()
    ws = _Workspace(f, cfg, opts.series_tol, storage=carry.kernels)
    pair = solve_vorticity(f, cfg, tol=opts.picard_tol, max_iter=opts.picard_max_iter,
                           workspace=ws, guess=carry.correction)
    p, cp = ws.target_pair(pair.omega2.coefficients)
    w1 = pair.omega1_samples
    carry.correction = w1 - ws.linear
    head, slope = np.pi * inverse(hilbert(pair.omega1)), ws.slope_terms(w1)
    if split_i1:
        rem = ws.i1_remainder(w1)
        head, slope = head + rem, slope - rem
    # after the last self term: a solve without iterations (A_mu = 0) first
    # builds the rows here
    carry.kernels = ws.storage
    parts = dealias(forward_coefficients(np.array((head, slope, cp, ws.dF * p)), grid), grid)
    # both sides of the split live on the dealiased band, so the remainder is
    # identically zero above the 2/3 cutoff and high modes evolve purely by
    # the integrating factor
    linear_hat = dealias(-linear_symbol(grid.wavenumbers(), cfg) * f.f.coefficients, grid)
    nonlinear_hat = sum(parts) / (2.0 * np.pi) - linear_hat
    return pair, parts, linear_hat, nonlinear_hat


def rhs(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions | None = None) -> RhsBreakdown:
    """Assemble the interface right-hand side, its linear/nonlinear split and strengths."""
    opts = opts or SolverOptions()
    grid = f.f.grid
    check_leakage(f, opts.leakage_threshold)
    pair, parts, linear_hat, nonlinear_hat = _assemble(f, cfg, opts, split_i1=True)
    i1f, i2f, i3f, i4f = (SpectralField(grid, c) for c in parts)
    return RhsBreakdown(
        i1=i1f, i2=i2f, i3=i3f, i4=i4f,
        linear_part=SpectralField(grid, linear_hat),
        nonlinear_part=SpectralField(grid, nonlinear_hat),
        pair=pair,
    )


def _nonlinear_diagnostics(f: InterfaceField, cfg: FluidConfig, pair: VorticityPair,
                           i1f: SpectralField, i3f: SpectralField) -> dict:
    """F^{0,1} sizes of the named nonlinear pieces of the mode-space split."""
    grid = f.f.grid
    xi = grid.wavenumbers()
    axi = np.abs(xi)
    decay = np.exp(-cfg.h2 * axi)
    w1hat, w2hat = pair.omega1.coefficients, pair.omega2.coefficients
    fhat = f.f.coefficients
    n_w2 = w2hat - (-cfg.a_kappa * decay * w1hat)
    n_w1 = w1hat - (-cfg.a_mu * decay * w2hat - 2.0 * cfg.a_rho * (1j * xi) * fhat)
    denom = _depth_growth(axi, cfg) - cfg.a_kappa * cfg.a_mu
    sgn = np.sign(xi)
    n1 = -0.5j * sgn * decay * n_w2
    n2 = 0.5j * sgn * cfg.a_kappa / denom * n_w1
    n3 = 0.5j * sgn * cfg.a_kappa * cfg.a_mu * decay / denom * n_w2
    n0 = i1f.coefficients / (2.0 * np.pi) - 0.5 * (-1j * sgn) * w1hat
    n4 = i3f.coefficients / (2.0 * np.pi) - 0.5 * (-1j * sgn) * decay * w2hat

    def size(c):
        return float(np.sum(np.abs(c)))

    return {"N0": size(n0), "N1": size(n1), "N2": size(n2), "N3": size(n3),
            "N4": size(n4), "N(omega1)": size(n_w1), "N(omega2)": size(n_w2)}


def nonlinear_tendency(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions,
                       carry: MonitorState | None = None) -> np.ndarray:
    """Coefficients of the nonlinear remainder N(f) = rhs - linear part.

    ``carry`` warm-starts the strength solve from the previous evaluation's.
    The spectrum is exactly Hermitian when the interface's is: every part is
    a symmetrized ``forward`` or a real even multiplier times its spectrum.
    """
    return _assemble(f, cfg, opts, carry=carry)[3]


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs ** 2 / 6.0 + zs ** 3 / 24.0
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs ** 2 / 24.0 + zs ** 3 / 120.0
    zb = z[~small]
    # past |z| = 1.3e154 z^2 is inf, and the quotient its limit 0
    with np.errstate(over="ignore"):
        out[~small] = (np.expm1(zb) - zb) / zb ** 2
    return out


def _stepper_coeffs(grid: GridSpec, cfg: FluidConfig, dt: float):
    """exp(z), dt phi1(z) and dt phi2(z) of the two-stage scheme, z = -m(xi) dt."""
    z = -linear_symbol(grid.wavenumbers(), cfg) * dt
    return np.exp(z), dt * _phi1(z), dt * _phi2(z)


def step(state: InterfaceField, dt: float, cfg: FluidConfig,
         opts: SolverOptions | None = None,
         coeffs: tuple | None = None,
         carry: MonitorState | None = None) -> InterfaceField:
    """One two-stage exponential-integrator (ETDRK2) step.

    The linear multiplier is applied through its exact integrating factor; the
    nonlinear remainder is treated explicitly.  ``coeffs`` are the
    ``_stepper_coeffs`` of this dt, computed here when not supplied.  Each
    stage's strength solve starts from the previous one's, across steps too
    when ``carry``, a run's ``MonitorState``, is kept.  The stage and the new
    spectrum are exactly Hermitian when the state's is, as the coefficients
    are real and even in xi.
    """
    opts = opts or SolverOptions()
    carry = carry or MonitorState()
    if dt <= 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    grid = state.f.grid
    exp_lin, dt_phi1, dt_phi2 = coeffs or _stepper_coeffs(grid, cfg, dt)

    fhat = state.f.coefficients
    n0 = nonlinear_tendency(state, cfg, opts, carry=carry)
    if not np.all(np.isfinite(n0)):
        raise BlowUpError("non-finite nonlinear tendency", state)

    speed = float(np.max(np.abs(inverse_coefficients(n0, grid))))
    xi_max = float(np.max(np.abs(grid.wavenumbers())))
    if dt * speed * xi_max > opts.cfl_bound:
        raise StepSizeError(
            f"dt*max|N|*xi_max = {dt * speed * xi_max:.3g} exceeds bound {opts.cfl_bound}"
        )

    stage = exp_lin * fhat + dt_phi1 * n0
    fld = InterfaceField(SpectralField(grid, stage), state.time)
    n1 = nonlinear_tendency(fld, cfg, opts, carry=carry)
    if not np.all(np.isfinite(n1)):
        raise BlowUpError("non-finite nonlinear tendency (stage two)", state)
    new_hat = stage + dt_phi2 * (n1 - n0)
    if not np.all(np.isfinite(new_hat)):
        raise BlowUpError("non-finite coefficients after step", state)
    return InterfaceField(SpectralField(grid, new_hat), state.time + dt)


# one trajectory row per snapshot, in the column order of trajectory.csv
TRAJECTORY_COLUMNS = ("t", "F01", "F11", "F21", "F3half", "L2nu", "strip_radius",
                      "budget_s0_lhs", "budget_s0_rhs", "budget_s1_lhs", "budget_s1_rhs",
                      "leakage")


@dataclass
class TrajectoryRecord:
    """One row per snapshot keyed by ``TRAJECTORY_COLUMNS``, and how the run ended."""

    rows: list = field(default_factory=list)
    final_state: InterfaceField | None = None
    budget_violated: bool = False


@dataclass(frozen=True)
class Schedule:
    t_end: float
    dt: float
    snapshot_every: int = 1   # snapshot every k-th step

    def __post_init__(self):
        if not (0 < self.t_end < math.inf and 0 < self.dt < math.inf) or self.snapshot_every < 1:
            raise ConfigurationError("schedule needs finite t_end > 0 and dt > 0, "
                                     "snapshot_every >= 1")
        # the run takes whole steps, so it ends at t_end only if dt divides it
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigurationError(f"t_end {self.t_end!r} is not a whole number of steps "
                                     f"of dt {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class MonitorState:
    """What one run carries from snapshot to snapshot and from solve to solve.

    The monitors' accumulators compare against constants of the initial
    datum's certificate, which a resume recomputes instead of reading back.
    ``correction`` holds samples of the last strength solve's nonlinear part,
    omega1 minus its linear strength M (-2 A_rho df); the next solve starts
    from its own linear strength plus it, and a payload without it starts
    cold.  One written before the solve was preconditioned (omega1 +
    2 A_rho df) still loads as a start, reaching the same strengths, though
    not bit for bit.  ``kernels`` is scratch: the ``vorticity._Workspace``
    row storage, allocated by the first solve whose snapshot sums the self
    terms by the rows, and left out of the payload.
    """

    integral: dict = field(default_factory=lambda: {0: 0.0, 1: 0.0})
    correction: np.ndarray | None = None
    kernels: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_payload(self) -> dict:
        hx = lambda v: float(v).hex()
        payload = {"integral": [hx(self.integral[0]), hx(self.integral[1])]}
        if self.correction is not None:
            payload["correction"] = [hx(v) for v in self.correction]
        return payload

    @classmethod
    def from_payload(cls, p: dict) -> "MonitorState":
        fh = float.fromhex
        return cls(integral={0: fh(p["integral"][0]), 1: fh(p["integral"][1])},
                   correction=(np.array([fh(v) for v in p["correction"]])
                               if "correction" in p else None))


def run(f0: InterfaceField, cfg: FluidConfig, schedule: Schedule,
        opts: SolverOptions | None = None,
        certificate: "certify.Certificate | None" = None,
        on_snapshot=None,
        resume: "tuple[InterfaceField, int, MonitorState] | None" = None) -> TrajectoryRecord:
    """Advance to t_end recording one row per snapshot, with the running budget inequality.

    Each row is handed to ``on_snapshot(step_index, state, row, monitor)`` as
    it is taken.  The budget checks use nu from the certificate of ``f0``
    (computed here when not supplied) and the time integral of F^{s+1,1}_nu by
    the trapezoid rule over snapshots.  Budget violations are flagged, never
    silently dropped.  Every strength solve starts from the previous one's
    correction.  ``resume = (state, step_index, monitor)``, as checkpointed,
    continues a previous run of the same ``f0`` with bitwise-identical
    arithmetic; a monitor of None starts the accumulators at zero.
    """
    opts = opts or SolverOptions()
    state, start_step, monitor = resume or (f0, 0, None)
    monitor = monitor or MonitorState()
    check_geometry(state.samples(), cfg)
    check_leakage(state, opts.leakage_threshold)
    cert = certificate or certify.certify_datum(f0, cfg)
    # the monitors need nu >= 0; an out-of-ledger datum may certify none or a
    # negative one
    nu = max(cert.nu or 0.0, 0.0)
    th = certify.theta(cfg)
    # an inadmissible datum may have sigma_s > theta; a negative coefficient
    # would let the budget pass vacuously, so it checks F^{s,1}(t) <= F^{s,1}(0)
    coef = {s: max(cfg.a_rho * (th - cert.sigma[s]) - nu, 0.0)
            if cert.sigma[s] is not None else 0.0 for s in (0, 1)}
    rhs0 = (cert.a0, cert.a1)

    rec = TrajectoryRecord()
    n_steps = schedule.n_steps
    coeffs = _stepper_coeffs(f0.f.grid, cfg, schedule.dt)

    def take_snapshot(step_index: int, st: InterfaceField):
        t = st.time
        rep = norm_report(st.f, nu, t)
        # trapezoid from the previous row; a resumed run's first snapshot has none
        if rec.rows:
            prev = rec.rows[-1]
            dt_snap = t - prev["t"]
            monitor.integral[0] += 0.5 * dt_snap * (prev["F11"] + rep.f11)
            monitor.integral[1] += 0.5 * dt_snap * (prev["F21"] + rep.f21)
        lhs = [norm + coef[s] * monitor.integral[s] for s, norm in enumerate((rep.f01, rep.f11))]
        if not all(lhs[s] <= rhs0[s] * (1.0 + 1e-6) for s in (0, 1)):
            rec.budget_violated = True
        radius = float("nan") if rep.strip_radius is None else rep.strip_radius
        row = dict(zip(TRAJECTORY_COLUMNS, (
            t, rep.f01, rep.f11, rep.f21, rep.f3half, rep.l2nu, radius,
            lhs[0], rhs0[0], lhs[1], rhs0[1], leakage(st))))
        rec.rows.append(row)
        if on_snapshot is not None:
            on_snapshot(step_index, st, row, monitor)
        if row["leakage"] > opts.leakage_threshold:
            raise GeometryError(
                f"boundary leakage {row['leakage']:.3g} exceeds threshold "
                f"{opts.leakage_threshold:.3g} at t={t:g}"
            )

    take_snapshot(start_step, state)
    for i in range(start_step, n_steps):
        state = step(state, schedule.dt, cfg, opts, coeffs=coeffs, carry=monitor)
        # the clock counts whole steps, so a resumed run keeps the same times
        state = InterfaceField(state.f, (i + 1) * schedule.dt)
        if (i + 1) % schedule.snapshot_every == 0 or (i + 1) == n_steps:
            take_snapshot(i + 1, state)

    rec.final_state = state
    return rec


# ---------------------------------------------------------------------------
# Checkpointing: exact round-trip of doubles via hex floats.

CHECKPOINT_SCHEMA = "muskatjump-checkpoint-v1"


def checkpoint_payload(state: InterfaceField, cfg: FluidConfig, step_index: int,
                       dt: float, monitor: MonitorState | None = None) -> dict:
    c = state.f.coefficients
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "config_hash": cfg.hash(),
        "step_index": step_index,
        "dt_hex": float(dt).hex(),
        "time_hex": float(state.time).hex(),
        "n_points": state.f.grid.n_points,
        "domain_length_hex": float(state.f.grid.domain_length).hex(),
        "coeff_re_hex": [float(v).hex() for v in c.real],
        "coeff_im_hex": [float(v).hex() for v in c.imag],
    }
    if monitor is not None:
        payload["monitor"] = monitor.to_payload()
    return payload


def save_checkpoint(path, state: InterfaceField, cfg: FluidConfig, step_index: int,
                    dt: float, monitor: MonitorState | None = None) -> None:
    # one dumps call: json.dump streams through the pure-Python encoder
    text = json.dumps(checkpoint_payload(state, cfg, step_index, dt, monitor), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)


def load_checkpoint(path, cfg: FluidConfig | None = None):
    """State, step index, dt and monitor accumulators of a checkpoint file.

    Monitor keys other than the accumulators, written by older versions, are
    ignored.  A file that is missing, not JSON or incomplete raises
    ConfigurationError naming the path.  The state holds the exact Hermitian
    projection of the stored spectrum (see ``InterfaceField``); one written
    by ``save_checkpoint`` already is Hermitian, bit for bit.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise ConfigurationError(f"unknown checkpoint schema {payload.get('schema')!r}")
        if cfg is not None and payload["config_hash"] != cfg.hash():
            raise ConfigurationError("checkpoint was written under a different configuration")
        grid = GridSpec(payload["n_points"], float.fromhex(payload["domain_length_hex"]))
        re = np.array([float.fromhex(v) for v in payload["coeff_re_hex"]])
        im = np.array([float.fromhex(v) for v in payload["coeff_im_hex"]])
        state = InterfaceField(SpectralField(grid, re + 1j * im),
                               float.fromhex(payload["time_hex"]))
        monitor = MonitorState.from_payload(payload["monitor"]) if "monitor" in payload else None
        if monitor is not None and monitor.correction is not None \
                and monitor.correction.shape != (grid.n_points,):
            raise ConfigurationError("checkpoint strength correction does not match its grid")
        return state, payload["step_index"], float.fromhex(payload["dt_hex"]), monitor
    except KeyError as exc:
        raise ConfigurationError(f"checkpoint {path} lacks key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"checkpoint {path}: {exc}") from exc
