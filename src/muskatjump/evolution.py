"""Interface evolution: right-hand side assembly, exponential integrator, trajectories.

The graph height advances by (I1 + I2 + I3 + I4)/2pi.  The fast path computes
the self-induction integrals I1, I2 from two alternating-rule sums (the
offsets nearest zero summed directly, the rest by their difference-quotient
series, split once per snapshot), and the line-coupling integrals I3, I4 by
the snapshot's Chebyshev interpolant in the height (``muskatjump.vorticity``),
which raises a ``GeometryError`` where it would need more than N nodes.
The exact linear multiplier m(xi) is removed and handled by the integrating
factor of the exponential Adams-Bashforth scheme ETD2 (Cox & Matthews, JCP
176, 2002), one nonlinear tendency per step.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import certify
from .errors import BlowUpError, ConfigurationError, GeometryError, StepSizeError
from .norms import norm_report
from .spectral import (GridSpec, SpectralField, dealias_mask, forward, hermitian_extension,
                       hermitian_symmetrize, inverse)
from .vorticity import (DEFAULT_PICARD_MAX_ITER, DEFAULT_PICARD_TOL, DEFAULT_SERIES_TOL,
                        FluidConfig, VorticityPair, _check_gap, _Workspace, solve_vorticity)

DEFAULT_LEAKAGE_THRESHOLD = 1e-4
DEFAULT_CFL_BOUND = 1.0
_PHI_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class InterfaceField:
    """Graph height of the fluid interface at one time.

    A spectrum within 1e-10 of Hermitian symmetry is accepted and stored as
    its exact projection, so the height is real by construction and the
    step keeps it so; the projection leaves ``forward``'s spectra bit for
    bit, and is the extension of its half spectrum k = 0..N/2, which a v2
    checkpoint stores.
    The states that ``step`` and ``run`` build are exactly Hermitian and
    finite already, so they skip the check (``_trusted``).
    """

    f: SpectralField
    time: float = 0.0

    def __post_init__(self):
        c = self.f.coefficients
        sym = hermitian_symmetrize(c)
        # c - sym is half of c minus its conjugate mirror; a NaN fails the test
        if not 2.0 * np.max(np.abs(c - sym)) <= 1e-10 * max(np.max(np.abs(c)), 1.0):
            raise ConfigurationError("interface height must be real-symmetric")
        if not 0.0 <= self.time < math.inf:
            raise ConfigurationError(f"time must be nonnegative and finite, got {self.time!r}")
        object.__setattr__(self, "f", self.f.with_coefficients(sym))

    @classmethod
    def from_samples(cls, samples, grid: GridSpec) -> "InterfaceField":
        return cls(forward(np.asarray(samples, dtype=float), grid))

    @classmethod
    def _trusted(cls, f: SpectralField, time: float) -> "InterfaceField":
        """A state whose spectrum is exactly Hermitian and finite by construction: not
        checked, copied or projected again."""
        state = object.__new__(cls)
        object.__setattr__(state, "f", f)
        object.__setattr__(state, "time", time)
        return state

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
    """The four interface integrals I1..I4, dealiased, and the strengths solved."""

    i1: SpectralField
    i2: SpectralField
    i3: SpectralField
    i4: SpectralField
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


def linear_symbol(xi, cfg: FluidConfig):
    """Exact decay rate m(xi) of the linearized evolution; the linear part is -m(xi) f_hat."""
    axi = np.abs(xi)
    # exp(2 h2 |xi|) is inf past the double range, where the quotient by it is its limit 0
    with np.errstate(over="ignore"):
        growth = np.exp(2.0 * cfg.h2 * axi)
    return cfg.a_rho * axi * (
        1.0 - cfg.a_kappa * (1.0 - cfg.a_mu) / (growth - cfg.a_kappa * cfg.a_mu)
    )


@lru_cache(maxsize=32)
def _dealiased_linear(grid: GridSpec, cfg: FluidConfig) -> np.ndarray:
    """Read-only -m(xi) on k = 0..N/2, zero above the 2/3 cutoff."""
    half = grid.nyquist_index() + 1
    out = np.where(dealias_mask(grid)[:half], -linear_symbol(grid.wavenumbers()[:half], cfg), 0.0)
    out.flags.writeable = False
    return out


def _solve(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions,
           carry: MonitorState | None = None):
    """Strength solve and its workspace.

    One kernel backend serves the strength solve and the right-hand side, and
    the solve's last evaluation is the right-hand side's: it holds the two
    self sums S0, S1 and the line coupling P omega2, CP omega2.  With a
    ``carry`` the solve starts from, and appends to, its corrections
    (``solve_vorticity``).
    """
    ws = _Workspace(f, cfg, opts.series_tol)
    pair = solve_vorticity(f, cfg, tol=opts.picard_tol, max_iter=opts.picard_max_iter,
                           workspace=ws, corrections=carry.corrections if carry else None)
    return pair, ws


def rhs(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions | None = None) -> RhsBreakdown:
    """Assemble the four interface integrals, dealiased, and the strengths solved.

    I1 = S0, I2 = df S1, I3 = CP omega2 and I4 = df P omega2 are read off the
    strength solve's last evaluation, as the step's tendency is, and take one
    batched transform of their own; ``nonlinear_tendency`` gives their split.
    """
    opts = opts or SolverOptions()
    grid = f.f.grid
    check_leakage(f, opts.leakage_threshold)
    pair, ws = _solve(f, cfg, opts)
    ev = pair.evaluation
    spectra = np.fft.rfft([ev.s0, ws.dF * ev.s1, ev.cp, ws.dF * ev.p], norm="forward")
    parts = np.where(dealias_mask(grid)[: grid.nyquist_index() + 1], spectra, 0.0)
    i1f, i2f, i3f, i4f = (SpectralField(grid, c) for c in hermitian_extension(parts, grid))
    return RhsBreakdown(i1=i1f, i2=i2f, i3=i3f, i4=i4f, pair=pair)


def nonlinear_tendency(f: InterfaceField, cfg: FluidConfig, opts: SolverOptions,
                       carry: MonitorState | None = None) -> np.ndarray:
    """Half spectrum k = 0..N/2 of the nonlinear remainder N(f), the one linear/nonlinear
    split: ``rhs``'s (I1 + I2 + I3 + I4)/2pi minus the linear part -m(xi) f_hat.

    The sum I1 + I2 + I3 + I4 = S0 + CP omega2 + df (S1 + P omega2) is one
    transform of the solve's last evaluation, and the remainder is its
    dealiased half spectrum over 2pi minus the linear part.  ``carry``
    warm-starts the strength solve from the previous evaluations'.
    """
    grid = f.f.grid
    pair, ws = _solve(f, cfg, opts, carry=carry)
    ev = pair.evaluation
    half = grid.nyquist_index() + 1
    # I1 + I2 + I3 + I4 in sample space
    total = ev.s1 + ev.p
    total *= ws.dF
    total += ev.s0
    total += ev.cp
    # both sides of the split live on the dealiased band, so the remainder is
    # identically zero above the 2/3 cutoff and high modes evolve purely by
    # the integrating factor
    nonlinear_half = np.where(dealias_mask(grid)[:half], np.fft.rfft(total, norm="forward"), 0.0)
    nonlinear_half /= 2.0 * np.pi
    nonlinear_half -= _dealiased_linear(grid, cfg) * f.f.coefficients[:half]
    return nonlinear_half


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, from one e^z - 1."""
    phi1, phi2 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUTOFF
    zs, zb = z[small], z[~small]
    phi1[small] = 1.0 + zs / 2.0 + zs ** 2 / 6.0 + zs ** 3 / 24.0
    phi2[small] = 0.5 + zs / 6.0 + zs ** 2 / 24.0 + zs ** 3 / 120.0
    em1 = np.expm1(zb)
    phi1[~small] = em1 / zb
    # past |z| = 1.3e154 z^2 is inf, and the quotient its limit 0
    with np.errstate(over="ignore"):
        phi2[~small] = (em1 - zb) / zb ** 2
    return phi1, phi2


@lru_cache(maxsize=32)
def _stepper_coeffs(grid: GridSpec, cfg: FluidConfig, dt: float):
    """Read-only exp(z), dt phi1(z) and dt phi2(z) on the half spectrum k = 0..N/2,
    z = -m(xi) dt."""
    z = -linear_symbol(grid.wavenumbers()[: grid.nyquist_index() + 1], cfg) * dt
    phi1, phi2 = _phi(z)
    out = (np.exp(z), dt * phi1, dt * phi2)
    for a in out:
        a.flags.writeable = False
    return out


def step(state: InterfaceField, dt: float, cfg: FluidConfig,
         opts: SolverOptions | None = None,
         carry: MonitorState | None = None) -> InterfaceField:
    """One step of the exponential Adams-Bashforth scheme ETD2, one nonlinear tendency.

    The linear multiplier is applied through its exact integrating factor e^z,
    the nonlinear remainder N explicitly:
    f_{n+1} = e^z f_n + dt phi1 N_n + dt phi2 (N_n - N_{n-1}).  ``carry``, a
    run's ``MonitorState`` at one dt, holds N_{n-1} and the solve's start;
    without N_{n-1} (a run's first step, or no ``carry``) the step is ETD1,
    e^z f_n + dt phi1 N_n.  The update runs on the half spectrum k = 0..N/2;
    the new state is built from it as ``load_checkpoint`` builds one, exactly
    Hermitian, and is checked finite, so it is not checked again.  The CFL
    check dt max|N| xi_max <= ``cfl_bound`` bounds max|N| first by
    |n_0| + 2 |n_1| + ... + 2 |n_{N/2-1}| + |n_{N/2}|, and transforms N only
    where that bound is above half the limit: past the margin the bound's
    rounding cannot pass a step that the exact check rejects.
    """
    opts = opts or SolverOptions()
    carry = carry or MonitorState()
    if dt <= 0:
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    grid = state.f.grid
    half = grid.nyquist_index() + 1
    exp_lin, phi1_dt, phi2_dt = _stepper_coeffs(grid, cfg, dt)

    n_prev = carry.tendency
    n0 = nonlinear_tendency(state, cfg, opts, carry=carry)
    new_half = exp_lin * state.f.coefficients[:half] + phi1_dt * n0
    if n_prev is not None:
        new_half += phi2_dt * (n0 - n_prev)
    # e^z, dt phi1, dt phi2 and the state are finite, so a non-finite n_k
    # leaves the new mode k non-finite: one pass finds either blow-up
    finite = bool(np.all(np.isfinite(new_half)))
    if not finite and not np.all(np.isfinite(n0)):
        raise BlowUpError("non-finite nonlinear tendency", state)

    # the largest |xi|, at the Nyquist slot, which carries -N/2
    xi_max = float(-grid.wavenumbers()[grid.nyquist_index()])
    size = np.abs(n0)
    if dt * xi_max * float(2.0 * np.sum(size) - size[0] - size[-1]) > 0.5 * opts.cfl_bound:
        speed = float(np.max(np.abs(np.fft.irfft(n0, grid.n_points, norm="forward"))))
        if dt * speed * xi_max > opts.cfl_bound:
            raise StepSizeError(
                f"dt*max|N|*xi_max = {dt * speed * xi_max:.3g} exceeds bound {opts.cfl_bound}"
            )
    if not finite:
        raise BlowUpError("non-finite coefficients after step", state)
    carry.tendency = n0
    # real k = 0 and N/2 modes make the extension its own projection, bit for bit
    new_half.imag[[0, -1]] = 0.0
    new_hat = hermitian_extension(new_half, grid)
    return InterfaceField._trusted(SpectralField._adopt(grid, new_hat), state.time + dt)


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
    """What one run carries from snapshot to snapshot and from step to step.

    The monitors' accumulators compare against constants of the initial
    datum's certificate, which a resume recomputes instead of reading back.
    ``corrections`` holds, oldest first, the last (at most four) strength
    solves' corrections (``solve_vorticity``), from which the next solve
    starts.  ``tendency`` is the last step's nonlinear tendency
    N_{n-1}, a half spectrum k = 0..N/2.  ``from_payload`` reads the monitor
    block of a v2 checkpoint; one without them starts the solve cold and the
    next step as ETD1.
    """

    integral: dict = field(default_factory=lambda: {0: 0.0, 1: 0.0})
    corrections: list = field(default_factory=list)
    tendency: np.ndarray | None = None

    @classmethod
    def from_payload(cls, p: dict, grid: GridSpec) -> "MonitorState":
        fh = float.fromhex
        mon = cls(integral={0: fh(p["integral"][0]), 1: fh(p["integral"][1])},
                  corrections=[_from_hex(v, "<f8") for v in p.get("corrections", [])],
                  tendency=_from_hex(p["tendency"], "<c16") if "tendency" in p else None)
        if any(c.shape != (grid.n_points,) for c in mon.corrections) or (
                mon.tendency is not None and mon.tendency.shape != (grid.nyquist_index() + 1,)):
            raise ConfigurationError("checkpoint history does not match its grid")
        return mon


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
    silently dropped.  Every strength solve starts from the extrapolation of
    the previous ones, and every step after the first is ETD2.
    ``resume = (state, step_index, monitor)``, as checkpointed, continues a
    previous run of the same ``f0`` with bitwise-identical arithmetic; a
    monitor of None starts the accumulators at zero.
    """
    opts = opts or SolverOptions()
    state, start_step, monitor = resume or (f0, 0, None)
    monitor = monitor or MonitorState()
    _check_gap(float(np.min(state.samples())), cfg)
    # a resumed run's first snapshot checks its leakage after writing its row
    if resume is None:
        check_leakage(state, opts.leakage_threshold)
    cert = certificate or certify.certify_datum(f0, cfg)
    # the monitors need nu >= 0; an out-of-ledger datum may certify none or a
    # negative one
    nu = max(cert.nu or 0.0, 0.0)
    th = cert.theta
    # an inadmissible datum may have sigma_s > theta; a negative coefficient
    # would let the budget pass vacuously, so it checks F^{s,1}(t) <= F^{s,1}(0)
    coef = {s: max(cfg.a_rho * (th - cert.sigma[s]) - nu, 0.0)
            if cert.sigma[s] is not None else 0.0 for s in (0, 1)}
    rhs0 = (cert.a0, cert.a1)

    rec = TrajectoryRecord()
    n_steps = schedule.n_steps

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
        state = step(state, schedule.dt, cfg, opts, carry=monitor)
        # the clock counts whole steps, so a resumed run keeps the same times
        state = InterfaceField._trusted(state.f, (i + 1) * schedule.dt)
        if (i + 1) % schedule.snapshot_every == 0 or (i + 1) == n_steps:
            take_snapshot(i + 1, state)

    rec.final_state = state
    return rec


# ---------------------------------------------------------------------------
# Checkpointing: exact round-trip of doubles as their raw little-endian bytes.

CHECKPOINT_SCHEMA = "muskatjump-checkpoint-v2"


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it, renamed onto it."""
    # a kill leaves the file under its final name whole, old or new
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _to_hex(a: np.ndarray, dtype: str) -> str:
    return np.asarray(a, dtype).tobytes().hex()


def _from_hex(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype)


def save_checkpoint(path, state: InterfaceField, binding: "str | FluidConfig", step_index: int,
                    dt: float, monitor: MonitorState | None = None) -> None:
    """Write what ``load_checkpoint`` reads, as ``muskatjump-checkpoint-v2``.

    ``binding``, the hash ``cli`` takes of a run's config, is stored so that
    only that run resumes from the file; data written outside a run pass
    their ``FluidConfig``, whose hash binds the fluid only.  The half spectrum
    k = 0..N/2, the corrections and N_{n-1} are the hex of their
    little-endian doubles, the scalars ``float.hex`` strings.
    """
    grid = state.f.grid
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "config_hash": binding if isinstance(binding, str) else binding.hash(),
        "step_index": step_index,
        "dt_hex": float(dt).hex(),
        "time_hex": float(state.time).hex(),
        "n_points": grid.n_points,
        "domain_length_hex": float(grid.domain_length).hex(),
        "spectrum": _to_hex(state.f.coefficients[: grid.nyquist_index() + 1], "<c16"),
    }
    if monitor is not None:
        payload["monitor"] = {
            "integral": [float(monitor.integral[s]).hex() for s in (0, 1)],
            "corrections": [_to_hex(c, "<f8") for c in monitor.corrections],
        }
        if monitor.tendency is not None:
            payload["monitor"]["tendency"] = _to_hex(monitor.tendency, "<c16")
    write_atomic(path, json.dumps(payload))


def load_checkpoint(path, binding: "str | FluidConfig | None" = None):
    """State, step index, dt and monitor of a ``muskatjump-checkpoint-v2`` file.

    With a ``binding`` (see ``save_checkpoint``) the file must carry its
    hash.  Other monitor keys, written by older versions, are ignored.  A
    file that is missing, not JSON or incomplete raises ConfigurationError
    naming the path; a file of another schema, v1 included, raises one naming
    that schema.  The state holds the exact Hermitian projection of the
    stored half spectrum k = 0..N/2, extended (``InterfaceField``); every
    saved state loads bit for bit.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        schema = payload.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise ConfigurationError(f"unknown checkpoint schema {schema!r}")
        if binding is not None and payload["config_hash"] != (
                binding if isinstance(binding, str) else binding.hash()):
            raise ConfigurationError("checkpoint was written under a different configuration")
        grid = GridSpec(payload["n_points"], float.fromhex(payload["domain_length_hex"]))
        half = _from_hex(payload["spectrum"], "<c16")
        if half.shape != (grid.nyquist_index() + 1,):
            raise ConfigurationError("checkpoint spectrum does not match its grid")
        state = InterfaceField(SpectralField(grid, hermitian_extension(half, grid)),
                               float.fromhex(payload["time_hex"]))
        monitor = MonitorState.from_payload(payload["monitor"], grid) \
            if "monitor" in payload else None
        step_index = payload["step_index"]
        if type(step_index) is not int or step_index < 0:
            raise ConfigurationError(f"step_index {step_index!r} is not a non-negative integer")
        return state, step_index, float.fromhex(payload["dt_hex"]), monitor
    except KeyError as exc:
        raise ConfigurationError(f"checkpoint {path} lacks key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"checkpoint {path}: {exc}") from exc
