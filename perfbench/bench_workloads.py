"""Seeded inputs, timed operations and output checks of the workloads.

Every workload is driven through ``muskatjump.cli.main``, the way a user runs
the package.  The generator turns ``--seed`` into config and checkpoint files;
the program sees nothing else.  The amount of work is a fixed function of
``--seconds`` (sized so one run takes about that long at the commit that
defined the benchmark), so two commits always do the same work.

Workloads:

* ``decay512``: ``run`` on the acceptance decay case, the criterion-4 packet
  translated by a seeded shift and handed over as a ``from_file``
  checkpoint.  Weak coupling, many small Picard solves, series path, a
  snapshot and checkpoint every 5 steps.
* ``certify_scan``: ``certify`` on (fluid, datum) pairs drawn from the stored
  reference pool; each fluid configuration is certified for several data.

A failed operation is never retried or re-drawn; it is counted.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("decay512", "certify_scan")

DECAY_FLUID = {"a_kappa": 0.5, "a_mu": 0.2, "a_rho": 1.0, "h2": 1.0}
DECAY_GRID = {"n_points": 512, "domain_length": 400.0 * math.pi}
DECAY_DT = 0.1
DECAY_STEPS_PER_SECOND = 9
DECAY_LEAKAGE = 1e-3

CERTIFICATES_PER_SECOND = 2.8

# Criterion 3: fast right-hand side against the O(N^2) oracle.
ORACLE_RTOL = 1e-6
# The oracle's trapezoid sums of the line-coupling kernels alias like
# exp(-2 pi h2 / spacing): on the decay grid (spacing 2.45) that is a 4e-2
# disagreement at t=0 that no correct fast path could remove.  A final state
# on a coarser grid is therefore compared after spectral interpolation to a
# grid at most this fine (3.6e-8 measured on the decay packet at N=3072).
ORACLE_MAX_SPACING = 0.42
# k0 and k1 come from a 60-step bisection on tau in (1e-6, 1), which resolves
# tau below one ulp; nu comes from ledger series summed to a 1e-12 tail.  A
# relative 1e-9 admits a re-ordered sum or another root finder of the same
# resolution and still catches any change that could move a verdict.
REFERENCE_RTOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "certify_reference.json"


@dataclass
class Op:
    """One CLI invocation and, after it ran, its outcome."""

    kind: str                      # "certify" or "run"
    argv: list
    config: dict
    outdir: Path | None = None
    expect: dict = field(default_factory=dict)
    exit: int | None = None
    seconds: float = 0.0
    stdout: str = ""
    stderr: str = ""


@dataclass
class Job:
    ops: list
    repeat_share: float = 0.0   # certificates whose fluid config came earlier in the job


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q of all at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * len(ordered), 9))) - 1]


# ---------------------------------------------------------------------------
# input generation

def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


def make_config(fluid, grid, initial, t_end, dt, snapshot_every, seed, solver=None) -> dict:
    cfg = {"version": 1, "fluid": dict(fluid), "grid": dict(grid),
           "initial_data": initial,
           "schedule": {"t_end": t_end, "dt": dt, "snapshot_every": snapshot_every},
           "seed": seed}
    if solver:
        cfg["solver"] = solver
    return cfg


def _decay_packet(grid, shift: float, a0_target: float = 0.034, xc: float = 0.01,
                  xi_hi: float = 0.5):
    """Criterion-4 datum (envelope ~1/|xi| over [xc, xi_hi]) centred at L/2 + shift."""
    from muskatjump.evolution import InterfaceField
    from muskatjump.spectral import SpectralField, hermitian_symmetrize
    xi = grid.wavenumbers()
    axi = np.abs(xi)
    env = xc * axi ** 2 / (xc ** 2 + axi ** 2) ** 1.5 * np.exp(-((axi / xi_hi) ** 2))
    env[0] = 0.0
    env[grid.nyquist_index()] = 0.0
    c = hermitian_symmetrize(env * np.exp(-1j * xi * (grid.domain_length / 2.0 + shift)))
    c = c * (a0_target / np.sum(np.abs(c)))
    return InterfaceField(SpectralField(grid, c, 0.0), 0.0)


def make_job(workload: str, seed: int, seconds: int, workdir: Path) -> Job:
    """Write the workload's inputs for this seed into workdir and list its operations.

    decay512 is one `run`, as a user runs it: one process, one cold
    certificate, so a per-config cache cannot hit there.
    """
    from muskatjump.evolution import save_checkpoint
    from muskatjump.spectral import GridSpec
    from muskatjump.vorticity import FluidConfig

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "decay512":
        grid = GridSpec(DECAY_GRID["n_points"], DECAY_GRID["domain_length"])
        shift = float(rng.uniform(-1.0, 1.0)) * grid.domain_length / 32.0
        ckpt = workdir / "decay512-initial.json"
        save_checkpoint(ckpt, _decay_packet(grid, shift), FluidConfig(**DECAY_FLUID), 0, DECAY_DT)
        steps = max(1, round(DECAY_STEPS_PER_SECOND * seconds))
        config = make_config(DECAY_FLUID, DECAY_GRID, {"preset": "from_file", "path": str(ckpt)},
                             steps * DECAY_DT, DECAY_DT, 5, seed,
                             solver={"leakage_threshold": DECAY_LEAKAGE})
        cfg_path = write_config(workdir / "decay512.json", config)
        outdir = workdir / "decay512-out"
        return Job([Op("run", ["run", "--config", str(cfg_path), "--output-dir", str(outdir)],
                       config, outdir=outdir, expect={"steps": steps})])
    if workload == "certify_scan":
        reference = load_reference()
        return certify_job(reference, rng, max(1, round(CERTIFICATES_PER_SECOND * seconds)),
                           workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")


def certify_job(reference: dict, rng, n_certs: int, workdir: Path, seed: int) -> Job:
    """n_certs certificates cycling over every pooled fluid config, seeded data and order."""
    configs = reference["configs"]
    per_config = [0] * len(configs)
    for i in range(n_certs):
        per_config[i % len(configs)] += 1
    pairs = []
    for ci, count in enumerate(per_config):
        pool = len(configs[ci]["data"])
        picks = [int(j) for j in rng.permutation(pool)]
        pairs += [(ci, picks[k % pool]) for k in range(count)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    ops = []
    seen = set()
    repeats = 0
    for k, (ci, di) in enumerate(pairs):
        entry, datum = configs[ci], configs[ci]["data"][di]
        repeats += ci in seen
        seen.add(ci)
        config = make_config(entry["fluid"], reference["grid"],
                             {"preset": "gaussian_bump", "amplitude": datum["amplitude"],
                              "width": datum["width"]},
                             1.0, 0.1, 1, seed)
        path = write_config(workdir / f"certify-{k:04d}.json", config)
        ops.append(Op("certify", ["certify", "--config", str(path)], config,
                      expect={"config": ci, "datum": di}))
    return Job(ops, repeat_share=repeats / len(pairs))


def warmup_job(rep: int, workdir: Path) -> Job:
    """A tiny run on a fluid config that no timed workload uses, distinct per repetition."""
    workdir.mkdir(parents=True, exist_ok=True)
    fluid = {"a_kappa": 0.3 + 0.01 * rep, "a_mu": 0.1, "a_rho": 1.0, "h2": 1.0}
    config = make_config(fluid, {"n_points": 64, "domain_length": 12.0 * math.pi},
                         {"preset": "gaussian_bump", "amplitude": 0.01, "width": 1.5},
                         0.04, 0.02, 1, rep)
    path = write_config(workdir / "warmup.json", config)
    return Job([Op("run", ["run", "--config", str(path), "--output-dir", str(workdir / "out")],
                   config, outdir=workdir / "out")])


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# execution

def execute(job: Job, cli) -> None:
    """Run every operation of the job in order; a failure is recorded, never retried."""
    for op in job.ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op.exit = cli.main(op.argv)
        except SystemExit as exc:
            op.exit = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            op.exit = None
            err.write(traceback.format_exc())
        op.seconds = time.perf_counter() - t0
        op.stdout, op.stderr = out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# output checks (run after the timed region)

def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_certificate_json(op: Op) -> tuple[dict | None, list]:
    problems = []
    try:
        cert = json.loads(op.stdout)
    except json.JSONDecodeError as exc:
        return None, [f"certificate output is not JSON: {exc}"]
    want_exit = 0 if cert.get("verdict") == "admissible" else 6
    if op.exit != want_exit:
        problems.append(f"exit {op.exit} for verdict {cert.get('verdict')!r}")
    return cert, problems


def check_against_reference(op: Op, cert: dict, reference: dict) -> list:
    entry = reference["configs"][op.expect["config"]]
    want = entry["data"][op.expect["datum"]]
    problems = []
    if cert.get("verdict") != want["verdict"]:
        problems.append(f"verdict {cert.get('verdict')!r} != reference {want['verdict']!r}")
    for key, ref in (("k0", entry["k0"]), ("k1", entry["k1"]), ("nu", want["nu"])):
        if not _close(cert.get(key), ref, REFERENCE_RTOL):
            problems.append(f"{key} {cert.get(key)!r} != reference {ref!r}")
    return problems


def _read_trajectory(path: Path) -> list[dict]:
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _resolved_for_oracle(state):
    """The same band-limited state on a grid fine enough for the oracle's quadrature."""
    from muskatjump.evolution import InterfaceField
    from muskatjump.spectral import GridSpec, SpectralField

    grid = state.f.grid
    factor = math.ceil(grid.spacing / ORACLE_MAX_SPACING - 1e-12)
    if factor <= 1:
        return state
    n, m = grid.n_points, grid.n_points * factor
    c = np.zeros(m, dtype=complex)
    c[: n // 2] = state.f.coefficients[: n // 2]
    c[m - n // 2 + 1:] = state.f.coefficients[n // 2 + 1:]
    fine = GridSpec(m, grid.domain_length)
    return InterfaceField(SpectralField(fine, c, state.time), state.time)


def check_run(op: Op) -> list:
    """Exit code, CSV rows, metadata, F11 monotonicity and the oracle on the final state."""
    from muskatjump.evolution import load_checkpoint

    if op.exit != 0:
        return [f"run exit {op.exit}: {op.stderr.strip()[-300:]}"]
    problems = []
    steps = op.expect["steps"]
    every = op.config["schedule"]["snapshot_every"]
    try:
        rows = _read_trajectory(op.outdir / "trajectory.csv")
        meta = json.loads((op.outdir / "metadata.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable run output: {exc}"]
    want_rows = steps // every + 1 + (steps % every != 0)
    if len(rows) != want_rows:
        problems.append(f"trajectory has {len(rows)} rows, expected {want_rows}")
    if not all(math.isfinite(v) for row in rows for k, v in row.items() if k != "strip_radius"):
        problems.append("non-finite trajectory entry")
    if rows and not math.isclose(rows[-1]["t"], steps * op.config["schedule"]["dt"]):
        problems.append(f"trajectory ends at t={rows[-1]['t']!r}")
    f11 = [row["F11"] for row in rows]
    if any(b > a for a, b in zip(f11, f11[1:])):
        problems.append("F11 increases along the decay run")
    if meta.get("status", {}).get("exit") != 0:
        problems.append(f"metadata status {meta.get('status')!r}")
    meta_cert = meta.get("certificate") or {}
    if meta_cert.get("verdict") != "admissible":
        problems.append(f"run certificate verdict {meta_cert.get('verdict')!r}")

    try:
        state, step_index, _, _ = load_checkpoint(final_checkpoint(op))
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"final checkpoint unreadable: {exc}"]
    if step_index != steps:
        problems.append(f"final checkpoint at step {step_index}, expected {steps}")
    rel = oracle_disagreement(state, op.config)
    if not rel <= ORACLE_RTOL:
        problems.append(f"final-state rhs differs from the oracle by {rel:.3e}")
    return problems


def final_checkpoint(op: Op) -> Path:
    return op.outdir / "checkpoints" / f"ckpt_{op.expect['steps']:08d}.json"


def oracle_disagreement(state, config: dict) -> float:
    """max |fast rhs - oracle rhs| / max |oracle rhs| on the state (criterion 3)."""
    from muskatjump import oracle
    from muskatjump.evolution import SolverOptions, rhs
    from muskatjump.spectral import inverse
    from muskatjump.vorticity import FluidConfig, solve_vorticity

    state = _resolved_for_oracle(state)
    fluid = FluidConfig(**config["fluid"])
    lt = config.get("solver", {}).get("leakage_threshold", 1e-4)
    pair = solve_vorticity(state, fluid)
    br = rhs(state, fluid, SolverOptions(leakage_threshold=lt))
    fast = sum(inverse(p) for p in (br.i1, br.i2, br.i3, br.i4)) / (2.0 * np.pi)
    ref = oracle.quad_rhs(state.samples(), inverse(pair.omega1), inverse(pair.omega2),
                          fluid, state.f.grid.domain_length)
    return float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))


def check_job(job: Job, reference: dict | None = None) -> dict:
    """op index -> list of problems, for every operation that failed a check."""
    failures = {}
    for i, op in enumerate(job.ops):
        try:
            if op.kind == "certify":
                cert, problems = check_certificate_json(op)
                if cert is not None and reference is not None:
                    problems += check_against_reference(op, cert, reference)
            else:
                problems = check_run(op)
        except Exception:
            problems = ["output check raised:\n" + traceback.format_exc()]
        if problems:
            failures[i] = problems
    return failures
