"""Command-line front end: runs, certificates, dispersion tables, oracle checks, sweeps.

Configs are strict JSON (unknown keys rejected).  All numeric output is
written with round-trip precision so identical config + seed produces
byte-identical artifacts; wall-clock timestamps live in a separate metadata
field excluded from reproducibility comparisons.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, certify
from .errors import (BlowUpError, ConfigurationError, GeometryError,
                     PicardDivergenceError, RegimeError, StepSizeError, WeightRangeError)
from .evolution import (TRAJECTORY_COLUMNS, InterfaceField, Schedule, SolverOptions,
                        linear_symbol, load_checkpoint, rhs, run, save_checkpoint, step,
                        write_atomic)
from .spectral import GridSpec, derivative, inverse
from .vorticity import FluidConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_DIVERGENCE = 4
EXIT_BUDGET = 5
EXIT_INADMISSIBLE = 6
EXIT_ORACLE = 7

# failures that end a command, and a run's metadata, in a README exit code; a
# RegimeError means the fluid parameters admit no certificate, a
# WeightRangeError that the budget's weighted norms left the double range
_EXIT_CODES = {ConfigurationError: EXIT_CONFIG, RegimeError: EXIT_CONFIG,
               GeometryError: EXIT_GEOMETRY, PicardDivergenceError: EXIT_DIVERGENCE,
               StepSizeError: EXIT_DIVERGENCE, BlowUpError: EXIT_DIVERGENCE,
               WeightRangeError: EXIT_BUDGET}
_EXIT_LABELS = {EXIT_CONFIG: "configuration error", EXIT_GEOMETRY: "geometry error",
                EXIT_DIVERGENCE: "solver failure", EXIT_BUDGET: "budget failure"}


def _exit_code(exc: Exception) -> int:
    return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))

_SCHEMA = {
    "version": int,
    "fluid": {"a_kappa": float, "a_mu": float, "a_rho": float, "h2": float},
    "grid": {"n_points": int, "domain_length": float},
    "initial_data": dict,
    "schedule": {"t_end": float, "dt": float, "snapshot_every": int},
    "solver?": {"picard_tol?": float, "picard_max_iter?": int, "series_tol?": float,
                "leakage_threshold?": float, "cfl_bound?": float, "order?": int},
    "seed?": int,
}

_INITIAL_DATA_SCHEMAS = {
    "gaussian_bump": {"preset": str, "amplitude": float, "width": float},
    "single_mode": {"preset": str, "k": int, "amplitude": float},
    "from_file": {"preset": str, "path": str},
}


# what each schema type accepts; a bool (json's true or false) is none of them
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int),
               str: ("a string", str), dict: ("an object", dict)}


def _validate(schema: dict, obj, path: str = "config"):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} must be an object")
    required = {k.rstrip("?"): v for k, v in schema.items() if not k.endswith("?")}
    optional = {k.rstrip("?"): v for k, v in schema.items() if k.endswith("?")}
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigurationError(f"unknown key {path}.{key}")
    for key, sub in required.items():
        if key not in obj:
            raise ConfigurationError(f"missing key {path}.{key}")
    for key, sub in {**required, **optional}.items():
        if key not in obj:
            continue
        val = obj[key]
        if isinstance(sub, dict):
            _validate(sub, val, f"{path}.{key}")
        elif not isinstance(val, _JSON_TYPES[sub][1]) or isinstance(val, bool):
            raise ConfigurationError(f"{path}.{key} must be {_JSON_TYPES[sub][0]}")


class Config(NamedTuple):
    """A validated config: its JSON, and each block it describes, built once."""

    raw: dict
    fluid: FluidConfig
    grid: GridSpec
    solver: SolverOptions
    schedule: Schedule


def load_config(path) -> Config:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    _validate(_SCHEMA, raw)
    if raw["version"] != 1:
        raise ConfigurationError(f"unsupported config version {raw['version']!r}")
    preset = raw["initial_data"].get("preset")
    if not isinstance(preset, str) or preset not in _INITIAL_DATA_SCHEMAS:
        raise ConfigurationError(f"unknown initial_data.preset {preset!r}")
    _validate(_INITIAL_DATA_SCHEMAS[preset], raw["initial_data"], "config.initial_data")
    # json reads NaN and Infinity; an infinite bump width would be a flat datum,
    # and one whose square leaves the doubles gives overflowing or NaN samples
    spec = raw["initial_data"]
    if not math.isfinite(spec.get("amplitude", 0.0)):
        raise ConfigurationError("config.initial_data.amplitude must be finite")
    width = spec.get("width", 1.0)
    if not 0.0 < width * width < math.inf:
        raise ConfigurationError("config.initial_data.width must have a positive finite square")
    # every block is built here, so every subcommand rejects the same
    # configs, even for a block it does not read
    f, g, s = raw["fluid"], raw["grid"], raw["schedule"]
    fluid = FluidConfig(f["a_kappa"], f["a_mu"], f["a_rho"], f["h2"])
    grid = GridSpec(int(g["n_points"]), float(g["domain_length"]))
    solver = dict(raw.get("solver", {}))
    # version-1 configs may name the integrator's order; ETD2 is the only one
    order = solver.pop("order", 2)
    if order != 2:
        raise ConfigurationError(f"solver.order must be 2 (ETD2, the exponential "
                                 f"Adams-Bashforth scheme, is the only integrator), got {order!r}")
    return Config(raw, fluid, grid, SolverOptions(**solver),
                  Schedule(float(s["t_end"]), float(s["dt"]), int(s["snapshot_every"])))


def _run_hash(conf: Config) -> str:
    """Hash of the config without ``schedule.t_end``: the blocks as built, defaults named,
    every number a float.  A run's checkpoints carry it, so that a resume continues only
    the run that wrote them."""
    blocks = {"fluid": conf.fluid.to_dict(), "grid": conf.raw["grid"],
              "initial_data": conf.raw["initial_data"], "solver": dataclasses.asdict(conf.solver),
              "schedule": {"dt": conf.schedule.dt, "snapshot_every": conf.schedule.snapshot_every},
              "seed": conf.raw.get("seed")}
    return certify.config_hash(json.loads(json.dumps(blocks), parse_int=float))


def build_initial_data(conf: Config) -> InterfaceField:
    spec, grid = conf.raw["initial_data"], conf.grid
    L = grid.domain_length
    x = grid.nodes()
    preset = spec["preset"]
    if preset == "gaussian_bump":
        F = spec["amplitude"] * np.exp(-((x - L / 2.0) ** 2) / (2.0 * spec["width"] ** 2))
        return InterfaceField.from_samples(F, grid)
    if preset == "single_mode":
        F = spec["amplitude"] * np.cos(2.0 * np.pi * spec["k"] * x / L)
        return InterfaceField.from_samples(F, grid)
    if preset == "from_file":
        state, _, _, _ = load_checkpoint(spec["path"])
        if state.f.grid != grid:
            raise ConfigurationError(f"initial-data file {spec['path']} grid does not match "
                                     f"config grid")
        return InterfaceField(state.f)
    raise ConfigurationError(f"unknown preset {preset!r}")


def _fmt(v) -> str:
    return repr(float(v))


def _write_metadata(outdir: Path, conf: Config, cert, status: dict,
                    started: float, finished: float) -> None:
    meta = {
        "schema_version": 1,
        "config": conf.raw,
        "config_hash": conf.fluid.hash(),
        "nu": None if cert is None or cert.nu is None else cert.nu,
        "certificate": None if cert is None else cert.to_dict(),
        "status": status,
        "versions": {"muskatjump": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "timestamps": {"started": started, "finished": finished},
    }
    write_atomic(outdir / "metadata.json", json.dumps(meta, sort_keys=True, indent=1))


def cmd_run(args) -> int:
    conf = load_config(args.config)
    cfg, schedule = conf.fluid, conf.schedule
    started = time.time()

    f0 = build_initial_data(conf)
    run_hash = _run_hash(conf)
    resume, start_step = None, 0
    if args.resume:
        # the run hash covers the datum, grid, solver and dt, not t_end: a
        # longer run's checkpoint would end this one past t_end
        state, start_step, _, monitor = load_checkpoint(args.resume, run_hash)
        if start_step > schedule.n_steps:
            raise ConfigurationError(f"checkpoint {args.resume} step {start_step} lies past the "
                                     f"schedule's last step {schedule.n_steps}")
        # without the accumulators the budget integrals would restart from zero
        if start_step > 0 and monitor is None:
            raise ConfigurationError(f"checkpoint {args.resume} has no monitor block")
        # run() times step i at i * dt, bit for bit, and so must the state it resumes
        if state.time != start_step * schedule.dt:
            raise ConfigurationError(f"checkpoint {args.resume} time {state.time!r} is not its "
                                     f"step {start_step} times dt {schedule.dt!r}")
        resume = (state, start_step, monitor)
    outdir = Path(args.output_dir or os.environ.get("MUSKATJUMP_OUTPUT_DIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    ckptdir = outdir / "checkpoints"
    ckptdir.mkdir(exist_ok=True)
    # a resumed run certifies the initial datum too, so its monitors and
    # metadata match those of the uninterrupted run
    cert = certify.certify_datum(f0, cfg)
    if args.require_certificate and cert.verdict != "admissible":
        print(f"datum is {cert.verdict}; refusing to run", file=sys.stderr)
        _write_metadata(outdir, conf, cert,
                        {"exit": EXIT_INADMISSIBLE, "reason": cert.verdict},
                        started, time.time())
        return EXIT_INADMISSIBLE

    csv_path = outdir / "trajectory.csv"
    # a resume keeps the complete rows before its checkpoint, on disk at every
    # instant; run() appends the checkpoint's own row again
    rows = csv_path.read_text().splitlines(True)[1:] if args.resume and csv_path.exists() else []
    kept = [r for r in rows
            if r.endswith("\n") and round(float(r.split(",", 1)[0]) / schedule.dt) < start_step]
    write_atomic(csv_path, ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(kept))
    csv_fh = open(csv_path, "a")

    def on_snapshot(step_index, state, row, mon):
        csv_fh.write(",".join(_fmt(row[c]) for c in TRAJECTORY_COLUMNS) + "\n")
        csv_fh.flush()
        if step_index % (schedule.snapshot_every * args.checkpoint_every) == 0 \
                or step_index == schedule.n_steps:
            save_checkpoint(ckptdir / f"ckpt_{step_index:08d}.json", state, run_hash,
                            step_index, schedule.dt, mon)

    status = {"exit": EXIT_OK}
    rec = None
    try:
        rec = run(f0, cfg, schedule, conf.solver, certificate=cert, on_snapshot=on_snapshot,
                  resume=resume)
    except tuple(_EXIT_CODES) as exc:
        status = {"exit": _exit_code(exc), "reason": str(exc)}
    finally:
        csv_fh.close()
    if status["exit"] == EXIT_OK and rec is not None and rec.budget_violated:
        status = {"exit": EXIT_BUDGET, "reason": "decay budget inequality violated"}
    _write_metadata(outdir, conf, cert, status, started, time.time())
    if status["exit"] != EXIT_OK:
        print(status["reason"], file=sys.stderr)
    return status["exit"]


def cmd_certify(args) -> int:
    conf = load_config(args.config)
    cert = certify.certify_datum(build_initial_data(conf), conf.fluid)
    print(cert.to_json())
    print(f"{'quantity':<14}{'value':>18}", file=sys.stderr)
    rows = [("theta", cert.theta), ("a0", cert.a0), ("a1", cert.a1),
            ("k0", cert.k0), ("k1", cert.k1), ("nu", cert.nu)]
    rows += [(f"margin_s{s}", cert.margins[s]) for s in (0, 1, 2)]
    for name, val in rows:
        sval = "n/a" if val is None else f"{val:.12g}"
        print(f"{name:<14}{sval:>18}", file=sys.stderr)
    print(f"verdict: {cert.verdict}", file=sys.stderr)
    return EXIT_OK if cert.verdict == "admissible" else EXIT_INADMISSIBLE


def cmd_linear(args) -> int:
    conf = load_config(args.config)
    cfg, grid = conf.fluid, conf.grid
    # above n/2 the grid holds mode k only as its alias n - k
    if args.measure and args.max_mode > grid.n_points // 2:
        raise ConfigurationError(f"--measure needs --max-mode at most n_points/2 = "
                                 f"{grid.n_points // 2}, got {args.max_mode}")
    modes = range(1, args.max_mode + 1)
    lines = ["k,xi,m_exact,m_measured,rel_err"]
    for k in modes:
        xi = 2.0 * np.pi * k / grid.domain_length
        m_exact = float(linear_symbol(xi, cfg))
        m_meas, rel = float("nan"), float("nan")
        if args.measure:
            m_meas = _measure_mode_rate(k, grid, cfg, conf.solver)
            rel = abs(m_meas - m_exact) / abs(m_exact)
        lines.append(",".join([str(k), _fmt(xi), _fmt(m_exact), _fmt(m_meas), _fmt(rel)]))
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _measure_mode_rate(k: int, grid: GridSpec, cfg: FluidConfig, opts: SolverOptions) -> float:
    """Decay rate of mode k over 20 steps of 0.01 from amplitude 1e-6."""
    x = grid.nodes()
    state = InterfaceField.from_samples(1e-6 * np.cos(2.0 * np.pi * k * x / grid.domain_length), grid)
    c0 = abs(state.f.coefficients[k])
    n, dt = 20, 0.01
    for _ in range(n):
        state = step(state, dt, cfg, opts)
    c1 = abs(state.f.coefficients[k])
    return float(-(np.log(c1) - np.log(c0)) / (n * dt))


def cmd_oracle_check(args) -> int:
    # the O(N^2) ground truth loads only for the command that runs it
    from . import oracle

    conf = load_config(args.config)
    cfg = conf.fluid
    f0 = build_initial_data(conf)
    F = f0.samples()
    L = conf.grid.domain_length

    def rel(a, b):
        scale = max(np.max(np.abs(b)), 1e-300)
        return float(np.max(np.abs(a - b)) / scale)

    t_fast = time.perf_counter()
    breakdown = rhs(f0, cfg, conf.solver)
    t_fast = time.perf_counter() - t_fast
    w1 = inverse(breakdown.pair.omega1)
    w2 = inverse(breakdown.pair.omega2)
    w2_oracle = oracle.quad_omega2(F, w1, cfg, L)
    fast = sum(inverse(part) for part in
               (breakdown.i1, breakdown.i2, breakdown.i3, breakdown.i4)) / (2.0 * np.pi)
    t_oracle = time.perf_counter()
    rhs_oracle = oracle.quad_rhs(F, w1, w2, cfg, L)
    t_oracle = time.perf_counter() - t_oracle

    u1f, u2f = oracle.quad_BR_trace(F, w1, w2, cfg, L, "fluid_curve")
    dF = inverse(derivative(f0.f))
    if cfg.a_mu != 0.0:
        tang = u1f + u2f * dF
        ident = w1 / (2.0 * cfg.a_mu) + cfg.a_rho * dF / cfg.a_mu
        br_res = float(np.max(np.abs(tang - ident)))
    else:
        br_res = 0.0
    u1s, _ = oracle.quad_BR_trace(F, w1, w2, cfg, L, "soil_curve")
    soil_res = float(np.max(np.abs(w2 - (-2.0 * cfg.a_kappa * u1s))))

    checks = {
        "omega2_rel": rel(w2, w2_oracle),
        "rhs_rel": rel(fast, rhs_oracle),
        "br_tangential_abs": br_res,
        "br_soil_abs": soil_res,
    }
    worst = max(checks.values())
    for name, val in checks.items():
        print(f"{name}: {val:.6e}")
    print(f"bound: {args.bound:.6e}  worst: {worst:.6e}")
    print(f"timing: fast path incl. strength solve {t_fast * 1e3:.1f} ms, "
          f"oracle quadrature given strengths {t_oracle * 1e3:.1f} ms")
    return EXIT_OK if worst <= args.bound else EXIT_ORACLE


def _sweep_worker(payload):
    # each config takes the one path from argv to exit code, so that a failing
    # config ends in its own exit code and not the whole sweep
    config_path, outdir = payload
    return config_path, main(["run", "--config", config_path, "--output-dir", outdir])


def cmd_sweep(args) -> int:
    # the process pool, and the logging it brings, load only for a sweep
    import concurrent.futures

    # each config writes to the directory named after its stem
    stems = [Path(p).stem for p in args.configs]
    shared = sorted({s for s in stems if stems.count(s) > 1})
    if shared:
        raise ConfigurationError(f"configs share an output directory: {', '.join(shared)}")
    base = Path(args.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    jobs = [(p, str(base / stem)) for p, stem in zip(args.configs, stems)]
    worst = EXIT_OK
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.threads) as pool:
        for cfg_path, code in pool.map(_sweep_worker, jobs):
            print(f"{cfg_path}: exit {code}")
            worst = max(worst, code)
    return worst


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="muskatjump",
                                description="interface evolution over a permeability jump")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="advance a trajectory and write CSV/metadata/checkpoints")
    pr.add_argument("--config", required=True)
    pr.add_argument("--output-dir", default=None)
    pr.add_argument("--require-certificate", action="store_true")
    pr.add_argument("--resume", default=None, help="checkpoint file to continue from")
    pr.add_argument("--checkpoint-every", type=_count, default=1,
                    help="write a checkpoint every k-th snapshot")

    pc = sub.add_parser("certify", help="print the admissibility certificate as JSON")
    pc.add_argument("--config", required=True)

    pl = sub.add_parser("linear", help="tabulate the exact dispersion relation")
    pl.add_argument("--config", required=True)
    pl.add_argument("--measure", action="store_true",
                    help="also measure modal decay rates from tiny-amplitude runs")
    pl.add_argument("--max-mode", type=_count, default=8)
    pl.add_argument("--output", default=None)

    po = sub.add_parser("oracle-check", help="compare fast paths against brute-force quadrature")
    po.add_argument("--config", required=True)
    po.add_argument("--bound", type=float, default=1e-6)

    ps = sub.add_parser("sweep", help="run several configs in parallel workers")
    ps.add_argument("configs", nargs="+")
    ps.add_argument("--output-dir", required=True)
    ps.add_argument("--threads", type=_count, default=2)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import; parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call, so a handler replaced on this module after the
    # parser was built (a tracer's wrapper, a test's stub) is the one that runs
    handler = {"run": cmd_run, "certify": cmd_certify, "linear": cmd_linear,
               "oracle-check": cmd_oracle_check, "sweep": cmd_sweep}[args.command]
    code = EXIT_OK
    try:
        code = handler(args)
        # a reader that left before the buffered output was written shows
        # here at the latest
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``certify | head -1``): the output
        # ends there, the command does not fail; devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except tuple(_EXIT_CODES) as exc:
        code = _exit_code(exc)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
