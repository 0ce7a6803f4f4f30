import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskatjump import certify, cli, evolution
from muskatjump.cli import (EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_GEOMETRY, EXIT_INADMISSIBLE,
                            EXIT_OK, EXIT_ORACLE, build_initial_data, build_parser, load_config,
                            main)
from muskatjump.errors import BlowUpError, PicardDivergenceError
from muskatjump.evolution import TRAJECTORY_COLUMNS, InterfaceField, save_checkpoint
from muskatjump.spectral import GridSpec
from muskatjump.vorticity import FluidConfig

ROOT = Path(__file__).resolve().parents[1]
README_GRID = {"n_points": 256, "domain_length": 12 * np.pi}


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "version": 1,
        "fluid": {"a_kappa": 0.5, "a_mu": 0.2, "a_rho": 1.0, "h2": 1.0},
        "grid": {"n_points": 128, "domain_length": 12 * np.pi},
        "initial_data": {"preset": "gaussian_bump", "amplitude": 0.01, "width": 1.5},
        "schedule": {"t_end": 0.3, "dt": 0.03, "snapshot_every": 5},
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_key_rejected(tmp_path):
    p = write_config(tmp_path / "c.json")
    raw = json.loads(p.read_text())
    raw["extra_knob"] = 1
    p.write_text(json.dumps(raw))
    assert main(["certify", "--config", str(p)]) == EXIT_CONFIG


def test_nested_unknown_key_rejected(tmp_path):
    p = write_config(tmp_path / "c.json")
    raw = json.loads(p.read_text())
    raw["fluid"]["viscosity"] = 3.0
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p), "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG


def test_zero_datum_runs_clean(tmp_path):
    p = write_config(tmp_path / "c.json",
                     initial_data={"preset": "gaussian_bump", "amplitude": 0.0, "width": 1.5})
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        vals = dict(zip(header, line.split(",")))
        assert float(vals["F01"]) == 0.0
        assert float(vals["F11"]) == 0.0


def test_require_certificate_gate(tmp_path):
    p = write_config(tmp_path / "c.json",
                     initial_data={"preset": "single_mode", "k": 1, "amplitude": 0.4})
    out = tmp_path / "out"
    code = main(["run", "--config", str(p), "--output-dir", str(out), "--require-certificate"])
    assert code == EXIT_INADMISSIBLE
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"]["exit"] == EXIT_INADMISSIBLE


def _out_of_ledger_config(path: Path) -> Path:
    # README grid, bump amplitude 0.88: the C1 denominator of the ledger is nonpositive
    return write_config(path, grid=README_GRID,
                        initial_data={"preset": "gaussian_bump", "amplitude": 0.88,
                                      "width": 1.5})


def test_certify_out_of_ledger_datum(tmp_path, capsys):
    p = _out_of_ledger_config(tmp_path / "c.json")
    assert main(["certify", "--config", str(p)]) == EXIT_INADMISSIBLE
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    assert blob["verdict"] == "out-of-ledger"
    assert "C1" in blob["divergent_series"]
    assert "verdict: out-of-ledger" in captured.err


def test_require_certificate_refuses_out_of_ledger_datum(tmp_path):
    p = _out_of_ledger_config(tmp_path / "c.json")
    out = tmp_path / "out"
    code = main(["run", "--config", str(p), "--output-dir", str(out), "--require-certificate"])
    assert code == EXIT_INADMISSIBLE
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == {"exit": EXIT_INADMISSIBLE, "reason": "out-of-ledger"}
    assert meta["certificate"]["verdict"] == "out-of-ledger"


def test_certify_command_matches_library(tmp_path, capsys):
    p = write_config(tmp_path / "c.json")
    code = main(["certify", "--config", str(p)])
    blob = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert blob["verdict"] == "admissible"

    from muskatjump import certify_datum

    conf = load_config(p)
    cert = certify_datum(build_initial_data(conf), conf.fluid)
    assert blob["nu"] == cert.nu
    assert blob["margins"] == {k: v for k, v in
                               json.loads(cert.to_json())["margins"].items()}


def test_linear_table_no_jump(tmp_path, capsys):
    p = write_config(tmp_path / "c.json",
                     fluid={"a_kappa": 0.0, "a_mu": 0.2, "a_rho": 1.5, "h2": 1.0})
    assert main(["linear", "--config", str(p), "--max-mode", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,xi,m_exact,m_measured,rel_err"
    for line in lines[1:]:
        k, xi, m_exact = line.split(",")[:3]
        assert abs(float(m_exact) - 1.5 * float(xi)) < 1e-13


def test_linear_symbol_grid_independent(tmp_path, capsys):
    p1 = write_config(tmp_path / "c1.json")
    main(["linear", "--config", str(p1), "--max-mode", "3"])
    out1 = capsys.readouterr().out
    p2 = write_config(tmp_path / "c2.json",
                      grid={"n_points": 256, "domain_length": 12 * np.pi})
    main(["linear", "--config", str(p2), "--max-mode", "3"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_oracle_check_passes_and_detects_corruption(tmp_path, capsys, monkeypatch):
    p = write_config(tmp_path / "c.json")
    assert main(["oracle-check", "--config", str(p)]) == EXIT_OK
    capsys.readouterr()
    real = cli.rhs

    def skewed(*args, **kwargs):
        # a fast path wrong by one part in a thousand in I1
        br = real(*args, **kwargs)
        i1 = br.i1.with_coefficients(br.i1.coefficients * (1.0 + 1e-3))
        return dataclasses.replace(br, i1=i1)

    monkeypatch.setattr(cli, "rhs", skewed)
    assert main(["oracle-check", "--config", str(p)]) == EXIT_ORACLE
    assert float(re.search(r"rhs_rel: (\S+)", capsys.readouterr().out).group(1)) > 1e-6


def test_readme_example_config_is_the_readme_block():
    block = (ROOT / "README.md").read_text().split("```json\n", 1)[1].split("```", 1)[0]
    example = ROOT / "examples" / "readme.json"
    assert json.loads(example.read_text()) == json.loads(block)
    assert main(["oracle-check", "--config", str(example)]) == EXIT_OK


def test_readme_cli_synopsis_lists_every_flag():
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```\n", 1)[1].split("```", 1)[0]
    documented: dict = {}
    for line in block.splitlines():
        if line.startswith("muskatjump "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(
            re.findall(r"--[a-z][a-z-]*", line.split("#", 1)[0]))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: {opt for a in sub._actions if a.help != argparse.SUPPRESS
                     for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
              for name, sub in commands.items()}
    assert documented == parsed


def test_readme_lists_the_trajectory_columns():
    listed = (ROOT / "README.md").read_text().split("`trajectory.csv` with columns", 1)[1]
    listed = listed.split("`", 2)[1]
    assert [c.strip() for c in listed.split(",")] == list(TRAJECTORY_COLUMNS)


def test_run_determinism_byte_identical(tmp_path):
    p = write_config(tmp_path / "c.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
        outs.append(out)
    assert (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()
    metas = []
    for out in outs:
        m = json.loads((out / "metadata.json").read_text())
        m.pop("timestamps")
        metas.append(json.dumps(m, sort_keys=True))
    assert metas[0] == metas[1]


def test_resume_reproduces_final_checkpoint(tmp_path):
    p = write_config(tmp_path / "c.json")
    full = tmp_path / "full"
    assert main(["run", "--config", str(p), "--output-dir", str(full)]) == EXIT_OK
    mid = full / "checkpoints" / "ckpt_00000005.json"
    resumed = tmp_path / "resumed"
    assert main(["run", "--config", str(p), "--output-dir", str(resumed),
                 "--resume", str(mid)]) == EXIT_OK
    last = "ckpt_00000010.json"
    assert (full / "checkpoints" / last).read_bytes() == \
        (resumed / "checkpoints" / last).read_bytes()
    metas = []
    for out in (full, resumed):
        m = json.loads((out / "metadata.json").read_text())
        m.pop("timestamps")
        metas.append(m)
    assert metas[1]["certificate"] is not None
    assert metas[0] == metas[1]
    # resuming inside a copy of the full run's directory keeps the rows before
    # the checkpoint, so the CSV ends byte-identical to the uninterrupted one
    copy = tmp_path / "copy"
    shutil.copytree(full, copy)
    assert main(["run", "--config", str(p), "--output-dir", str(copy),
                 "--resume", str(copy / "checkpoints" / "ckpt_00000005.json")]) == EXIT_OK
    assert (copy / "trajectory.csv").read_bytes() == (full / "trajectory.csv").read_bytes()


def test_resume_needs_the_monitor_block_after_step_zero(tmp_path, capsys):
    p = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
    csv = (out / "trajectory.csv").read_bytes()
    for step in (0, 5):
        ck = out / "checkpoints" / f"ckpt_{step:08d}.json"
        payload = json.loads(ck.read_text())
        del payload["monitor"]
        ck.write_text(json.dumps(payload))
    # the budget integrals before step 5 cannot be recovered
    mid = out / "checkpoints" / "ckpt_00000005.json"
    assert main(["run", "--config", str(p), "--output-dir", str(out),
                 "--resume", str(mid)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(mid) in err
    assert (out / "trajectory.csv").read_bytes() == csv
    # at step 0 there is nothing to recover
    assert main(["run", "--config", str(p), "--output-dir", str(out),
                 "--resume", str(out / "checkpoints" / "ckpt_00000000.json")]) == EXIT_OK
    assert (out / "trajectory.csv").read_bytes() == csv


@pytest.mark.parametrize("command", ["certify", "run"])
def test_each_command_builds_the_fluid_block_once(tmp_path, monkeypatch, command):
    p = write_config(tmp_path / "c.json")
    built = []

    def counted(*args):
        built.append(args)
        return FluidConfig(*args)

    monkeypatch.setattr(cli, "FluidConfig", counted)
    argv = ["run", "--output-dir", str(tmp_path / "out")] if command == "run" else [command]
    assert main([*argv, "--config", str(p)]) == EXIT_OK
    assert built == [(0.5, 0.2, 1.0, 1.0)]


def test_resume_past_the_schedule_end_is_a_configuration_error(checkpointed_run, tmp_path,
                                                               capsys):
    # the checkpoint of step 10 of a run whose config now ends at step 5: the
    # run hash, which leaves t_end out, matches; the schedule does not
    config, full = checkpointed_run
    raw = json.loads(config.read_text())
    raw["schedule"]["t_end"] = 0.15
    shorter = tmp_path / "shorter.json"
    shorter.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(full, out)

    def files():
        return {q.relative_to(out): q.read_bytes() for q in out.rglob("*") if q.is_file()}

    before = files()
    ck = out / "checkpoints" / "ckpt_00000010.json"
    assert main(["run", "--config", str(shorter), "--output-dir", str(out),
                 "--resume", str(ck)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(ck) in err
    assert files() == before


def _files(out: Path) -> dict:
    return {q.relative_to(out): q.read_bytes() for q in out.rglob("*") if q.is_file()}


@pytest.mark.parametrize("block, key, value", [("initial_data", "amplitude", 0.03),
                                               ("grid", "n_points", 128),
                                               ("fluid", "h2", 2.0),
                                               ("solver", "picard_tol", 1e-9),
                                               ("schedule", "dt", 0.015),
                                               ("schedule", "snapshot_every", 2)])
def test_resume_under_another_config_is_a_configuration_error(checkpointed_run, tmp_path,
                                                              capsys, block, key, value):
    # a run's checkpoint binds its whole config but t_end: under another
    # datum, grid, fluid, solver, dt or snapshot cadence the resume is
    # refused before anything is written
    config, full = checkpointed_run
    raw = json.loads(config.read_text())
    raw.setdefault(block, {})[key] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(full, out)
    before = _files(out)
    ck = out / "checkpoints" / "ckpt_00000005.json"
    assert main(["run", "--config", str(other), "--output-dir", str(out),
                 "--resume", str(ck)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(ck) in err
    assert "different configuration" in err
    assert _files(out) == before


@pytest.mark.parametrize("time", [math.nan, 0.7])
def test_resume_from_a_checkpoint_off_the_run_clock_is_a_configuration_error(
        checkpointed_run, tmp_path, capsys, time):
    # run() times step i at i * dt; a checkpoint of step 5 whose time is NaN
    # or another step's is refused before anything is written
    config, full = checkpointed_run
    out = tmp_path / "out"
    shutil.copytree(full, out)
    ck = out / "checkpoints" / "ckpt_00000005.json"
    payload = json.loads(ck.read_text())
    payload["time_hex"] = float(time).hex()
    ck.write_text(json.dumps(payload))
    before = _files(out)
    assert main(["run", "--config", str(config), "--output-dir", str(out),
                 "--resume", str(ck)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(ck) in err
    assert _files(out) == before


@pytest.mark.parametrize("n_points", [6, 130])
@pytest.mark.parametrize("command", ["run", "certify", "linear"])
def test_grid_off_the_alternating_rule_is_refused_before_anything_runs(tmp_path, capsys,
                                                                       command, n_points):
    # a grid the pv rule cannot use is refused when the config is loaded: no
    # command runs on it and none writes anything
    p = write_config(tmp_path / "c.json", grid={"n_points": n_points, "domain_length": 12 * np.pi})
    argv = [command, "--config", str(p)]
    if command != "certify":
        argv += ["--output-dir" if command == "run" else "--output", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "multiple of 4" in captured.err
    assert sorted(tmp_path.iterdir()) == [p]


def test_resume_binds_the_canonical_config_without_t_end(checkpointed_run, tmp_path):
    # the same config written with its defaults named, integral floats as
    # integers and a later t_end is the same run: its checkpoint resumes it,
    # and the rows both runs take are the same
    config, full = checkpointed_run
    raw = json.loads(config.read_text())
    raw["schedule"]["t_end"] = 0.45
    raw["fluid"]["a_rho"] = 1
    raw["solver"] = {"picard_tol": 1e-11, "picard_max_iter": 80, "order": 2}
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(raw))
    out = tmp_path / "out"
    shutil.copytree(full, out)
    assert main(["run", "--config", str(longer), "--output-dir", str(out),
                 "--resume", str(out / "checkpoints" / "ckpt_00000005.json")]) == EXIT_OK
    rows = (full / "trajectory.csv").read_text()
    assert (out / "trajectory.csv").read_text().startswith(rows)
    assert len((out / "trajectory.csv").read_text().splitlines()) == 17
    last = "checkpoints/ckpt_00000010.json"
    assert (out / last).read_bytes() == (full / last).read_bytes()


def test_checkpoint_of_data_written_outside_a_run_is_initial_data_only(tmp_path, capsys):
    # save_checkpoint with a FluidConfig, as for generated data, binds the
    # fluid only: the file serves as from_file data, and no run resumes it
    g = GridSpec(128, 12 * np.pi)
    datum = InterfaceField.from_samples(0.01 * np.exp(-((g.nodes() - 6 * np.pi) ** 2) / 4.5), g)
    ck = tmp_path / "datum.json"
    save_checkpoint(ck, datum, FluidConfig(0.5, 0.2, 1.0, 1.0), 0, 0.03)
    p = write_config(tmp_path / "c.json", initial_data={"preset": "from_file", "path": str(ck)})
    assert main(["run", "--config", str(p), "--output-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(p), "--output-dir", str(tmp_path / "b"),
                 "--resume", str(ck)]) == EXIT_CONFIG
    assert "different configuration" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_from_file_initial_data(tmp_path):
    p = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    main(["run", "--config", str(p), "--output-dir", str(out)])
    ck = out / "checkpoints" / "ckpt_00000000.json"
    p2 = write_config(tmp_path / "c2.json",
                      initial_data={"preset": "from_file", "path": str(ck)})
    out2 = tmp_path / "out2"
    assert main(["run", "--config", str(p2), "--output-dir", str(out2)]) == EXIT_OK
    r1 = (out / "trajectory.csv").read_text()
    r2 = (out2 / "trajectory.csv").read_text()
    assert r1 == r2


def test_console_entry_point(tmp_path):
    p = write_config(tmp_path / "c.json")
    proc = subprocess.run([sys.executable, "-m", "muskatjump.cli", "certify",
                           "--config", str(p)], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["verdict"] == "admissible"
    assert "verdict: admissible" in proc.stderr


def test_certify_into_a_closed_pipe_exits_0(tmp_path):
    # ``muskatjump certify ... | head -1`` with the reader already gone: the
    # write fails with EPIPE, which ends the output and not the command
    p = write_config(tmp_path / "c.json")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "muskatjump.cli", "certify",
                               "--config", str(p)], stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


_SMALL_GRID = {"n_points": 64, "domain_length": 12 * np.pi}


def test_parser_is_reused_after_an_argument_error(tmp_path, capsys):
    p = write_config(tmp_path / "c.json", grid=_SMALL_GRID)
    cli._parser.cache_clear()
    assert main(["certify", "--config", str(p)]) == EXIT_OK
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["certify"])
    assert exc.value.code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err
    assert main(["certify", "--config", str(p)]) == EXIT_OK
    assert capsys.readouterr() == first
    assert cli._parser.cache_info().misses == 1


def test_run_flags_do_not_carry_over_to_the_next_call(tmp_path):
    p = write_config(tmp_path / "c.json", grid=_SMALL_GRID,
                     initial_data={"preset": "gaussian_bump", "amplitude": 0.1, "width": 1.5},
                     schedule={"t_end": 0.06, "dt": 0.03, "snapshot_every": 1})
    gated, plain = tmp_path / "gated", tmp_path / "plain"
    assert main(["run", "--config", str(p), "--output-dir", str(gated),
                 "--require-certificate"]) == EXIT_INADMISSIBLE
    assert main(["run", "--config", str(p), "--output-dir", str(plain)]) == EXIT_OK
    meta = json.loads((plain / "metadata.json").read_text())
    assert meta["certificate"]["verdict"] == "inadmissible"
    assert meta["status"] == {"exit": EXIT_OK}
    assert (plain / "trajectory.csv").exists() and not (gated / "trajectory.csv").exists()


def test_a_handler_replaced_after_the_parser_was_built_is_the_one_that_runs(monkeypatch):
    cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_certify", lambda args: seen.append(args.config) or 41)
    assert main(["certify", "--config", "c.json"]) == 41
    assert seen == ["c.json"]


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def spy(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = spy\n"
             "import muskatjump.cli as cli\n"
             "print(len(built), cli._parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# each loads only for the commands that run it: hashlib (and OpenSSL) for a
# config hash, the process pool for sweep, the O(N^2) oracle for oracle-check
_LAZY_MODULES = ["hashlib", "concurrent.futures", "muskatjump.oracle"]


def test_import_and_certify_load_no_hashlib_pool_or_oracle(tmp_path):
    p = write_config(tmp_path / "c.json", grid=_SMALL_GRID)
    probe = ("import contextlib, io, json, sys\n"
             "import muskatjump.cli as cli\n"
             f"lazy = {_LAZY_MODULES!r}\n"
             "at_import = [m for m in lazy if m in sys.modules]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main(['certify', '--config', {str(p)!r}])\n"
             "print(json.dumps([at_import, code, [m for m in lazy if m in sys.modules]]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], EXIT_OK, []]


def test_run_needs_no_least_squares_solver(tmp_path, monkeypatch):
    # the strip-radius fit is a closed-form slope; polyfit would call lstsq
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")

    real = np.linalg.lstsq
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("numpy") and vars(mod).get("lstsq") is real:
            monkeypatch.setattr(mod, "lstsq", refuse)
    p = write_config(tmp_path / "c.json", grid=_SMALL_GRID,
                     schedule={"t_end": 0.06, "dt": 0.03, "snapshot_every": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()
    radii = [float(dict(zip(rows[0].split(","), r.split(",")))["strip_radius"])
             for r in rows[1:]]
    assert len(radii) == 3 and all(r > 0.0 for r in radii)


def test_sweep_runs_configs_in_parallel(tmp_path):
    paths = []
    for i, amp in enumerate((0.005, 0.01)):
        p = write_config(tmp_path / f"s{i}.json",
                         initial_data={"preset": "gaussian_bump", "amplitude": amp,
                                       "width": 1.5},
                         schedule={"t_end": 0.1, "dt": 0.05, "snapshot_every": 1})
        paths.append(str(p))
    out = tmp_path / "sweep"
    assert main(["sweep", *paths, "--output-dir", str(out), "--threads", "2"]) == EXIT_OK
    for i in range(2):
        assert (out / f"s{i}" / "trajectory.csv").exists()
        assert (out / f"s{i}" / "metadata.json").exists()


def test_sweep_reports_every_configs_exit_code(tmp_path, capsys):
    # a config refused on load ends in its own exit code, and the other
    # configs still run, each as it runs alone
    bad = _readme_variant(tmp_path / "bad.json", grid__n_points=130, schedule__t_end=0.04)
    good = _readme_variant(tmp_path / "good.json", schedule__t_end=0.04)
    out = tmp_path / "out"
    assert main(["sweep", str(bad), str(good), "--output-dir", str(out),
                 "--threads", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().out.splitlines() == [f"{bad}: exit 2", f"{good}: exit 0"]
    assert not (out / "bad").exists()
    alone = tmp_path / "alone"
    assert main(["run", "--config", str(good), "--output-dir", str(alone)]) == EXIT_OK
    swept, kept = _files(out / "good"), _files(alone)
    metadata = [json.loads(files.pop(Path("metadata.json"))) for files in (swept, kept)]
    for meta in metadata:
        del meta["timestamps"]
    assert swept == kept and metadata[0] == metadata[1]


def test_sweep_rejects_configs_that_share_an_output_directory(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths = [str(write_config(tmp_path / d / "x.json")) for d in ("a", "b")]
    out = tmp_path / "sweep"
    assert main(["sweep", *paths, "--output-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_output_dir_env_var(tmp_path, monkeypatch):
    p = write_config(tmp_path / "c.json",
                     schedule={"t_end": 0.1, "dt": 0.05, "snapshot_every": 1})
    target = tmp_path / "envout"
    monkeypatch.setenv("MUSKATJUMP_OUTPUT_DIR", str(target))
    assert main(["run", "--config", str(p)]) == EXIT_OK
    assert (target / "trajectory.csv").exists()


def test_linear_output_file_holds_the_bytes_of_stdout(tmp_path, capsys):
    p = write_config(tmp_path / "c.json")
    argv = ["linear", "--config", str(p), "--max-mode", "4"]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    table = tmp_path / "linear.csv"
    assert main([*argv, "--output", str(table)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert table.read_bytes() == printed.encode()


def test_oracle_check_without_viscosity_contrast_has_no_tangential_residual(tmp_path, capsys):
    # at A_mu = 0 the fluid sheet's strength is the linear one, and the
    # Birkhoff-Rott identity it would be checked against divides by A_mu
    p = _readme_variant(tmp_path / "c.json", fluid__a_mu=0.0)
    assert main(["oracle-check", "--config", str(p)]) == EXIT_OK
    assert "br_tangential_abs: 0.000000e+00\n" in capsys.readouterr().out


@pytest.mark.parametrize("case, message", [
    ("missing_key", "missing key config.schedule"), ("unreadable", "cannot read config"),
    ("not_json", "cannot read config"), ("version", "unsupported config version 2")])
def test_unusable_config_is_a_configuration_error(tmp_path, capsys, case, message):
    p = tmp_path / "c.json"
    raw = copy.deepcopy(_FUZZ_BASE)
    if case == "missing_key":
        del raw["schedule"]
    elif case == "version":
        raw["version"] = 2
    if case == "not_json":
        p.write_text("{not json")
    elif case != "unreadable":
        p.write_text(json.dumps(raw))
    assert main(["certify", "--config", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")


def test_linear_measure_stops_at_the_grids_highest_mode(tmp_path, capsys):
    # n_points 128: mode 65 would be measured on its alias 63
    p = write_config(tmp_path / "c.json")
    assert main(["linear", "--config", str(p), "--measure", "--max-mode", "65"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and "n_points/2 = 64" in captured.err
    # the exact table alone has no grid limit
    assert main(["linear", "--config", str(p), "--max-mode", "65"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 66


def test_linear_measure_mode(tmp_path, capsys):
    p = write_config(tmp_path / "c.json",
                     grid={"n_points": 128, "domain_length": 2 * np.pi})
    assert main(["linear", "--config", str(p), "--measure", "--max-mode", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        rel = float(line.split(",")[4])
        assert rel < 0.01


def test_run_budget_columns_satisfied(tmp_path):
    p = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out),
                 "--require-certificate"]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    for line in rows[1:]:
        vals = dict(zip(header, line.split(",")))
        for s in ("s0", "s1"):
            lhs = float(vals[f"budget_{s}_lhs"])
            rhs_v = float(vals[f"budget_{s}_rhs"])
            assert lhs <= rhs_v * (1 + 1e-6)


@pytest.fixture(scope="module")
def damped_readme_rows(tmp_path_factory):
    """trajectory.csv rows, as dicts of strings, of the README config at a_rho 10 to t = 2."""
    raw = json.loads((ROOT / "examples" / "readme.json").read_text())
    raw["fluid"]["a_rho"] = 10.0
    raw["solver"]["leakage_threshold"] = 1.0
    raw["schedule"] = {"t_end": 2.0, "dt": 0.05, "snapshot_every": 10}
    base = tmp_path_factory.mktemp("damped")
    p = base / "c.json"
    p.write_text(json.dumps(raw))
    out = base / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, line.split(","))) for line in rows[1:]]


def test_weighted_norms_ignore_round_off_coefficients(damped_readme_rows):
    # the README config at a_rho 10: by t = 1.5, nu t xi_max is about 77, and
    # e^{nu t |xi|} lifted round-off coefficients of the top modes so far that
    # budget_s0_lhs read 26.1 against 0.01, and the admissible datum exited 5
    f01 = []
    for vals in damped_readme_rows:
        f01.append(float(vals["F01"]))
        for s in ("s0", "s1"):
            assert float(vals[f"budget_{s}_lhs"]) <= float(vals[f"budget_{s}_rhs"])
    assert len(f01) == 5 and all(b < a for a, b in zip(f01, f01[1:]))


def test_strip_radius_floor_is_relative(damped_readme_rows):
    # the same run: at t = 2 (max |c_k| about 1e-3) only 7 modes k >= 1 lie
    # above 1e-14, too few for the fit, and 9 above 1e-14 max |c_k|
    radii = [float(vals["strip_radius"]) for vals in damped_readme_rows]
    assert all(math.isfinite(r) for r in radii)
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_run_leakage_exit_code(tmp_path):
    from muskatjump.cli import EXIT_GEOMETRY

    # a bump this wide has visible boundary tails: geometry exit, partial CSV kept
    p = write_config(tmp_path / "c.json",
                     initial_data={"preset": "gaussian_bump", "amplitude": 0.01,
                                   "width": 8.0})
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_GEOMETRY
    assert (out / "metadata.json").exists()


def test_run_leakage_past_the_first_snapshot_ends_the_run_there(tmp_path, capsys):
    # at width 4 the README datum's leakage is 1.28e-6 at t = 0 and 1.13e-4 at
    # t = 0.7: the run keeps the rows and checkpoints up to that snapshot
    p = _readme_variant(tmp_path / "c.json", initial_data__width=4.0, schedule__t_end=1.0)
    out = tmp_path / "out"
    reason = "boundary leakage 0.000113 exceeds threshold 0.0001 at t=0.7"
    code, status = _run_with_metadata(p, out)
    assert code == EXIT_GEOMETRY
    assert status == {"exit": EXIT_GEOMETRY, "reason": reason}
    assert capsys.readouterr().err == reason + "\n"
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.1 * i for i in range(8)])
    assert sorted(ck.name for ck in (out / "checkpoints").iterdir())[-1] == "ckpt_00000035.json"


def test_resume_from_the_leaking_snapshot_keeps_its_row(tmp_path, capsys):
    # the run above, resumed in a copy of its directory from the checkpoint of
    # the snapshot that ended it, writes that row again and ends alike
    p = _readme_variant(tmp_path / "c.json", initial_data__width=4.0, schedule__t_end=1.0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_GEOMETRY
    resumed = tmp_path / "resumed"
    shutil.copytree(out, resumed)
    capsys.readouterr()
    assert main(["run", "--config", str(p), "--output-dir", str(resumed),
                 "--resume", str(resumed / "checkpoints" / "ckpt_00000035.json")]) == EXIT_GEOMETRY
    assert capsys.readouterr().err == \
        "boundary leakage 0.000113 exceeds threshold 0.0001 at t=0.7\n"
    runs = [_files(d) for d in (out, resumed)]
    for files in runs:
        meta = json.loads(files.pop(Path("metadata.json")))
        meta.pop("timestamps")
        files["metadata"] = meta
    assert runs[0] == runs[1]


def test_killed_resume_keeps_the_rows_before_its_checkpoint(tmp_path):
    # a resume killed before its first snapshot, as run() starts: the rows it
    # keeps are on disk, and a later resume ends with the uninterrupted CSV
    config = ROOT / "examples" / "readme.json"
    full = tmp_path / "full"
    assert main(["run", "--config", str(config), "--output-dir", str(full)]) == EXIT_OK
    out = tmp_path / "out"
    shutil.copytree(full, out)
    resume = ["run", "--config", str(config), "--output-dir", str(out),
              "--resume", str(out / "checkpoints" / "ckpt_00000025.json")]
    probe = ("import os, signal, sys\n"
             "from muskatjump import cli\n"
             "cli.run = lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL)\n"
             f"cli.main({resume!r})\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == -9, proc.stderr
    rows = (full / "trajectory.csv").read_text().splitlines(True)
    assert (out / "trajectory.csv").read_text() == "".join(rows[:6])
    assert [float(r.split(",")[0]) for r in rows[1:6]] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert main(resume) == EXIT_OK
    assert (out / "trajectory.csv").read_bytes() == (full / "trajectory.csv").read_bytes()


def _scaled_budget(conf, factor: float):
    """The certificate of a config's datum with a0 scaled by ``factor``: below 1 its budget
    fails at t = 0."""
    cert = certify.certify_datum(build_initial_data(conf), conf.fluid)
    return dataclasses.replace(cert, a0=factor * cert.a0)


def test_run_flags_a_violated_budget():
    conf = load_config(ROOT / "examples" / "readme.json")
    rec = evolution.run(build_initial_data(conf), conf.fluid, conf.schedule, conf.solver,
                        certificate=_scaled_budget(conf, 0.5))
    assert rec.budget_violated


def test_run_flags_a_budget_violated_by_a_thousandth():
    # a0 scaled by 1 - 1e-3 puts the t = 0 row's F01 at 1.001 times the
    # budget's right side, inside a slack of 1e-2
    conf = load_config(ROOT / "examples" / "readme.json")
    rec = evolution.run(build_initial_data(conf), conf.fluid, conf.schedule, conf.solver,
                        certificate=_scaled_budget(conf, 1 - 1e-3))
    row = rec.rows[0]
    assert row["budget_s0_lhs"] / row["budget_s0_rhs"] == pytest.approx(1.001001, rel=1e-6)
    assert rec.budget_violated


def test_violated_budget_ends_the_run_in_exit_5(tmp_path, monkeypatch, capsys):
    config = ROOT / "examples" / "readme.json"
    cert = _scaled_budget(load_config(config), 0.5)
    monkeypatch.setattr(certify, "certify_datum", lambda f0, cfg: cert)
    reason = "decay budget inequality violated"
    code, status = _run_with_metadata(config, tmp_path / "out")
    assert code == cli.EXIT_BUDGET
    assert status == {"exit": cli.EXIT_BUDGET, "reason": reason}
    assert capsys.readouterr().err == reason + "\n"


def _run_exit(tmp_path, capsys, **overrides):
    p = write_config(tmp_path / "c.json", **overrides)
    code = main(["run", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_solver_order_accepts_only_two(tmp_path, capsys):
    # version-1 configs may keep "order": 2; ETD2 is the only integrator
    assert _run_exit(tmp_path, capsys, solver={"order": 2})[0] == EXIT_OK
    for order in (4, 3):
        code, err = _run_exit(tmp_path, capsys, solver={"order": order})
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error:") and "ETD2" in err


def test_picard_max_iter_zero_is_a_configuration_error(tmp_path, capsys):
    code, err = _run_exit(tmp_path, capsys, solver={"picard_max_iter": 0})
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error:") and "picard_max_iter" in err


def test_negative_nu_runs_with_unweighted_monitors(tmp_path):
    # wide bump near the radius: the certificate is out-of-ledger with nu < 0
    p = write_config(tmp_path / "c.json", grid={"n_points": 512, "domain_length": 400 * np.pi},
                     initial_data={"preset": "gaussian_bump", "amplitude": 0.92, "width": 20.0},
                     schedule={"t_end": 0.04, "dt": 0.02, "snapshot_every": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--output-dir", str(out)]) == EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["certificate"]["verdict"] == "out-of-ledger"
    assert meta["nu"] == meta["certificate"]["nu"] < 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, r.split(",")))) for r in lines[1:]]
    assert [row["t"] for row in rows] == [0.0, 0.02, 0.04]
    # sigma_s > theta here: the budget coefficient is clamped at zero, so the
    # budget checks F^{s,1}(t) <= F^{s,1}(0) instead of passing vacuously
    assert all(row["budget_s0_lhs"] == row["F01"] and row["budget_s1_lhs"] == row["F11"]
               for row in rows)


@pytest.mark.parametrize("t_end, dt", [(0.05, 0.1), (1.0, 0.3), (0.03, 0.02),
                                       (math.inf, 0.1), (1.0, math.nan)])
def test_schedule_must_end_at_t_end(tmp_path, capsys, t_end, dt):
    # the first three took zero steps, stopped at 0.8999999999999999 and
    # overshot to 0.04; the last two ended in a traceback
    code, err = _run_exit(tmp_path, capsys,
                          schedule={"t_end": t_end, "dt": dt, "snapshot_every": 1})
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error:") and "t_end" in err


def test_every_solving_subcommand_reads_the_solver_block(tmp_path, capsys):
    # README datum at width 3.0: its tails exceed a 1e-12 leakage threshold
    p = write_config(tmp_path / "c.json", grid=README_GRID,
                     initial_data={"preset": "gaussian_bump", "amplitude": 0.01, "width": 3.0},
                     solver={"leakage_threshold": 1e-12})
    assert main(["run", "--config", str(p), "--output-dir", str(tmp_path / "out")]) \
        == EXIT_GEOMETRY
    assert main(["oracle-check", "--config", str(p)]) == EXIT_GEOMETRY
    capsys.readouterr()
    # no step of a tiny mode passes a vanishing stability bound
    p = write_config(tmp_path / "c.json", grid={"n_points": 128, "domain_length": 2 * np.pi},
                     solver={"cfl_bound": 1e-300})
    assert main(["linear", "--config", str(p), "--measure", "--max-mode", "1"]) \
        == EXIT_DIVERGENCE
    assert capsys.readouterr().err.startswith("solver failure:")


_README_EXIT_TABLE = {"ConfigurationError": 2, "RegimeError": 2, "GeometryError": 3,
                      "PicardDivergenceError": 4, "StepSizeError": 4, "BlowUpError": 4,
                      "WeightRangeError": 5}


@pytest.mark.parametrize("exc_type", list(cli._EXIT_CODES), ids=lambda t: t.__name__)
def test_failures_inside_run_end_in_the_readme_exit_code(tmp_path, monkeypatch, capsys, exc_type):
    extra = {PicardDivergenceError: ([],), BlowUpError: (None,)}.get(exc_type, ())

    def failing_run(*args, **kwargs):
        raise exc_type("injected failure", *extra)

    monkeypatch.setattr(cli, "run", failing_run)
    p = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    code = main(["run", "--config", str(p), "--output-dir", str(out)])
    assert code == _README_EXIT_TABLE[exc_type.__name__]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == {"exit": code, "reason": "injected failure"}
    assert "injected failure" in capsys.readouterr().err


def test_degenerate_regime_is_a_configuration_error(tmp_path, capsys):
    # no admissible threshold exists this close to |A_kappa| = 1
    p = write_config(tmp_path / "c.json",
                     fluid={"a_kappa": 0.999999, "a_mu": 0.2, "a_rho": 1.0, "h2": 1.0})
    for argv in (["certify"], ["run", "--output-dir", str(tmp_path / "out")]):
        assert main([*argv, "--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("entry", ["resume", "from_file"])
@pytest.mark.parametrize("case", ["missing", "not_json", "incomplete", "other_grid"])
def test_unusable_checkpoint_is_a_configuration_error(tmp_path, capsys, entry, case):
    ck = tmp_path / "ck.json"
    if case == "not_json":
        ck.write_text("{not json")
    elif case == "incomplete":
        ck.write_text(json.dumps({"schema": evolution.CHECKPOINT_SCHEMA}))
    elif case == "other_grid":
        # the config hash covers the fluid only; the config's grid has 128 points
        flat = InterfaceField.from_samples(np.zeros(64), GridSpec(64, 12 * np.pi))
        save_checkpoint(ck, flat, FluidConfig(0.5, 0.2, 1.0, 1.0), 0, 0.03)
    argv = ["run", "--output-dir", str(tmp_path / "out")]
    if entry == "resume":
        p = write_config(tmp_path / "c.json")
        argv += ["--resume", str(ck)]
    else:
        p = write_config(tmp_path / "c.json",
                         initial_data={"preset": "from_file", "path": str(ck)})
    assert main([*argv, "--config", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(ck) in err


@pytest.mark.parametrize("argv", [["run", "--config", "c.json", "--checkpoint-every", "0"],
                                  ["run", "--config", "c.json", "--checkpoint-every", "-2"],
                                  ["sweep", "c.json", "--output-dir", "out", "--threads", "0"],
                                  ["sweep", "c.json", "--output-dir", "out", "--threads", "-1"],
                                  ["linear", "--config", "c.json", "--max-mode", "0"]])
def test_counts_below_one_are_argument_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_README_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_GEOMETRY, cli.EXIT_DIVERGENCE,
                      cli.EXIT_BUDGET, cli.EXIT_INADMISSIBLE, cli.EXIT_ORACLE}


@settings(max_examples=25, deadline=None)
@given(solver=st.fixed_dictionaries({}, optional={
    "picard_tol": st.sampled_from([1e-11, 1e-6, 0.0, -1e-8, 1e-300, 1e300, math.inf, math.nan]),
    # kept small: with a tolerance of 1e-300 every iteration runs
    "picard_max_iter": st.sampled_from([80, 1, 0, -3, 200]),
    "series_tol": st.sampled_from([1e-10, 1e-4, 0.0, -1.0, 1e-300, 1e300, math.inf, math.nan]),
    "leakage_threshold": st.sampled_from([1e-4, 1.0, 0.0, -1.0, 1e300]),
    "cfl_bound": st.sampled_from([1.0, 0.5, 0.0, -1.0, 1e300]),
    "order": st.sampled_from([2, 4, 3, 0, -2]),
}))
def test_solver_block_values_end_in_an_exit_code(solver):
    with tempfile.TemporaryDirectory() as tmp:
        p = write_config(Path(tmp) / "c.json", solver=solver,
                         grid={"n_points": 64, "domain_length": 12 * np.pi},
                         schedule={"t_end": 0.06, "dt": 0.03, "snapshot_every": 1})
        code = main(["run", "--config", str(p), "--output-dir", str(Path(tmp) / "out")])
    assert code in _README_EXIT_CODES
    if solver.get("order", 2) != 2 or solver.get("picard_max_iter", 80) < 1 \
            or not all(0.0 < solver.get(k, 1.0) < math.inf for k in ("picard_tol", "series_tol")):
        assert code == EXIT_CONFIG


# the README config over five steps, so a mutation that slipped through would
# still end fast
_FUZZ_BASE = json.loads((ROOT / "examples" / "readme.json").read_text())
_FUZZ_BASE["schedule"]["t_end"] = 0.1
# values of another JSON type than the entry's own; an int is a valid number
_WRONG_TYPED = {int: [2.5, "1", True, None, [1], {}],
                float: ["0.5", False, None, [0.5], {}],
                str: [1, None, True, ["gaussian_bump"], {}],
                dict: [1, 0.5, "x", None, True, []]}
# Infinity is a valid threshold there: it switches the guard off
_GUARDS = {("solver", "leakage_threshold"), ("solver", "cfl_bound")}


@st.composite
def _config_mutations(draw):
    """A path into one block of the README config and the value written there.

    The value is an unknown key, a wrong-typed value or a NaN/Infinity token
    (json reads and writes all three); the path ends in the key it names.
    """
    block = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    nested = isinstance(_FUZZ_BASE[block], dict)
    kind = draw(st.sampled_from(["unknown key", "wrong type", "non-finite"]))
    if kind == "unknown key":
        return ((block, "unknown_knob") if nested else ("unknown_knob",)), 1.0
    path = (block,)
    if nested and draw(st.booleans()):
        path = (block, draw(st.sampled_from(sorted(_FUZZ_BASE[block]))))
    if kind == "wrong type":
        current = _FUZZ_BASE[block] if len(path) == 1 else _FUZZ_BASE[block][path[1]]
        return path, draw(st.sampled_from(_WRONG_TYPED[type(current)]))
    tokens = [math.nan, -math.inf] + ([] if path in _GUARDS else [math.inf])
    return path, draw(st.sampled_from(tokens))


@settings(max_examples=80, deadline=None)
@given(mutation=_config_mutations())
# each ended in exit 0, 3 or a traceback before the types checked their values
@example(mutation=(("fluid", "h2"), math.inf))
@example(mutation=(("fluid", "a_rho"), math.inf))
@example(mutation=(("solver", "leakage_threshold"), math.nan))
@example(mutation=(("initial_data", "width"), math.inf))
@example(mutation=(("initial_data",), []))
@example(mutation=(("initial_data", "preset"), ["gaussian_bump"]))
def test_one_bad_entry_anywhere_in_the_config_is_a_configuration_error(mutation):
    path, value = mutation
    raw = copy.deepcopy(_FUZZ_BASE)
    parent = raw[path[0]] if len(path) == 2 else raw
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "c.json"
        p.write_text(json.dumps(raw))
        for argv in (["run", "--output-dir", str(Path(tmp) / "out")], ["certify"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--config", str(p)])
            assert code == EXIT_CONFIG, (argv[0], err.getvalue())
            # the message names the entry, whatever its case
            assert path[-1].lower() in err.getvalue().lower()


def _readme_variant(path: Path, **entries) -> Path:
    """The README config over five steps, with ``block__key=value`` entries changed."""
    raw = copy.deepcopy(_FUZZ_BASE)
    for name, value in entries.items():
        block, key = name.split("__")
        raw[block][key] = value
    path.write_text(json.dumps(raw))
    return path


def _run_with_metadata(config: Path, out: Path) -> tuple[int, dict]:
    code = main(["run", "--config", str(config), "--output-dir", str(out)])
    return code, json.loads((out / "metadata.json").read_text())["status"]


def test_weighted_norm_past_the_exponential_guard_ends_in_exit_5(tmp_path, capsys):
    # an admissible datum whose weighted L2 norm reaches 2 nu t xi_max = 719 at
    # t = 7; the traceback left the metadata of an earlier run in place
    p = _readme_variant(tmp_path / "c.json", fluid__a_rho=10.0, solver__leakage_threshold=1.0,
                        schedule__t_end=7.5, schedule__dt=0.05, schedule__snapshot_every=10)
    out = tmp_path / "out"
    out.mkdir()
    (out / "metadata.json").write_text(json.dumps({"status": {"exit": 0}}))
    assert main(["certify", "--config", str(p)]) == EXIT_OK
    code, status = _run_with_metadata(p, out)
    assert code == cli.EXIT_BUDGET
    assert status["exit"] == code
    assert "exponential guard" in status["reason"] and "t = 7 " in status["reason"]
    assert "exponential guard" in capsys.readouterr().err


# each ended in a traceback, or in exit 2 naming the wrong entry (width
# 1e-300), before these values were bounded; h2 = 20 puts exp(2 h2 |xi|) past
# the double range on the README grid
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in ["fluid__a_rho", "fluid__h2", "grid__domain_length",
                                 "initial_data__amplitude", "initial_data__width"]
    for value in (1e-300, 1e300)] + [("fluid__h2", 20.0)])
def test_finite_extremes_end_in_a_readme_exit_code(tmp_path, capsys, entry, value):
    p = _readme_variant(tmp_path / "c.json", **{entry: value})
    out = tmp_path / "out"
    # an overflow on the way is a fault even where the exit code is right
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert_code = main(["certify", "--config", str(p)])
        code = main(["run", "--config", str(p), "--output-dir", str(out)])
    assert cert_code in _README_EXIT_CODES and code in _README_EXIT_CODES
    printed = capsys.readouterr()
    assert "NaN" not in printed.out
    err = printed.err
    if entry == "grid__domain_length" and value == 1e-300:
        # pi n / L would have no finite square
        assert cert_code == code == EXIT_CONFIG
    if code == EXIT_CONFIG:
        # a config rejected on load leaves no run to record
        assert entry.split("__")[1] in err
    else:
        assert json.loads((out / "metadata.json").read_text())["status"]["exit"] == code


def test_diverging_strength_solve_ends_in_exit_4(tmp_path):
    # a real divergence, not an injected one: at A_kappa = A_mu = -0.99,
    # h2 = 0.1 and amplitude 15 the Picard update grows from its first
    # iteration on (1.9e3, 3.4e4, ..., as with the line coupling summed by the
    # dense trapezoid rule), so the solve stops after three growths, at 1.2e7,
    # instead of running to its cap of 80 iterations
    p = _readme_variant(tmp_path / "c.json", fluid__a_kappa=-0.99, fluid__a_mu=-0.99,
                        fluid__h2=0.1, initial_data__amplitude=15.0)
    assert main(["certify", "--config", str(p)]) == EXIT_INADMISSIBLE
    code, status = _run_with_metadata(p, tmp_path / "out")
    assert code == EXIT_DIVERGENCE
    assert status["exit"] == code
    m = re.fullmatch(r"no contraction: the update grew in 3 consecutive iterations "
                     r"\(last residual (\S+)\)", status["reason"])
    assert m and float(m[1]) > 1e6


@pytest.fixture(scope="module")
def checkpointed_run(tmp_path_factory):
    """An uninterrupted N=64 run of ten steps with a checkpoint at every step."""
    base = tmp_path_factory.mktemp("full")
    p = write_config(base / "c.json", grid={"n_points": 64, "domain_length": 12 * np.pi},
                     schedule={"t_end": 0.3, "dt": 0.03, "snapshot_every": 1})
    assert main(["run", "--config", str(p), "--output-dir", str(base / "out")]) == EXIT_OK
    return p, base / "out"


@settings(max_examples=10, deadline=None)
@given(at=st.integers(0, 10))
def test_resume_at_any_step_reproduces_the_run(checkpointed_run, at):
    # the interrupted run wrote its rows and checkpoints up to step ``at``
    config, full = checkpointed_run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(full, out)
        for ck in (out / "checkpoints").glob("ckpt_*.json"):
            if int(ck.stem[5:]) > at:
                ck.unlink()
        rows = (full / "trajectory.csv").read_text().splitlines(True)
        (out / "trajectory.csv").write_text("".join(rows[: at + 2]))
        resume = out / "checkpoints" / f"ckpt_{at:08d}.json"
        assert main(["run", "--config", str(config), "--output-dir", str(out),
                     "--resume", str(resume)]) == EXIT_OK
        assert (out / "trajectory.csv").read_bytes() == (full / "trajectory.csv").read_bytes()
        last = "checkpoints/ckpt_00000010.json"
        assert (out / last).read_bytes() == (full / last).read_bytes()
