"""Smoke test of the benchmark itself, at tiny size (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that a wrong reference or a corrupted output counts as a failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
from muskatjump import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(workload):
    result = _bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_printed_with_unit():
    result = _bench("certify_scan", trace=1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["certify.ledger.per_certificate"]["value"] > 0


def _executed(workload: str, workdir: Path) -> bw.Job:
    job = bw.make_job(workload, 7, 1, workdir)
    bw.execute(job, cli)
    return job


def test_wrong_reference_counts_as_failure(workdir):
    reference = bw.load_reference()
    job = _executed("certify_scan", workdir)
    assert bw.check_job(job, reference) == {}

    wrong = copy.deepcopy(reference)
    first = job.ops[0].expect
    datum = wrong["configs"][first["config"]]["data"][first["datum"]]
    datum["verdict"] = "inadmissible" if datum["verdict"] == "admissible" else "admissible"
    second = job.ops[1].expect
    wrong["configs"][second["config"]]["k0"] *= 1.0 + 1e-6
    failures = bw.check_job(job, wrong)
    assert set(failures) == {0, 1}
    assert "verdict" in failures[0][0] and "k0" in failures[1][0]


def test_corrupted_certificate_counts_as_failure(workdir):
    reference = bw.load_reference()
    job = _executed("certify_scan", workdir)
    cert = json.loads(job.ops[0].stdout)
    cert["nu"] = None if cert["nu"] is None else cert["nu"] * (1.0 + 1e-6)
    cert["k1"] *= 1.0 - 1e-6
    job.ops[0].stdout = json.dumps(cert)
    job.ops[1].exit = 6 if job.ops[1].exit == 0 else 0
    job.ops[2].stdout = job.ops[2].stdout[:-20]
    failures = bw.check_job(job, reference)
    assert set(failures) == {0, 1, 2}
    assert "k1" in " ".join(failures[0])
    assert "exit" in failures[1][0] and "not JSON" in failures[2][0]


def test_corrupted_run_output_counts_as_failure(workdir):
    job = _executed("decay512", workdir)
    assert bw.check_job(job) == {}
    (run,) = job.ops

    csv_path = run.outdir / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[-1].split(",")
    row[header.index("F11")] = repr(10.0 * float(row[header.index("F11")]))
    csv_path.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    assert any("F11" in msg for msg in bw.check_job(job)[0])

    run.exit = 3
    assert "exit 3" in bw.check_job(job)[0][0]


def test_oracle_check_catches_a_wrong_rhs(workdir, monkeypatch):
    job = _executed("decay512", workdir)
    from muskatjump import evolution
    real = evolution.rhs

    def skewed(*args, **kwargs):
        br = real(*args, **kwargs)
        return type(br)(**{**br.__dict__, "i3": br.i3.with_coefficients(br.i3.coefficients * 1.01)})

    monkeypatch.setattr(evolution, "rhs", skewed)
    failures = bw.check_job(job)
    assert list(failures) == [0] and "oracle" in failures[0][0]
