"""Benchmark of the muskatjump package, driven through its command line.

    python3 perfbench/run.py --workload decay512 --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from the seed, sets up (import, input generation,
a small warm-up run) several times, times the workload's operations through
``muskatjump.cli.main``, checks every output and prints, as the last line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics, measured by wrapping the package's
public functions from outside (see bench_trace.py).  A traced run also runs
the same workload untraced in a child process to report the tracing
overhead.  The package is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier on a shared machine, and no slower here (the hot
# paths are FFTs and N x N matvecs that numpy runs single-threaded anyway).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import muskatjump from SRC only; returns the package and its cli module."""
    if not (SRC / "muskatjump" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'muskatjump'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import muskatjump
    from muskatjump import cli
    if Path(muskatjump.__file__).resolve().parent != (SRC / "muskatjump").resolve():
        print(f"perfbench: imported muskatjump from {muskatjump.__file__}", file=sys.stderr)
        sys.exit(2)
    return muskatjump, cli


def environment_record() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches: dict = {}  # level -> (size per instance, distinct sharing cpu sets)
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = "L" + (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        caches.setdefault(level, (size, set()))[1].add(shared)
    dep = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": {lvl: f"{size} x {len(sets)}" for lvl, (size, sets) in sorted(caches.items())},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": dep.get("name"), "version": dep.get("version")},
        "blas_threads": int(BLAS_THREADS),
    }


def import_seconds() -> float:
    """Time to import the command-line module in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import muskatjump.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def setup(bw, cli, workload: str, seed: int, seconds: int, rundir: Path):
    """Import, generate the inputs and warm up; repeated, the median is the set-up time.

    The import is timed in a fresh interpreter each time, since this process
    can import the package only once.
    """
    times, failures = [], []
    job = None
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        job = bw.make_job(workload, seed, seconds, rundir / f"inputs{rep}")
        warm = bw.warmup_job(rep, rundir / f"warmup{rep}")
        bw.execute(warm, cli)
        times.append(imported + time.perf_counter() - t0)
        if warm.ops[0].exit != 0:
            failures.append(f"warm-up run exit {warm.ops[0].exit}: {warm.ops[0].stderr[-300:]}")
    return job, statistics.median(times), failures


def end_to_end_metrics(wall: float, setup_s: float, rss_mb: float) -> dict:
    values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": rss_mb}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_child_untraced(args) -> dict | None:
    """The same workload and seed, untraced, in a child process (for the overhead)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    mj, cli = import_package()
    import bench_workloads as bw
    if args.workload not in bw.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {bw.WORKLOADS}",
              file=sys.stderr)
        return 2

    child = run_child_untraced(args) if args.trace else None

    rundir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job, setup_med, problems = setup(bw, cli, args.workload, args.seed, args.seconds,
                                         rundir)
        tracer = None
        if args.trace:
            import bench_trace
            tracer = bench_trace.Tracer()
            tracer.install(mj)
        t0 = time.perf_counter()
        try:
            bw.execute(job, cli)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference = bw.load_reference() if args.workload == "certify_scan" else None
        failures = bw.check_job(job, reference)
        for i, msgs in sorted(failures.items()):
            for msg in msgs:
                print(f"FAIL op {i} ({job.ops[i].kind}): {msg}", file=sys.stderr)
        for msg in problems:
            print(f"FAIL set-up: {msg}", file=sys.stderr)

        correct = not failures and not problems
        if tracer is not None:
            import bench_layers
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            untraced_wall = child["metrics"]["wall_s"]["value"] if child else None
            correct = correct and bool(child and child["correct"])
            metrics = bench_layers.layer_metrics(tracer, job, wall, untraced_wall)
            print(bench_layers.self_time_table(tracer, wall), file=sys.stderr)
            print(f"# spans written to {trace_path}", file=sys.stderr)
        else:
            metrics = end_to_end_metrics(wall, setup_med, rss_mb)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(job.ops)
    cert_ms = [op.seconds * 1e3 for op in job.ops if op.kind == "certify"]
    print("# env " + json.dumps(environment_record(), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} operations={attempted} "
          f"setup_repeats={SETUP_REPEATS} error_rate={len(failures) / attempted:.4g} "
          f"config_repeat_share={job.repeat_share:.3f}")
    if cert_ms and not args.trace:
        print(f"# certify latency: p50 {statistics.median(cert_ms):.1f} ms, "
              f"p90 {bw.percentile(cert_ms, 0.9):.1f} ms (samples: {len(cert_ms)})")
    samples = {"setup_s": SETUP_REPEATS}
    for name, m in metrics.items():
        count = "" if args.trace else f" (samples: {samples.get(name, 1)})"
        print(f"# {name} = {m['value']:.6g} {m['unit']}{count}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
