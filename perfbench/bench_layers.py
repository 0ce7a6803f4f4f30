"""Per-layer metrics of a traced run, from the spans and observations in bench_trace."""

from __future__ import annotations

import statistics
import tracemalloc

from bench_workloads import final_checkpoint, percentile

PER_LAYER = {
    "spectral.product_coefficients.calls_per_rhs": "count",
    "spectral.product_coefficients.self_s": "s",
    "spectral.product_coefficients.fft_points_per_rhs": "computed-points",
    "vorticity.solve_vorticity.calls": "count",
    "vorticity.solve_vorticity.ms_p50": "ms",
    "vorticity.solve_vorticity.self_s": "s",
    "vorticity.picard.iterations_mean": "count",
    "vorticity.picard.iterations_max": "count",
    "vorticity.picard.contraction_ratio_max": "ratio",
    "vorticity.target_series_apply.calls_per_rhs": "count",
    "vorticity.target_series_apply.self_s": "s",
    "vorticity.series.n_max_max": "count",
    "vorticity.omega2_of_omega1.calls_per_rhs": "count",
    "vorticity.omega2_of_omega1.self_s": "s",
    "vorticity.omega2_of_omega1.quadrature_calls": "count",
    "evolution.nonlinear_tendency.calls": "count",
    "evolution.nonlinear_tendency.ms_p50": "ms",
    "evolution.nonlinear_tendency.self_s": "s",
    "evolution.nonlinear_tendency.peak_alloc_mb": "MB",
    "evolution.step.calls": "count",
    "evolution.step.ms_p50": "ms",
    "evolution.step.ms_p90": "ms",
    "evolution.run.self_s": "s",
    "evolution.save_checkpoint.calls": "count",
    "evolution.save_checkpoint.ms_p50": "ms",
    "evolution.checkpoint.bytes": "bytes",
    "norms.norm_report.calls": "count",
    "norms.norm_report.self_s": "s",
    "certify.certify_datum.calls": "count",
    "certify.certify_datum.ms_p50": "ms",
    "certify.certify_datum.ms_p90": "ms",
    "certify.thresholds.calls": "count",
    "certify.thresholds.self_s": "s",
    "certify.ledger.calls": "count",
    "certify.ledger.per_certificate": "count",
    "certify.ledger.self_s": "s",
    "cli.load_config.ms_p50": "ms",
    "cli.cmd.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ms(row, q=0.5) -> float:
    if not row["durations"]:
        return 0.0
    if q == 0.5:
        return statistics.median(row["durations"]) * 1e3
    return percentile(row["durations"], q) * 1e3


def tendency_peak_alloc_mb(job) -> float:
    """Peak Python-tracked allocation of one nonlinear_tendency call on the final state.

    A separate pass after the timed region: tracemalloc slows every
    allocation, so it never runs while anything is timed.
    """
    from muskatjump.evolution import SolverOptions, load_checkpoint, nonlinear_tendency
    from muskatjump.vorticity import FluidConfig

    runs = [op for op in job.ops if op.kind == "run" and op.exit == 0]
    if not runs:
        return 0.0
    op = runs[-1]
    state, _, _, _ = load_checkpoint(final_checkpoint(op))
    fluid = FluidConfig(**op.config["fluid"])
    lt = op.config.get("solver", {}).get("leakage_threshold", 1e-4)
    tracemalloc.start()
    try:
        nonlinear_tendency(state, fluid, SolverOptions(leakage_threshold=lt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def layer_metrics(tracer, job, traced_wall: float, untraced_wall: float | None) -> dict:
    table = tracer.layer_table()
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def row(name):
        return table.get(name, empty)

    obs = tracer.observations
    n_rhs = row("evolution.nonlinear_tendency")["calls"] + row("evolution.rhs")["calls"]

    def per_rhs(name):
        return row(name)["calls"] / n_rhs if n_rhs else 0.0

    grid_n = max((op.config["grid"]["n_points"] for op in job.ops if op.kind == "run"),
                 default=0)
    iters = obs["picard_iterations"]
    n_certs = row("certify.certify_datum")["calls"]
    bytes_ = obs["checkpoint_bytes"]
    values = {
        "spectral.product_coefficients.calls_per_rhs": per_rhs("spectral.product_coefficients"),
        "spectral.product_coefficients.self_s": row("spectral.product_coefficients")["self_s"],
        # three FFTs of size 2N per dealiased product, from the call count
        "spectral.product_coefficients.fft_points_per_rhs":
            per_rhs("spectral.product_coefficients") * 3 * 2 * grid_n,
        "vorticity.solve_vorticity.calls": row("vorticity.solve_vorticity")["calls"],
        "vorticity.solve_vorticity.ms_p50": _ms(row("vorticity.solve_vorticity")),
        "vorticity.solve_vorticity.self_s": row("vorticity.solve_vorticity")["self_s"],
        "vorticity.picard.iterations_mean": statistics.fmean(iters) if iters else 0.0,
        "vorticity.picard.iterations_max": max(iters, default=0),
        "vorticity.picard.contraction_ratio_max": max(obs["contraction_ratio"], default=0.0),
        "vorticity.target_series_apply.calls_per_rhs": per_rhs("vorticity.target_series_apply"),
        "vorticity.target_series_apply.self_s": row("vorticity.target_series_apply")["self_s"],
        "vorticity.series.n_max_max": max(obs["series_n_max"], default=0),
        "vorticity.omega2_of_omega1.calls_per_rhs": per_rhs("vorticity.omega2_of_omega1"),
        "vorticity.omega2_of_omega1.self_s": row("vorticity.omega2_of_omega1")["self_s"],
        "vorticity.omega2_of_omega1.quadrature_calls":
            sum(m == "quadrature" for m in obs["omega2_method"]),
        "evolution.nonlinear_tendency.calls": row("evolution.nonlinear_tendency")["calls"],
        "evolution.nonlinear_tendency.ms_p50": _ms(row("evolution.nonlinear_tendency")),
        "evolution.nonlinear_tendency.self_s": row("evolution.nonlinear_tendency")["self_s"],
        "evolution.nonlinear_tendency.peak_alloc_mb": tendency_peak_alloc_mb(job),
        "evolution.step.calls": row("evolution.step")["calls"],
        "evolution.step.ms_p50": _ms(row("evolution.step")),
        "evolution.step.ms_p90": _ms(row("evolution.step"), 0.9),
        "evolution.run.self_s": row("evolution.run")["self_s"],
        "evolution.save_checkpoint.calls": row("evolution.save_checkpoint")["calls"],
        "evolution.save_checkpoint.ms_p50": _ms(row("evolution.save_checkpoint")),
        "evolution.checkpoint.bytes": statistics.fmean(bytes_) if bytes_ else 0.0,
        "norms.norm_report.calls": row("norms.norm_report")["calls"],
        "norms.norm_report.self_s": row("norms.norm_report")["self_s"],
        "certify.certify_datum.calls": n_certs,
        "certify.certify_datum.ms_p50": _ms(row("certify.certify_datum")),
        "certify.certify_datum.ms_p90": _ms(row("certify.certify_datum"), 0.9),
        "certify.thresholds.calls": row("certify.thresholds")["calls"],
        "certify.thresholds.self_s": row("certify.thresholds")["self_s"],
        "certify.ledger.calls": row("certify.ledger")["calls"],
        "certify.ledger.per_certificate":
            row("certify.ledger")["calls"] / n_certs if n_certs else 0.0,
        "certify.ledger.self_s": row("certify.ledger")["self_s"],
        "cli.load_config.ms_p50": _ms(row("cli.load_config")),
        "cli.cmd.self_s": row("cli.cmd_run")["self_s"] + row("cli.cmd_certify")["self_s"],
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def self_time_table(tracer, wall: float, top: int = 12) -> str:
    """Human-readable self-time shares of the traced wall time, largest first."""
    table = tracer.layer_table()
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    lines = [f"# {'layer':<40}{'calls':>10}{'self_s':>10}{'share':>8}"]
    for name, r in rows:
        lines.append(f"# {name:<40}{r['calls']:>10}{r['self_s']:>10.3f}"
                     f"{r['self_s'] / wall:>8.1%}")
    return "\n".join(lines)
