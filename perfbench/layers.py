"""Metric names and units, and the per-layer metrics of a traced run.

Per-layer counts and seconds are per round of the workload; rates pool
every traced round.  Busy seconds are summed over threads, so with the
`experiments` worker pool they can exceed wall time.  A metric whose
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Spans

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# modules with a self-time metric of their own; cli has cli.main.self_s
MODULES = ("policies", "fluid", "sim", "rng", "experiments")
FLUID_MULTI_SIZES = (2, 5, 10, 20)

PER_LAYER = {
    "policies.backward.ns_per_cell": "ns",
    "policies.backward.calls": "count",
    "policies.solve_dp.ns_per_cell": "ns",
    "policies.solve_dp_multi.ns_per_state": "ns",
    "policies.rates_batch.calls": "count",
    "policies.rates_batch.busy_s": "s",
    "policies.decide.us_per_call": "us",
    **{f"fluid.solve_fluid_multi.us_per_solve.n{n}": "us" for n in FLUID_MULTI_SIZES},
    "fluid.solve_fluid_multi.calls": "count",
    "fluid.box_qp2_batch.ns_per_elem": "ns",
    "sim.simulate_batch.ns_per_rep_period": "ns",
    "sim.simulate_batch_multi.ns_per_rep_period": "ns",
    "sim.ho_inner_values.ns_per_rep_period": "ns",
    "sim.estimate_regret.self_s": "s",
    "sim.simulate.us_per_period": "us",
    "sim.simulate_multi.us_per_period": "us",
    "rng.uniforms.ns_per_draw": "ns",
    "rng.uniforms.draws": "count",
    "rng.uniforms.calls": "count",
    "experiments.write_csv.mb_per_s": "MB/s",
    "experiments.write_csv.bytes": "bytes",
    "experiments.trace_rows.us_per_row": "us",
    "experiments.pool.threads": "count",
    "cli.main.self_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "check.exact_rows_bitwise": "count",
    "trace.overhead_pct": "%",
}


def _per_work(spans: Spans, mask: np.ndarray, scale: float) -> float:
    work = spans.work_sum(mask)
    return scale * spans.busy(mask) / work if work > 0 else 0.0


def _per_call(spans: Spans, mask: np.ndarray, scale: float) -> float:
    calls = int(mask.sum())
    return scale * spans.busy(mask) / calls if calls else 0.0


def per_layer(spans: Spans, rounds: int, op_intervals, wall_untraced: float,
              wall_traced: float, bitwise_rows: int) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of ``rounds`` traced rounds."""
    m = spans.mask
    backward = m("policies.backward")
    fluid_multi = m("fluid.solve_fluid_multi")
    write_csv = m("experiments.write_csv")
    out = {
        "policies.backward.ns_per_cell": _per_work(spans, backward, 1e9),
        "policies.backward.calls": backward.sum() / rounds,
        "policies.solve_dp.ns_per_cell": _per_work(spans, m("policies.solve_dp"), 1e9),
        "policies.solve_dp_multi.ns_per_state": _per_work(spans, m("policies.solve_dp_multi"), 1e9),
        "policies.rates_batch.calls": m("policies.rates_batch").sum() / rounds,
        "policies.rates_batch.busy_s": spans.busy(m("policies.rates_batch")) / rounds,
        "policies.decide.us_per_call": _per_call(spans, m("policies.decide"), 1e6),
        "fluid.solve_fluid_multi.calls": fluid_multi.sum() / rounds,
        "fluid.box_qp2_batch.ns_per_elem": _per_work(spans, m("fluid.box_qp2_batch"), 1e9),
        "sim.simulate_batch.ns_per_rep_period": _per_work(spans, m("sim.simulate_batch"), 1e9),
        "sim.simulate_batch_multi.ns_per_rep_period":
            _per_work(spans, m("sim.simulate_batch_multi"), 1e9),
        "sim.ho_inner_values.ns_per_rep_period": _per_work(spans, m("sim.ho_inner_values"), 1e9),
        "sim.estimate_regret.self_s": float(spans.self_s[m("sim.estimate_regret")].sum()) / rounds,
        "sim.simulate.us_per_period": _per_work(spans, m("sim.simulate"), 1e6),
        "sim.simulate_multi.us_per_period": _per_work(spans, m("sim.simulate_multi"), 1e6),
        "rng.uniforms.ns_per_draw": _per_work(spans, m("rng.uniforms"), 1e9),
        "rng.uniforms.draws": spans.work_sum(m("rng.uniforms")) / rounds,
        "rng.uniforms.calls": m("rng.uniforms").sum() / rounds,
        "experiments.write_csv.mb_per_s":
            spans.work_sum(write_csv) / spans.busy(write_csv) / 1e6 if write_csv.any() else 0.0,
        "experiments.write_csv.bytes": spans.work_sum(write_csv) / rounds,
        "experiments.trace_rows.us_per_row": _per_work(spans, m("experiments.trace_rows"), 1e6),
        "experiments.pool.threads": _pool_threads(spans, backward, op_intervals),
        "cli.main.self_s": float(spans.self_s[m("cli.main")].sum()) / rounds,
        "check.exact_rows_bitwise": bitwise_rows,
        "trace.overhead_pct": 100.0 * (wall_traced / wall_untraced - 1.0),
    }
    for n in FLUID_MULTI_SIZES:
        out[f"fluid.solve_fluid_multi.us_per_solve.n{n}"] = _per_call(
            spans, fluid_multi & (spans.work == n), 1e6)
    for module in MODULES:
        in_module = np.isin(spans.name, [i for i, s in enumerate(spans.names)
                                         if s.startswith(module + ".")])
        out[f"{module}.self_s"] = float(spans.self_s[in_module].sum()) / rounds
    return {k: float(out[k]) for k in PER_LAYER}


def _pool_threads(spans: Spans, backward: np.ndarray, op_intervals) -> int:
    """Most distinct threads that ran backward passes within one operation."""
    best = 0
    for t0, t1 in op_intervals:
        inside = backward & (spans.start >= t0) & (spans.start <= t1)
        best = max(best, np.unique(spans.tid[inside]).size)
    return best
