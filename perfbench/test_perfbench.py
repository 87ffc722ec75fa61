"""Self-test of the benchmark: every workload at toy size, traced and untraced.

Whole runs go through a subprocess, because a run re-imports the package
and must not disturb the modules other tests hold.  The tracer is also
checked in-process: wrapped functions return what the originals return,
every binding is restored afterwards, and a missing target is reported
as absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

from tracer import Target, Tracer  # noqa: E402

import fluidpricing as fp  # noqa: E402
import fluidpricing.cli  # noqa: E402,F401  (so that cli.main is traced too)
import fluidpricing.experiments  # noqa: E402,F401  (bound as fp.experiments)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_a_valid_result_line(tmp_path, workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "toy", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    # with --trace 1 an untraced and a traced round ran, and the traced outputs
    # matched the untraced ones bit for bit (a mismatch counts as a failure)
    report = json.loads((tmp_path / f"report-{workload}-seed3-trace{trace}.json").read_text())
    assert [r["traced"] for r in report["rounds"]] == ([False, True] if trace else [False])
    assert result["attempted"] == len(report["maxrss_after_each_op"])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not list(tmp_path.glob("work-*")), "work files left behind"


def test_same_seed_gives_same_inputs(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = run_bench(ROOT, "--workload", "monte-carlo", "--seed", "5", "--seconds", "0",
                         "--size", "toy", "--outdir", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report-monte-carlo-seed5-trace0.json").read_text())
        digests.append(report["output_sha256"])
    assert digests[0] == digests[1] and len(digests[0]) > 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _calls():
    model = fp.benchmark_model()
    additive = fp.DemandModel.linear_additive(0.75, 0.5, 0.0, 1.0, 0.1)
    multi = fp.MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]],
                                box_hi=[1.0, 1.0])
    trace = fp.simulate(additive, fp.resolving_policy(additive), 64, 20, 7)
    return [
        fp.exact_policy_values(model, 64, 20, {"static": fp.static_policy(model, 20 / 64),
                                               "resolving": fp.resolving_policy(model)}),
        fp.solve_dp(model, 32, 10).values,
        fp.simulate_batch(model, fp.resolving_policy(model), 64, 20, 3, 500).total_revenue,
        trace.revenue,
        fp.simulate_multi(multi, None, 16, np.array([4.0, 8.0]), 5).revenue,
        fp.experiments.write_csv(fp.experiments.trace_rows(trace),
                                 fp.experiments.TRACE_COLUMNS),
        fp.solve_dp_multi(multi, 8, [2, 4]),
    ]


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.filterwarnings("ignore::fluidpricing.errors.DegeneracyWarning")
def test_wrappers_return_untraced_values_and_restore_bindings():
    originals = (fp.exact_policy_values, fp.experiments.write_csv,
                 fp.policies.ResolvingPolicy.rates_batch)
    plain = _calls()
    tracer = Tracer()
    with tracer:
        assert fp.exact_policy_values is not originals[0]
        traced = _calls()
    assert (fp.exact_policy_values, fp.experiments.write_csv,
            fp.policies.ResolvingPolicy.rates_batch) == originals
    assert all(_same(a, b) for a, b in zip(plain, traced))
    assert tracer.absent == []
    spans = tracer.spans()
    for name in ("policies.backward", "policies.solve_dp", "policies.rates_batch",
                 "policies.decide", "sim.simulate_batch", "sim.simulate", "rng.uniforms",
                 "fluid.solve_fluid_multi", "experiments.write_csv"):
        assert spans.calls(name) > 0, name
    backward = spans.mask("policies.backward")
    assert spans.work_sum(backward) == 64 * 21 * 3
    # a parent's self time excludes its children
    assert np.all(spans.self_s <= spans.duration + 1e-12)
    assert spans.self_s[spans.mask("sim.simulate_batch")].sum() < spans.busy(
        spans.mask("sim.simulate_batch"))


def test_missing_target_is_reported_absent():
    tracer = Tracer([Target("policies.gone", "policies", "no_such_function"),
                     Target("policies.gone_method", "policies", "no_such_method", method=True),
                     Target("nowhere.gone", "no_such_module", "f")])
    with tracer:
        fp.dp_value(fp.benchmark_model(), 8, 3)
    assert tracer.absent == ["policies.gone", "policies.gone_method", "nowhere.gone"]
    assert tracer.spans().name.size == 0
