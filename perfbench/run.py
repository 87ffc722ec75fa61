"""Run one benchmark workload of fluidpricing and print its result as one JSON line.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Set-up (import, writing the generated inputs, loading the recorded
references) is repeated and its median reported as ``setup_s``.  The run
then repeats rounds of the workload's operations, one at a time on this
thread, until the next round would overrun ``--seconds`` (at least one
round).  ``wall_s`` is the round time with each operation at its median
over the rounds.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` each untraced round is followed by a traced
one and the line holds the per-layer metrics.  Every output is checked,
and an operation that raises, exits non-zero, fails its check or differs
from its first round counts as failed.  A report with the machine, the
inputs, memory after each operation and every failure is written to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_PROCESS_READY = time.perf_counter()  # set-up is timed from here on the first pass

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import layers
import machine
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "fluidpricing"
SETUP_REPEATS = 9


def fresh_import():
    """Import the package from scratch (third-party modules stay loaded)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    for sub in ("cli", "experiments"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    return pkg


def digest(obj, h=None):
    """sha256 of an operation's output, exact to the last bit of every float."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            digest(item, h)
        h.update(b")")
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    return h.hexdigest() if top else h


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs rounds of a workload's operations and checks every output."""

    def __init__(self, workload, tracer: Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.first: dict[str, str] = {}
        self.pending: list[tuple] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.rounds: list[dict] = []
        self.rss: list[dict] = []
        self.traced_intervals: list[tuple[float, float]] = []

    def round(self, traced: bool) -> None:
        ops = self.workload.ops
        for op in ops:
            if op.prepare:
                op.prepare()
        results = []
        op_seconds = {}
        index = len(self.rounds) + 1
        if traced:
            self.tracer.install()
        try:
            start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    raw, error = op.run(), None
                except Exception as exc:  # counted as a failed operation
                    raw, error = None, exc
                t1 = time.perf_counter()
                op_seconds[op.label] = t1 - t0
                results.append((op, raw, error))
                self.rss.append({"round": index, "op": op.label, "maxrss_mb": rss_mb()})
                if traced:
                    self.traced_intervals.append((t0, t1))
            seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
        self.rounds.append({"round": index, "traced": traced, "seconds": seconds,
                            "op_seconds": op_seconds})
        for op, raw, error in results:
            self._check(index, op, raw, error)

    def _check(self, index: int, op, raw, error) -> None:
        """Compare an output with the op's first one; the first waits for check_first."""
        self.attempted += 1
        self._guarded(index, op, lambda: self._compare(index, op, raw, error))

    def _compare(self, index: int, op, raw, error) -> list[str]:
        if error is not None:
            raise error
        out = op.output(raw)
        key = digest(out)
        if op.label not in self.first:
            self.first[op.label] = key
            self.pending.append((index, op, out))
            return []
        return [] if key == self.first[op.label] else ["output differs from the first round's"]

    def _guarded(self, index: int, op, fn) -> None:
        try:
            problems = fn()
        except CheckFailed as exc:
            problems = [str(exc)]
        except Exception as exc:  # the program or a check raised: record and go on
            problems = ["".join(traceback.format_exception(exc)).strip()]
        if problems:
            self.failures.append({"round": index, "op": op.label, "problems": problems})

    def check_first(self) -> None:
        """Deep checks of each op's first output, after the last round so that their
        memory is not counted in peak_rss_mb."""
        for index, op, out in self.pending:
            self._guarded(index, op, lambda: op.check(out))
        self.pending = []

    def measure(self, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        passes = 0
        while True:
            self.round(traced=False)
            if traced:
                self.round(traced=True)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes > seconds:
                break
        self.check_first()

    def wall(self, traced: bool) -> float:
        """Round time with each operation at its median over this run's rounds.

        Taken per operation rather than per round, so that a disturbance
        which hits one operation in one round does not move the whole round.
        """
        times: dict[str, list[float]] = {}
        for r in self.rounds:
            if r["traced"] == traced:
                for label, seconds in r["op_seconds"].items():
                    times.setdefault(label, []).append(seconds)
        return sum(statistics.median(v) for v in times.values())


def set_up(workload_cls, seed: int, workdir: Path, size: str):
    times = []
    t0 = _PROCESS_READY
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workload = workload_cls(fresh_import(), seed, workdir, size)
        times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return workload, times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="input sizes; toy is for the benchmark's self-test")
    parser.add_argument("--outdir", type=Path, default=HERE / "out",
                        help="where the report, spans and work files go")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    args.outdir.mkdir(parents=True, exist_ok=True)
    workdir = args.outdir / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, setup_times = set_up(workload_cls, args.seed, workdir, args.size)
        imported = Path(sys.modules[PACKAGE].__file__).resolve()
        if SRC.resolve() not in imported.parents:
            print(f"error: imported {imported}, not the checkout's sources", file=sys.stderr)
            return 2
        tracer = Tracer() if args.trace else None
        runner = Runner(workload, tracer)
        runner.measure(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    work_per_round = sum(op.work for op in workload.ops)
    wall_s = runner.wall(traced=False)
    e2e = {
        "wall_s": wall_s,
        "work_per_s": work_per_round / wall_s,
        "peak_rss_mb": max(r["maxrss_mb"] for r in runner.rss),
        "setup_s": statistics.median(setup_times),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": machine.describe(ROOT, SRC),
        "inputs": workload.size,
        "work_unit": workload.work_unit,
        "work_per_round": work_per_round,
        "largest_array": {"bytes": workload.largest_array[0],
                          "what": workload.largest_array[1]},
        "setup_s_each": setup_times,
        "median_round_s": statistics.median(
            r["seconds"] for r in runner.rounds if not r["traced"]),
        "rounds": runner.rounds,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "error_rate": len(runner.failures) / runner.attempted,
        "failures": runner.failures,
        "output_sha256": runner.first,
        "maxrss_after_each_op": runner.rss,
        "peak_rss_set_by": next(r for r in runner.rss if r["maxrss_mb"] == e2e["peak_rss_mb"]),
        "end_to_end": e2e,
        f"{workload.work_unit.replace('-', '_')}_per_s": e2e["work_per_s"],
    }
    if args.trace:
        spans = tracer.spans()
        traced_rounds = sum(r["traced"] for r in runner.rounds)
        metrics = layers.per_layer(spans, traced_rounds, runner.traced_intervals, wall_s,
                                   runner.wall(traced=True),
                                   workload.bitwise_rows)
        units = layers.PER_LAYER
        report["per_layer"] = metrics
        report["absent_targets"] = tracer.absent
        report["span_calls_per_name"] = {n: spans.calls(n) for n in spans.names}
        spans.save(args.outdir / f"spans-{args.workload}.npz")
    else:
        metrics, units = e2e, layers.END_TO_END
    report_path = args.outdir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    _summary(report, metrics, units, report_path)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _summary(report: dict, metrics: dict, units: dict, path: Path) -> None:
    err = sys.stderr
    print(f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{len(report['rounds'])} rounds, {report['attempted']} operations, "
          f"{report['failed']} failed (error_rate {report['error_rate']:g})", file=err)
    for failure in report["failures"][:5]:
        print(f"  FAILED round {failure['round']} {failure['op']}: "
              f"{failure['problems'][0][-400:]}", file=err)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}", file=err)
    peak = report["peak_rss_set_by"]
    print(f"  peak RSS set by {peak['op']} (round {peak['round']}); report {path}", file=err)
    if report.get("absent_targets"):
        print(f"  absent trace targets: {', '.join(report['absent_targets'])}", file=err)


if __name__ == "__main__":
    sys.exit(main())
