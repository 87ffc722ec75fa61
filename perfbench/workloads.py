"""Benchmark workloads: generated inputs, timed operations and output checks.

A workload is a fixed list of operations, called a round.  Only an
operation's ``run`` is timed; turning its raw result into an output and
checking that output happen outside the timed region.  Operations go
through the CLI subcommands and the functions the package exports, and
pass none of the knobs the roadmap plans to delete (worker counts, the
sliced-DP switch, chunk sizes).

Inputs are made from the workload seed and written to the work directory
as model and config JSON, so the program sees only generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

BERNOULLI = {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5, "p_lo": 0.0, "p_hi": 1.0}
ADDITIVE = dict(BERNOULLI, kind="linear-additive", noise_half_width=0.1)
TWO_PRODUCT = {"kind": "multi-quadratic", "g": [1.0, 1.0],
               "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]}
TWO_PRODUCT_X_T = (0.25, 0.5)
X_T = Fraction(5, 16)
Z95 = 1.959963984540054


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    """One timed operation; ``work`` counts its work units from the inputs."""

    label: str
    run: Callable[[], object]
    work: float
    output: Callable[[object], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] | None = None


def y0_of(T: int, x_T=X_T) -> int:
    return int(round(Fraction(x_T).limit_denominator(10**6) * T))


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


class Workload:
    """Base class: holds the imported package and builds the operation list."""

    name = ""
    work_unit = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, pkg, seed: int, workdir: Path, size: str = "full"):
        self.fp = pkg
        self.cli = pkg.cli
        self.size = self.SIZES[size]
        self.ops: list[Op] = []
        # recorded rows that an exact output reproduces byte for byte
        self.bitwise_rows = 0
        # (bytes, description) of the largest array the program builds
        self.largest_array: tuple[int, str] = (0, "")

    def cli_op(self, label: str, argv: list[str], out: Path, work: float,
               check: Callable[[str], list[str]]) -> Op:
        """An operation that runs one CLI subcommand in-process, writing ``out``."""
        argv = [str(a) for a in argv] + ["--out", str(out)]
        cli = self.cli

        def run():
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects its arguments
                    code = exc.code
            return code, err.getvalue()

        def output(raw) -> str:
            code, err = raw
            if code != 0:
                raise CheckFailed(f"exit code {code}: {err.strip()[-300:]}")
            return out.read_text()

        return Op(label, run, work, output, check, prepare=lambda: out.unlink(missing_ok=True))


# -- exact --------------------------------------------------------------------


REFERENCE_FLUID = {6: -0.90, 7: -1.13, 8: -1.37, 9: -1.63, 10: -1.91}
REFERENCE_STATIC = {6: 0.38, 7: 0.70, 8: 1.22, 9: 2.03, 10: 3.27}
REFERENCE_RESOLVING = {6: 0.11, 7: 0.15, 8: 0.18, 9: 0.21, 10: 0.23,
                       11: 0.23, 12: 0.24, 13: 0.24, 14: 0.24, 15: 0.25}
# inventory rates of the `sweep --kind gap` preset, used to count its cells
GAP_SWEEP_X_T = (0.3, 0.325, 0.35, 0.375)
RECORDED_RTOL = 1e-9


class Exact(Workload):
    """`table2` and `sweep --kind gap`: exact backward passes, no randomness."""

    name = "exact"
    work_unit = "cells"
    SIZES = {
        "full": {"table2": [2**k for k in range(6, 16)], "sweep": [2**k for k in range(4, 13)]},
        "toy": {"table2": [64, 128, 256], "sweep": [16, 32, 64]},
    }

    def __init__(self, pkg, seed, workdir, size="full"):
        super().__init__(pkg, seed, workdir, size)
        t2, sw = self.size["table2"], self.size["sweep"]
        self.recorded = {
            "table2": self._recorded("table2.csv", ("T",)),
            "sweep-gap": self._recorded("sweep_gap.csv", ("value", "T")),
        }
        # a cell is T * (y0 + 1) per evaluated object: the DP plus each policy
        t2_cells = sum(T * (y0_of(T) + 1) * 3 for T in t2)
        sw_cells = sum(T * (y0_of(T, x) + 1) * 2 for x in GAP_SWEEP_X_T for T in sw)
        self.ops = [
            self.cli_op("table2", ["table2", "--t-list", ",".join(map(str, t2))],
                        workdir / "table2.csv", t2_cells, self.check_table2),
            self.cli_op("sweep-gap", ["sweep", "--kind", "gap", "--t-list", ",".join(map(str, sw))],
                        workdir / "sweep_gap.csv", sw_cells, self.check_sweep),
        ]
        y0 = y0_of(max(t2))
        self.largest_array = (8 * (y0 + 1), f"one backward-pass slice of y0 + 1 = {y0 + 1} doubles "
                              "(table2 keeps 2 per evaluated object, 6 in all)")

    @staticmethod
    def _recorded(filename: str, key: tuple[str, ...]):
        lines = (DATA / filename).read_text().splitlines()
        rows = {}
        for line, row in zip(lines[1:], csv_rows("\n".join(lines))):
            rows[tuple(row[k] for k in key)] = (line, row)
        return lines[0], key, rows

    def _compare_recorded(self, label: str, text: str) -> tuple[list[str], list[dict]]:
        header, key, recorded = self.recorded[label]
        lines = text.splitlines()
        if not lines or lines[0] != header:
            return [f"{label}: header {lines[:1]} != recorded {header!r}"], []
        rows = csv_rows(text)
        problems, bitwise = [], 0
        keys = [tuple(row[k] for k in key) for row in rows]
        if len(set(keys)) != len(keys):
            problems.append(f"{label}: duplicate rows")
        for line, row, k in zip(lines[1:], rows, keys):
            if k not in recorded:
                problems.append(f"{label}: no recorded row for {k}")
                continue
            ref_line, ref = recorded[k]
            bitwise += line == ref_line
            scale = max(1.0, abs(float(ref["dp_value"])))
            for col in header.split(","):
                if col in key or col in ("sweep",):
                    continue
                a, b = float(row[col]), float(ref[col])
                if not abs(a - b) <= RECORDED_RTOL * scale:
                    problems.append(f"{label} {k} {col}: {a!r} vs recorded {b!r}")
        self.bitwise_rows += bitwise
        return problems, rows

    def check_table2(self, text: str) -> list[str]:
        problems, rows = self._compare_recorded("table2", text)
        want = [str(T) for T in self.size["table2"]]
        if [r["T"] for r in rows] != want:
            problems.append(f"table2: horizons {[r['T'] for r in rows]} != requested {want}")
        for row in rows:
            k = int(row["log2_T"])
            refs = [("resolving_regret", REFERENCE_RESOLVING)]
            if k <= 10:  # static is checked up to 2^10 only: the reference is noisy above
                refs += [("fluid_regret", REFERENCE_FLUID), ("static_regret", REFERENCE_STATIC)]
            for col, ref in refs:
                if k in ref and not abs(float(row[col]) - ref[k]) <= 0.01:
                    problems.append(f"table2 2^{k} {col}: {row[col]} vs paper {ref[k]} +- 0.01")
        return problems

    def check_sweep(self, text: str) -> list[str]:
        problems, rows = self._compare_recorded("sweep-gap", text)
        if len(rows) != len(GAP_SWEEP_X_T) * len(self.size["sweep"]):
            problems.append(f"sweep-gap: {len(rows)} rows")
        return problems


# -- monte-carlo --------------------------------------------------------------


TRACE_FIELDS = ("tau_remaining", "price", "demand_rate", "xi",
                "realized_demand", "inventory_after", "revenue")
MULTI_FIELDS = ("tau_remaining", "prices", "demand_rates", "xi", "sales",
                "inventory_after", "revenue")


def random_multi_model(rng: np.random.Generator, n: int) -> dict:
    """Seeded n-product model JSON with an interior optimum.

    -H is strictly diagonally dominant with nonnegative entries, so it is
    positive definite and every price with a positive demand rate at the
    fluid optimum is nonnegative.
    """
    off = rng.uniform(0.0, 0.5 / n, size=(n, n))
    off = np.triu(off, 1) + np.triu(off, 1).T
    neg_H = off + np.diag(1.0 + off.sum(axis=1) + rng.random(n))
    target = 0.15 + 0.6 * rng.random(n)
    return {"kind": "multi-quadratic", "g": (neg_H @ target).tolist(),
            "H": (-neg_H).tolist(), "box_hi": [1.0] * n}


class MonteCarlo(Workload):
    """Seeded simulation: batched Monte Carlo, then a few single trajectories.

    The batched part (regret estimation, hindsight comparison, the batch
    engines) takes nearly all of the time.  The single trajectories are a
    batch of one with a decision every period; they keep the per-call
    layers (`decide`, `simulate`, `solve_dp`, the n-product active-set
    solver, trace CSV output) in the traced run.
    """

    name = "monte-carlo"
    work_unit = "rep-periods"
    SIZES = {
        "full": {"er_T": [256, 1024, 4096], "er_reps": 2000,
                 "ho_T": [2**k for k in range(6, 13)], "ho_reps": 4000,
                 "batch_T": 1024, "batch_reps": 4000,
                 "two_T": [64, 128, 256], "two_reps": 4000,
                 "trace_T": 1024, "multi_n": [2, 5, 10, 20], "multi_T": 64},
        "toy": {"er_T": [64, 256], "er_reps": 400, "ho_T": [64, 128], "ho_reps": 800,
                "batch_T": 128, "batch_reps": 2000, "two_T": [16, 32], "two_reps": 1000,
                "trace_T": 64, "multi_n": [2, 5], "multi_T": 16},
    }
    POLICIES = ("static", "resolving", "ho")
    TRACES = (("bernoulli", "dp"), ("bernoulli", "resolving"), ("additive", "static"))
    MODELS = {"bernoulli": BERNOULLI, "additive": ADDITIVE}

    def __init__(self, pkg, seed, workdir, size="full"):
        super().__init__(pkg, seed, workdir, size)
        fp, s = pkg, self.size
        rng = np.random.default_rng(seed)
        er_seed, ho_seed, batch_seed, two_seed, trace_seed, multi_seed = (
            int(v) for v in rng.integers(0, 2**31, size=6))
        paths = {k: _write_json(workdir / f"{k}.json", m) for k, m in self.MODELS.items()}
        config_path = _write_json(workdir / "estimate.json", {
            "name": "monte-carlo", "model": ADDITIVE, "T_list": s["er_T"],
            "y0_rule": f"round({X_T}*T)", "policies": list(self.POLICIES),
            "replications": s["er_reps"], "base_seed": er_seed,
        })
        self.additive = fp.model_from_dict(ADDITIVE)
        self.bernoulli = fp.model_from_dict(BERNOULLI)
        self.two = fp.model_from_dict(TWO_PRODUCT)
        resolving = fp.resolving_policy(self.bernoulli)
        T_b, reps_b = s["batch_T"], s["batch_reps"]
        two_x = np.array(TWO_PRODUCT_X_T)

        def two_y0(T):
            return (two_x * T).astype(int)

        self.ops = [
            self.cli_op("estimate-regret", ["estimate-regret", "--config", config_path],
                        workdir / "estimate.csv",
                        s["er_reps"] * sum(s["er_T"]) * len(self.POLICIES), self.check_estimate),
            self.cli_op("ho-compare", ["ho-compare", "--model", paths["additive"],
                                       "--x-t", float(X_T),
                                       "--t-list", ",".join(map(str, s["ho_T"])),
                                       "--replications", s["ho_reps"], "--seed", ho_seed],
                        workdir / "ho.csv", s["ho_reps"] * sum(s["ho_T"]), self.check_ho),
            Op("batch-bernoulli",
               lambda: fp.simulate_batch(self.bernoulli, resolving, T_b, y0_of(T_b),
                                         batch_seed, reps_b),
               reps_b * T_b, lambda raw: raw.total_revenue, self.check_batch),
            Op("two-product",
               lambda: fp.estimate_regret(self.two, s["two_T"], two_y0, ("resolving", "dp"),
                                          replications=s["two_reps"], base_seed=two_seed),
               s["two_reps"] * sum(s["two_T"]),
               lambda raw: tuple((r.T, r.policy, r.value, r.ci_half_width) for r in raw),
               self.check_two_product),
        ]
        T, y0 = s["trace_T"], y0_of(s["trace_T"])
        for kind, policy in self.TRACES:
            label = f"simulate-{kind}-{policy}"
            self.ops.append(self.cli_op(
                label, ["simulate", "--model", paths[kind], "--policy", policy,
                        "-T", T, "--y0", y0, "--seed", trace_seed],
                workdir / f"{label}.csv", T,
                lambda text, kind=kind, policy=policy, T=T, y0=y0: self.check_trace(
                    text, kind, policy, T, y0, trace_seed)))
        T = s["multi_T"]
        for n in s["multi_n"]:
            model = fp.model_from_dict(random_multi_model(rng, n))
            y0_n = np.floor(rng.uniform(0.2, 0.5, size=n) * T)
            self.ops.append(Op(
                f"simulate-multi-n{n}",
                lambda model=model, T=T, y0_n=y0_n: fp.simulate_multi(
                    model, None, T, y0_n, multi_seed),
                T, lambda tr: tuple(np.asarray(getattr(tr, f)) for f in MULTI_FIELDS),
                lambda out, y0_n=y0_n: self.check_multi(out, y0_n)))
        T_max = max(s["er_T"])
        self.largest_array = (
            8 * s["er_reps"] * T_max,
            f"hindsight noise matrix of {s['er_reps']} reps x T = {T_max} doubles")

    def check_estimate(self, text: str) -> list[str]:
        rows = csv_rows(text)
        problems = []
        want = {(str(T), p) for T in self.size["er_T"] for p in self.POLICIES}
        if {(r["T"], r["policy"]) for r in rows} != want or len(rows) != len(want):
            problems.append(f"estimate-regret: rows {[(r['T'], r['policy']) for r in rows]}")
        for r in rows:
            ci, regret = float(r["ci_half_width"]), float(r["regret_vs_fluid"])
            # the fluid value bounds every policy's expected revenue from above
            if not (ci > 0 and math.isfinite(regret) and regret >= -4 * ci / Z95):
                problems.append(f"estimate-regret T={r['T']} {r['policy']}: "
                                f"regret vs fluid {regret} with CI half-width {ci}")
        return problems

    def check_ho(self, text: str) -> list[str]:
        rows = csv_rows(text)
        model = self.additive
        cap = (2.0 / model.beta / 2) * model.noise_half_width**2 / 3  # criterion 9
        problems = []
        if [r["T"] for r in rows] != [str(T) for T in self.size["ho_T"]]:
            problems.append(f"ho-compare: horizons {[r['T'] for r in rows]}")
        for r in rows:
            gap, half = float(r["gap"]), float(r["ci_half_width"])
            if not -3 * half <= gap <= cap + 3 * half:
                problems.append(f"ho-compare T={r['T']}: gap {gap} outside "
                                f"[-3 CI, cap {cap:.5f} + 3 CI], CI half-width {half}")
        return problems

    def check_batch(self, revenue: np.ndarray) -> list[str]:
        fp, T = self.fp, self.size["batch_T"]
        exact = fp.exact_policy_values(self.bernoulli, T, y0_of(T),
                                       {"resolving": fp.resolving_policy(self.bernoulli)})
        se = float(revenue.std(ddof=1)) / math.sqrt(revenue.size)
        diff = abs(float(revenue.mean()) - exact["resolving"])
        if revenue.size != self.size["batch_reps"] or not diff <= 4 * se:
            return [f"batch-bernoulli: |mean - exact| = {diff} > 4 SE = {4 * se}"]
        return []

    def check_two_product(self, reports) -> list[str]:
        by_key = {(T, p): (v, ci) for T, p, v, ci in reports}
        problems = []
        for T in self.size["two_T"]:
            if (T, "dp") not in by_key or (T, "resolving") not in by_key:
                problems.append(f"two-product T={T}: missing rows")
                continue
            dp = by_key[T, "dp"][0]
            value, ci = by_key[T, "resolving"]
            if not value <= dp + 4 * ci / Z95:
                problems.append(f"two-product T={T}: resolving {value} > dp {dp} + 4 SE")
        return problems

    def check_trace(self, text: str, kind: str, policy: str, T: int, y0: int,
                    seed: int) -> list[str]:
        rows = csv_rows(text)
        header = list(rows[0]) if rows else []
        if header != list(TRACE_FIELDS):
            return [f"trace columns {header}"]
        cols = {f: np.array([float(r[f]) for r in rows]) for f in TRACE_FIELDS}
        problems = _dynamics_problems(cols["inventory_after"], y0, cols["revenue"])
        before = np.concatenate([[float(y0)], cols["inventory_after"][:-1]])
        sold = np.minimum(cols["realized_demand"], before)
        finite = np.isfinite(cols["price"])
        expect = np.where(finite, cols["price"], 0.0) * sold
        if not np.array_equal(cols["revenue"], expect):
            problems.append("revenue != price x min(realized demand, inventory)")
        # the CSV must read back to the trace the simulator produces
        fp = self.fp
        model = fp.model_from_dict(self.MODELS[kind])
        if policy == "static":
            pol = fp.static_policy(model, y0 / T)
        elif policy == "resolving":
            pol = fp.resolving_policy(model)
        else:
            pol = fp.solve_dp(model, T, y0).policy()
        trace = fp.simulate(model, pol, T, y0, seed)
        for f in TRACE_FIELDS:
            if not np.array_equal(cols[f], np.asarray(getattr(trace, f), dtype=float)):
                problems.append(f"trace CSV column {f} differs from the simulated trace")
        return problems

    def check_multi(self, out, y0) -> list[str]:
        tr = dict(zip(MULTI_FIELDS, out))
        sales, inv, prices = tr["sales"], tr["inventory_after"], tr["prices"]
        before = np.vstack([y0[None, :], inv[:-1]])
        problems = [f"product {k}: {p}"
                    for k in range(inv.shape[1])
                    for p in _dynamics_problems(inv[:, k], y0[k], tr["revenue"])]
        if not np.all((sales == 0) | (sales == 1)):
            problems.append("multi-product sales are not unit sized")
        if not np.array_equal(inv, np.maximum(0.0, before - sales)):
            problems.append("multi-product inventory does not follow the sales")
        expect = np.einsum("ij,ij->i", prices, sales)
        if not np.allclose(tr["revenue"], expect, rtol=1e-12, atol=1e-12):
            problems.append("multi-product revenue != prices . sales")
        return sorted(set(problems))


def _dynamics_problems(inventory_after: np.ndarray, y0: float, revenue: np.ndarray) -> list[str]:
    """Inventory never grows, sales never exceed inventory, revenue is nonnegative."""
    before = np.concatenate([[float(y0)], inventory_after[:-1]])
    sold = before - inventory_after
    problems = []
    if np.any(sold < 0):
        problems.append("inventory increased")
    if np.any(sold > before) or np.any(inventory_after < 0):
        problems.append("sales exceed inventory")
    if np.any(revenue < 0) or not np.all(np.isfinite(revenue)):
        problems.append("negative or non-finite revenue")
    return problems


WORKLOADS = {w.name: w for w in (Exact, MonteCarlo)}
