"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected wall time is a couple of minutes; the heaviest cells are
the exact evaluations at horizons up to 2**16.

Criterion 2's static-policy tolerances are asserted faithfully and fail at
T = 2**12..2**15: exact evaluation deviates by +0.03..+0.085 from the
reference values there, which are Monte Carlo estimates with exactly that
much sampling noise.  The resolving half of criterion 2 passes.
"""

import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

import fluidpricing as fp
from fluidpricing.experiments import run_ho_compare, run_table2
from fluidpricing.policies import exact_policy_values

import oracles
from conftest import random_multi_model

REFERENCE_FLUID = {6: -0.90, 7: -1.13, 8: -1.37, 9: -1.63, 10: -1.91,
                   11: -2.19, 12: -2.48, 13: -2.78, 14: -3.08, 15: -3.37}
REFERENCE_STATIC = {6: 0.38, 7: 0.70, 8: 1.22, 9: 2.03, 10: 3.27,
                    11: 5.13, 12: 7.84, 13: 11.81, 14: 17.55, 15: 25.84}
REFERENCE_RESOLVING = {6: 0.11, 7: 0.15, 8: 0.18, 9: 0.21, 10: 0.23,
                       11: 0.23, 12: 0.24, 13: 0.24, 14: 0.24, 15: 0.25}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def model():
    return fp.benchmark_model()


@pytest.fixture(scope="module")
def table(model):
    """Exact benchmark rows for T = 2^6 .. 2^15, keyed by log2 T."""
    rows = run_table2(T_list=[2**k for k in range(6, 16)])
    return {row["log2_T"]: row for row in rows}


def test_criterion_1_table2_core(table):
    worst = 0.0
    for k in range(6, 11):
        row = table[k]
        for key, ref in (("fluid_regret", REFERENCE_FLUID[k]),
                         ("static_regret", REFERENCE_STATIC[k]),
                         ("resolving_regret", REFERENCE_RESOLVING[k])):
            worst = max(worst, abs(row[key] - ref))
    report("criterion 1 (table rows 2^6..2^10, +-0.01)", worst <= 0.01,
           f"max abs deviation {worst:.4f}")


def test_criterion_2_extended_resolving(table):
    worst = max(abs(table[k]["resolving_regret"] - REFERENCE_RESOLVING[k])
                for k in range(11, 16))
    report("criterion 2 (resolving 2^11..2^15, +-0.01)", worst <= 0.01,
           f"max abs deviation {worst:.4f}")


def test_criterion_2_extended_static(table):
    devs = {k: table[k]["static_regret"] - REFERENCE_STATIC[k] for k in range(11, 16)}
    worst = max(abs(v) for v in devs.values())
    report("criterion 2 (static 2^11..2^15, +-0.02)", worst <= 0.02,
           f"deviations {dict((k, round(v, 4)) for k, v in devs.items())}; "
           "exact evaluation vs reference Monte Carlo estimates")


def test_criterion_3_logarithmic_fluid_gap(table):
    ks = np.arange(6, 16, dtype=float)
    gaps = np.array([-table[int(k)]["fluid_regret"] for k in ks])
    slope, intercept = np.polyfit(ks, gaps, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((gaps - fitted) ** 2))
    ss_tot = float(np.sum((gaps - gaps.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    ok = 0.22 <= slope <= 0.33 and r2 >= 0.99
    report("criterion 3 (fluid gap slope vs log2 T)", ok,
           f"slope {slope:.4f} in [0.22, 0.33], R^2 {r2:.5f} >= 0.99")


def test_criterion_4_constant_regret_plateau(table):
    base = table[10]["resolving_regret"]
    rise = max(table[k]["resolving_regret"] for k in range(10, 16)) - base
    report("criterion 4 (resolving plateau 2^10..2^15)", rise <= 0.03,
           f"max rise over 2^10 value {rise:.4f} <= 0.03")


def test_criterion_5_boundary_case_increasing(model):
    points = [(2**k, 3 * 2**k // 8) for k in range(4, 17)]  # x_T = x_u = 0.375
    values = fp.exact_values(model, points, {"resolving": fp.resolving_policy(model)})
    regrets = [v["dp"] - v["resolving"] for v in values]
    increasing = all(b > a for a, b in zip(regrets, regrets[1:]))
    report("criterion 5 (boundary x_T = x_u, regret strictly increasing)",
           increasing, f"regrets 2^4..2^16: {[round(r, 4) for r in regrets]}")


def test_criterion_6_sufficient_inventory(model):
    cap = model.noise_bound() ** 2 / (0.5 - model.x_u) ** 2
    static_r, resolving_r = [], []
    for k in range(6, 13):
        T = 2**k
        y0 = T // 2  # x_T = 0.5 > x_u
        values = exact_policy_values(model, T, y0, {
            "static": fp.static_policy(model, 0.5),
            "resolving": fp.resolving_policy(model),
        })
        static_r.append(values["dp"] - values["static"])
        resolving_r.append(values["dp"] - values["resolving"])
    bounded = all(r <= cap for r in static_r + resolving_r)
    tail_ok = all(seq[i + 1] <= seq[i] + 0.02
                  for seq in (static_r, resolving_r)
                  for i in range(2, len(seq) - 1))  # beyond 2^8
    report("criterion 6 (x_T > x_u: bounded, non-increasing past 2^8)",
           bounded and tail_ok,
           f"static {[round(r, 5) for r in static_r]}, "
           f"resolving {[round(r, 5) for r in resolving_r]}, cap {cap}")


def test_criterion_7_stopping_time_bound(model):
    T, reps = 2**10, 10_000
    y0 = 5 * T // 16
    batch = fp.simulate_batch(model, fp.resolving_policy(model), T, y0,
                              base_seed=711, n_reps=reps, track_t_sharp=True)
    gam = fp.gamma(model, y0 / T)
    bound = 2.0 + 4.0 * model.noise_bound() ** 4 / gam**4
    mean = float(batch.t_sharp.mean())
    slack = 3.0 * float(batch.t_sharp.std(ddof=1)) / np.sqrt(reps)
    report("criterion 7 (E[T_sharp] within stopping-time bound)",
           mean <= bound + slack,
           f"mean {mean:.2f} <= {bound:.0f} (+3se {slack:.2f}), gamma {gam}")


class TestCriterion8Properties:
    def test_harmonic_identity_fuzz(self):
        rng = np.random.default_rng(80)
        worst_rel = 0.0
        for _ in range(1000):
            T = int(rng.integers(2, 300))
            t_sharp = int(rng.integers(2, T + 1))
            n = T - t_sharp + 1
            res = oracles.harmonic_identity_check(
                t_sharp, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n),
                rng.uniform(-3, 3, n))
            worst_rel = max(worst_rel, abs(res) / T)
        report("criterion 8a (harmonic identity fuzz, 1000 cases)",
               worst_rel < 1e-10, f"worst |residual|/T {worst_rel:.2e}")

    def test_fluid_kkt_residuals(self):
        rng = np.random.default_rng(81)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = random_multi_model(rng, n)
            rhs = rng.uniform(0.0, 1.2, n)
            sol = fp.solve_fluid_multi(m, rhs)
            x = sol.x_c
            ub = np.minimum(m.box_hi, rhs)
            grad = m.revenue_grad(x)
            mu_up = np.where(x >= ub - 1e-9, np.maximum(grad, 0.0), 0.0)
            mu_lo = np.where(x <= 1e-9, np.maximum(-grad, 0.0), 0.0)
            worst = max(worst,
                        float(np.abs(grad - mu_up + mu_lo).max(initial=0.0)),
                        float(np.abs(mu_up * (ub - x)).max(initial=0.0)),
                        float(np.abs(mu_lo * x).max(initial=0.0)),
                        float(np.maximum(x - ub, 0.0).max(initial=0.0)),
                        float(np.maximum(-x, 0.0).max(initial=0.0)))
        report("criterion 8b (fluid KKT residuals, 100 instances)",
               worst <= 1e-8, f"worst residual {worst:.2e}")

    def test_partial_optimum_derivatives(self):
        rng = np.random.default_rng(82)
        h = 1e-4
        worst_g, worst_h = 0.0, 0.0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = random_multi_model(rng, n)
            k = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=k, replace=False).tolist())
            z = rng.uniform(0.2, 0.8, k)
            po = fp.partial_optimum(m, I, z)
            for j in range(k):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                pp, pm = fp.partial_optimum(m, I, zp), fp.partial_optimum(m, I, zm)
                fd_g = (pp.value - pm.value) / (2 * h)
                worst_g = max(worst_g, abs(fd_g - po.grad[j]) / max(1, abs(po.grad[j])))
                fd_h = (pp.grad - pm.grad) / (2 * h)
                worst_h = max(worst_h, float(np.max(
                    np.abs(fd_h - po.hess[:, j]) / np.maximum(1, np.abs(po.hess[:, j])))))
        ok = worst_g < 1e-5 and worst_h < 1e-4
        report("criterion 8c (envelope gradient/Hessian vs finite differences)",
               ok, f"grad rel err {worst_g:.2e} < 1e-5, hess rel err {worst_h:.2e} < 1e-4")

    def test_two_product_grid_oracle(self):
        rng = np.random.default_rng(83)
        step = 1e-3
        worst = 0.0
        for _ in range(5):
            m = random_multi_model(rng, 2)
            rhs = rng.uniform(0.05, 1.2, 2)
            ub = np.minimum(m.box_hi, rhs)
            g1 = np.arange(0.0, ub[0] + step / 2, step)
            g2 = np.arange(0.0, ub[1] + step / 2, step)
            X1, X2 = np.meshgrid(g1, g2, indexing="ij")
            vals = (m.g[0] * X1 + m.g[1] * X2
                    + 0.5 * (m.H[0, 0] * X1**2 + m.H[1, 1] * X2**2)
                    + m.H[0, 1] * X1 * X2)
            i1, i2 = np.unravel_index(np.argmax(vals), vals.shape)
            sol = fp.solve_fluid_multi(m, rhs)
            worst = max(worst, abs(sol.x_c[0] - g1[i1]), abs(sol.x_c[1] - g2[i2]))
        report("criterion 8d (n=2 solver vs 1e-3 grid oracle)",
               worst <= 2e-3, f"worst coordinate gap {worst:.2e}")

    def test_dp_below_fluid_everywhere(self, model):
        table = fp.solve_dp(model, 256, 80)
        worst = -np.inf
        for t in range(1, 257):
            y = np.arange(0, 81)
            cap = t * model.revenue_rate_unchecked(np.minimum(y / t, model.x_u))
            worst = max(worst, float((table.values[t] - cap).max()))
        report("criterion 8e (DP value below fluid bound at every state)",
               worst <= 1e-9, f"max excess {worst:.2e}")

    def test_dp_policy_mc_within_ci(self, model):
        table = fp.solve_dp(model, 64, 20)
        batch = fp.simulate_batch(model, table.policy(), 64, 20,
                                  base_seed=123, n_reps=100_000)
        half = batch.ci_half_width(0.99)
        diff = abs(batch.mean - table.value(64, 20))
        report("criterion 8f (DP-policy MC mean within 99% CI, 1e5 reps)",
               diff <= half, f"|mean - V| {diff:.4f} <= {half:.4f}")


def test_criterion_9_hindsight_benchmark():
    model = fp.DemandModel.linear_additive(0.75, 0.5, 0.0, 1.0, 0.1)
    rows = run_ho_compare(model, [2**k for k in range(6, 13)], 5 / 16,
                          replications=20_000, base_seed=9)
    m = 2.0 / model.beta
    cap = (m / 2) * model.noise_half_width**2 / 3
    bounded = all(r["gap"] <= cap + 3 * r["ci_half_width"] for r in rows)
    nonneg = all(r["gap"] >= -3 * r["ci_half_width"] for r in rows)
    rho, p_two = spearmanr([r["T"] for r in rows], [r["gap"] for r in rows])
    p_positive = p_two / 2 if rho > 0 else 1 - p_two / 2
    ok = bounded and nonneg and p_positive >= 0.05
    report("criterion 9 (hindsight gap bounded, no increasing trend)", ok,
           f"gaps {[round(r['gap'], 5) for r in rows]}, cap {cap:.5f}, "
           f"spearman rho {rho:.3f} one-sided p {p_positive:.3f}")


def test_criterion_10_multi_product_regret():
    model = fp.MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]],
                                box_hi=[1.0, 1.0])
    x_T = np.array([0.25, 0.5])
    # interior of its active-set region: product 1 constrained with a
    # strictly positive dual, product 2 with strict slack (0.4375 < 0.5)
    sol = fp.solve_fluid_multi(model, x_T)
    assert sol.active_set == [0] and sol.lam[0] > 0.05 and not sol.degenerate
    regrets, cis = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for T in (16, 32, 64):
            y0 = (x_T * T).astype(int)
            dp = fp.solve_dp_multi(model, T, y0)
            batch = fp.simulate_batch_multi(model, T, y0, base_seed=2024,
                                            n_reps=100_000)
            regrets.append(dp - batch.mean)
            cis.append(batch.ci_half_width(0.95))
    positive = all(r - c > 0 for r, c in zip(regrets, cis))
    no_doubling = all(
        regrets[i + 1] - cis[i + 1] <= 1.5 * (regrets[i] + cis[i])
        for i in range(len(regrets) - 1))
    report("criterion 10 (multi-product: positive, non-doubling regret)",
           positive and no_doubling,
           f"regrets {[round(r, 4) for r in regrets]} +- {[round(c, 4) for c in cis]}")
