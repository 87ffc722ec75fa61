import ctypes
import functools
import importlib
import logging
import math
import multiprocessing
import os
import pkgutil
import platform
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fluidpricing
from fluidpricing import (
    DemandModel,
    DomainError,
    KernelUnavailableError,
    MultiDemandModel,
    MultiResolvingPolicy,
    ResourceGuardError,
    UnsupportedModelError,
    benchmark_model,
    dp_value,
    estimate_regret,
    exact_policy_values,
    exact_values,
    fluid_value,
    multi_values,
    resolving_policy,
    solve_dp,
    solve_dp_multi,
    solve_fluid_multi,
    static_policy,
)
from fluidpricing import cli, kernels, rng
from fluidpricing import policies as policies_module
from fluidpricing import sim as sim_module
from fluidpricing.experiments import run_table2
from fluidpricing.sim import (
    ho_inner_values,
    ho_noise_means,
    simulate,
    simulate_batch,
    simulate_batch_multi,
)

import oracles
from conftest import two_product_models


def _price_and_rate(pol, y, t):
    """The rate rates_batch gives the one state (y, t), and its price_of_rate."""
    rate = pol.rates_batch(np.array([float(y)]), t)
    return float(pol.model.price_of_rate(rate)[0]), float(rate[0])


class TestStaticPolicy:
    def test_limited_inventory_price(self, bernoulli_model):
        pol = static_policy(bernoulli_model, 5 / 16)
        for y, t in [(20, 64), (3, 5), (1, 1)]:
            price, rate = _price_and_rate(pol, y, t)
            assert price == pytest.approx(7 / 8)
            assert rate > 0.0

    def test_ample_inventory_prices_at_optimum(self, bernoulli_model):
        pol = static_policy(bernoulli_model, 0.5)
        assert _price_and_rate(pol, 10, 20)[0] == pytest.approx(
            bernoulli_model.inverse_demand(bernoulli_model.x_u))

    def test_shut_off_at_zero(self, bernoulli_model):
        assert _price_and_rate(static_policy(bernoulli_model, 5 / 16), 0, 7)[1] == 0.0

    def test_requires_positive_inventory_rate(self, bernoulli_model):
        with pytest.raises(DomainError):
            static_policy(bernoulli_model, 0.0)
        # NaN passed an x_T <= 0 test and made a policy that exact_values then
        # refused as having no rate law
        for x_T in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="finite inventory rate"):
                static_policy(bernoulli_model, x_T)


class TestResolvingPolicy:
    def test_matches_fluid_solution(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        price, rate = _price_and_rate(pol, 5, 16)  # x_t = 5/16 < x_u
        assert price == pytest.approx(7 / 8)
        assert rate == pytest.approx(5 / 16)

    def test_min_rule_above_optimum(self, bernoulli_model):
        price, rate = _price_and_rate(resolving_policy(bernoulli_model), 30, 40)  # 0.75 > x_u
        assert rate == pytest.approx(bernoulli_model.x_u)
        assert price == pytest.approx(0.75)

    def test_clamps_below_demand_floor(self, bernoulli_model):
        price, rate = _price_and_rate(resolving_policy(bernoulli_model), 1, 10)  # 0.1 < d_lo
        assert rate == pytest.approx(bernoulli_model.d_lo)
        assert price == pytest.approx(1.0)

    def test_shut_off(self, bernoulli_model):
        assert _price_and_rate(resolving_policy(bernoulli_model), 0, 9)[1] == 0.0
        # a trace posts no price (inf) once the inventory is gone
        trace = simulate(bernoulli_model, resolving_policy(bernoulli_model), 9, 0, seed=1)
        assert np.all(np.isinf(trace.price)) and np.all(trace.demand_rate == 0.0)

    def test_rates_batch_matches_decide(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        y = np.array([0, 1, 5, 30])
        rates = pol.rates_batch(y, 16)
        # the scalar reference decide: None (shut off) at 0, else (price, rate)
        assert oracles.decide(bernoulli_model, pol, 0, 16) is None
        expected = [0.0] + [oracles.decide(bernoulli_model, pol, int(v), 16)[1] for v in y[1:]]
        assert rates.tobytes() == np.array(expected).tobytes()


@st.composite
def _bernoulli_models(draw):
    # alpha above 1 (within the bernoulli tolerance) can put the rate cap above 1
    alpha = draw(st.floats(0.1, 1.0 + 9e-13))
    beta = draw(st.floats(0.1, 2.0))
    reach = draw(st.floats(0.2, 1.0))  # share of the demand curve the prices cover
    return DemandModel.linear_bernoulli(alpha, beta, 0.0, reach * alpha / beta)


@st.composite
def _zero_floor_models(draw):
    # beta a power of two: p_hi = alpha / beta is exact, so d_lo = alpha - beta * p_hi is 0
    alpha = draw(st.floats(0.1, 1.0))
    beta = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return DemandModel.linear_bernoulli(alpha, beta, 0.0, alpha / beta)


def _numpy_actions(model, values: np.ndarray) -> np.ndarray:
    """The action table of a solve_dp value table by numpy: the optimal row's rate
    clip((alpha + beta*(V(t-1,y-1) - V(t-1,y)))/2, d_lo, d_hi), in its operation order,
    with row 0 and column 0 zero."""
    actions = np.zeros_like(values)
    acts = actions[1:, 1:]
    np.subtract(values[:-1, :-1], values[:-1, 1:], out=acts)
    np.multiply(model.beta, acts, out=acts)
    np.add(model.alpha, acts, out=acts)
    np.divide(acts, 2.0, out=acts)
    np.clip(acts, model.d_lo, model.d_hi, out=acts)
    return actions


class TestSolveDp:
    def test_one_period_value(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 1, 3)
        for y in range(1, 4):
            assert table.value(1, y) == pytest.approx(9 / 32)
        assert table.value(1, 0) == 0.0

    def test_boundary_rows_zero(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 20, 8)
        assert np.all(table.values[:, 0] == 0.0)
        assert np.all(table.values[0, :] == 0.0)

    def test_value_monotone_in_t_and_y(self, bernoulli_model):
        v = solve_dp(bernoulli_model, 40, 15).values
        assert np.all(np.diff(v, axis=0) >= -1e-12)
        assert np.all(np.diff(v, axis=1) >= -1e-12)

    def test_actions_within_interval_and_clipping(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 64, 20)
        act = table.actions[1:, 1:]
        assert np.all(act >= bernoulli_model.d_lo - 1e-12)
        assert np.all(act <= bernoulli_model.d_hi + 1e-12)
        # scarce inventory with much time left pins the action at the floor
        assert table.actions[64, 1] == pytest.approx(bernoulli_model.d_lo)
        # interior actions satisfy the first-order condition exactly
        t, y = 10, 8
        d = table.actions[t, y]
        if bernoulli_model.d_lo < d < bernoulli_model.d_hi:
            dv = table.values[t - 1, y - 1] - table.values[t - 1, y]
            assert d == pytest.approx((bernoulli_model.alpha + bernoulli_model.beta * dv) / 2)

    def test_rejects_additive(self, additive_model):
        with pytest.raises(UnsupportedModelError):
            solve_dp(additive_model, 10, 5)

    def test_memory_guard(self, bernoulli_model):
        with pytest.raises(ResourceGuardError):
            solve_dp(bernoulli_model, 2**15, 2**15 * 5 // 16)

    def test_rejects_bad_horizon_and_inventory(self, bernoulli_model):
        for T, y0 in [(10, 3.5), (2.5, 3), (0, 3), (4, -1)]:
            with pytest.raises(DomainError, match="whole numbers"):
                solve_dp(bernoulli_model, T, y0)
        table = solve_dp(bernoulli_model, 20.0, 6.0)  # whole floats are whole numbers
        assert (table.horizon, table.max_inventory) == (20, 6)
        assert table.values.tobytes() == solve_dp(bernoulli_model, 20, 6).values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(_bernoulli_models(), _zero_floor_models()),
           T=st.one_of(st.just(1), st.integers(1, 80)),
           y0=st.one_of(st.just(0), st.integers(0, 60), st.integers(81, 120)))
    def test_tables_match_backward_bitwise(self, model, T, y0):
        """values[t] and actions[t, 1:] are row 0 of the oracle pass and its rates at t,
        and the actions are numpy's rate over the values, also where d_lo is 0."""
        table = solve_dp(model, T, y0)
        values, actions = np.zeros((T + 1, y0 + 1)), np.zeros((T + 1, y0 + 1))
        for t, v, d in oracles.backward(model, T, y0):
            values[t], actions[t, 1:] = v[0], d[0]
        assert table.values.tobytes() == values.tobytes()
        assert table.actions.tobytes() == actions.tobytes()
        assert table.actions.tobytes() == _numpy_actions(model, table.values).tobytes()

    def test_sliced_matches_dense(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 48, 15)
        assert dp_value(bernoulli_model, 48, 15) == pytest.approx(
            table.value(48, 15), abs=1e-12)

    def test_fluid_upper_bound_at_every_state(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 128, 40)
        r_peak = bernoulli_model.revenue_rate(bernoulli_model.x_u)
        for t in range(1, 129):
            y = np.arange(0, 41)
            v = table.values[t]
            assert np.all(v <= t * r_peak + 1e-9)
            cap = t * bernoulli_model.revenue_rate_unchecked(
                np.minimum(y / t, bernoulli_model.x_u))
            assert np.all(v <= cap + 1e-9)


class TestExactEvaluation:
    def test_dp_policy_self_consistency(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 64, 20)
        val = exact_policy_values(bernoulli_model, 64, 20, {"policy": table.policy()})["policy"]
        assert val == pytest.approx(table.value(64, 20), abs=1e-10)

    def test_table2_point_resolving_T64(self, bernoulli_model):
        vals = exact_policy_values(bernoulli_model, 64, 20,
                                   {"resolving": resolving_policy(bernoulli_model)})
        assert vals["dp"] - vals["resolving"] == pytest.approx(0.11, abs=0.005)

    def test_table2_point_static_T64(self, bernoulli_model):
        vals = exact_policy_values(bernoulli_model, 64, 20,
                                   {"static": static_policy(bernoulli_model, 5 / 16)})
        assert vals["dp"] - vals["static"] == pytest.approx(0.38, abs=0.005)

    def test_table2_point_resolving_T1024(self, bernoulli_model):
        T, y0 = 1024, 320
        vals = exact_policy_values(bernoulli_model, T, y0,
                                   {"resolving": resolving_policy(bernoulli_model)})
        assert vals["dp"] - vals["resolving"] == pytest.approx(0.23, abs=0.005)

    def test_resolving_never_beats_dp(self, bernoulli_model):
        for T, y0 in [(16, 5), (64, 20), (200, 80), (333, 50)]:
            vals = exact_policy_values(bernoulli_model, T, y0,
                                       {"resolving": resolving_policy(bernoulli_model)})
            assert vals["resolving"] <= vals["dp"] + 1e-9

    def test_fluid_dp_static_value_ordering(self, bernoulli_model):
        # static value within c*sqrt(T) below the fluid value, never above DP
        c = 0.5
        for T in [64, 128, 256, 512, 1024]:
            y0 = 5 * T // 16
            vals = exact_policy_values(bernoulli_model, T, y0,
                                       {"static": static_policy(bernoulli_model, y0 / T)})
            fluid = fluid_value(bernoulli_model, T, y0)
            assert vals["static"] <= vals["dp"] <= fluid + 1e-9
            assert fluid - vals["static"] <= c * np.sqrt(T)

    def test_static_column_matches_binomial_closed_form(self, bernoulli_model):
        """p * E[min(Bin(T, d), y0)] = p * sum_{k < y0} P(Bin(T, d) > k), a formula that
        shares no code with the pass, at the table2 points, on the row whose band is widest."""
        from scipy.stats import binom

        points = [(2**k, 5 * 2**k // 16) for k in range(6, 16)]
        pol = static_policy(bernoulli_model, 5 / 16)
        found = exact_values(bernoulli_model, points, {"static": pol})
        price = bernoulli_model.inverse_demand(pol.lo)
        for (T, y0), values in zip(points, found):
            want = price * math.fsum(binom.sf(np.arange(y0), T, pol.lo))
            assert values["static"] == pytest.approx(want, rel=1e-13, abs=0.0), (T, y0)


def _scalar_bellman(model, T, y_max, policies):
    """Reference pass in plain Python floats: {t: {"dp": [V(t, y)], name: [W(t, y)]}}."""
    a, b = model.alpha, model.beta
    rows = {"dp": [0.0] * (y_max + 1), **{name: [0.0] * (y_max + 1) for name in policies}}
    history = {}
    for t in range(1, T + 1):
        V = rows["dp"]
        new = {"dp": [0.0]}
        for y in range(1, y_max + 1):
            d = min(max((a + b * (V[y - 1] - V[y])) / 2.0, model.d_lo), model.d_hi)
            new["dp"].append(d * (a - d) / b + d * V[y - 1] + (1.0 - d) * V[y])
        for name, pol in policies.items():
            W = rows[name]
            new[name] = [0.0]
            lo, hi = pol.rate_law()
            for y in range(1, y_max + 1):
                d = min(max(y / t, lo), hi)
                new[name].append(d * (a - d) / b + d * W[y - 1] + (1.0 - d) * W[y])
        rows = history[t] = new
    return history


class TestBackwardPass:
    @settings(max_examples=40, deadline=None)
    @given(model=_bernoulli_models(),
           points=st.lists(st.tuples(st.integers(1, 64), st.integers(0, 40)),
                           min_size=1, max_size=4),
           x_T=st.floats(0.01, 1.0))
    def test_matches_scalar_recursion_bitwise(self, model, points, x_T):
        policies = {"resolving": resolving_policy(model), "static": static_policy(model, x_T)}
        found = exact_values(model, points, policies)
        history = _scalar_bellman(model, max(T for T, _ in points),
                                  max(y0 for _, y0 in points), policies)
        for (T, y0), values in zip(points, found):
            assert values == {name: row[y0] for name, row in history[T].items()}
            assert values == exact_policy_values(model, T, y0, policies)
            assert values["dp"] == solve_dp(model, T, y0).values[T, y0]

    def test_rejects_empty_and_bad_points(self, bernoulli_model):
        for points in ([], [(0, 3)], [(4, -1)], [(16, 4.5)], [(2.5, 3)], [(8, 2), (9.5, 2)]):
            with pytest.raises(DomainError):
                exact_values(bernoulli_model, points)
        # whole floats are whole numbers
        assert exact_values(bernoulli_model, [(16.0, 4.0)]) == exact_values(bernoulli_model,
                                                                           [(16, 4)])


def _backward_values(model, points, policies):
    """Every row's value at each point, read from the reference pass oracles.backward."""
    rows = {}
    for t, values, _ in oracles.backward(model, max(T for T, _ in points),
                                         max(y0 for _, y0 in points), list(policies.values())):
        rows.update({(T, y0): values[:, y0].copy() for T, y0 in points if T == t})
    return np.array([rows[point] for point in points])


def _assert_kernel_matches_backward(model, points, policies):
    found = exact_values(model, points, policies)
    assert all(list(values) == ["dp", *policies] for values in found)
    got = np.array([list(values.values()) for values in found])
    assert got.tobytes() == _backward_values(model, points, policies).tobytes()
    return found


class TestFusedKernel:
    def test_triangle_off_when_rate_cap_above_one(self):
        # d_hi = 1 + 5e-13: the resolving rate keeps growing past y = t
        model = DemandModel.linear_bernoulli(2.5, 1.5, (1.5 - 5e-13) / 1.5, 1.6)
        assert resolving_policy(model).rate_law()[1] > 1.0
        found = _assert_kernel_matches_backward(
            model, [(5, 9), (3, 2), (8, 8)],
            {"resolving": resolving_policy(model), "static": static_policy(model, 0.9)})
        assert found[0]["resolving"] == 5.000000000000834

    @settings(max_examples=60, deadline=None)
    @given(model=_bernoulli_models(),
           points=st.lists(st.tuples(st.integers(1, 64), st.integers(0, 80)),
                           min_size=1, max_size=5),
           corner=st.tuples(st.integers(1, 40), st.integers(1, 30)),
           x_T=st.floats(0.01, 1.0))
    def test_matches_backward_bitwise(self, model, points, corner, x_T):
        T, extra = corner
        points = [*points, (T, 0), (T, T + extra)]  # no inventory, and y0 > T
        _assert_kernel_matches_backward(
            model, points, {"resolving": resolving_policy(model),
                            "static": static_policy(model, x_T)})

    @settings(max_examples=40, deadline=None)
    @given(model=_bernoulli_models(), other=_bernoulli_models(),
           points=st.lists(st.tuples(st.integers(2, 48), st.integers(0, 40)),
                           min_size=1, max_size=4),
           over=st.tuples(st.integers(0, 20), st.integers(0, 20)), x_T=st.floats(0.01, 1.0))
    def test_dp_table_rows_match_backward_bitwise(self, model, other, points, over, x_T):
        # (1, y_max): a second horizon, so a later kernel call starts at t_from > 0
        T_max, y_max = (max(axis) for axis in zip(*points))
        points = [*points, (1, y_max)]
        _assert_kernel_matches_backward(model, points, {
            "wide": solve_dp(model, T_max + over[0], y_max + over[1]).policy(),
            "resolving": resolving_policy(model),
            "tight": solve_dp(model, T_max, y_max).policy(),
            "static": static_policy(model, x_T),
            "foreign": solve_dp(other, T_max + 1, y_max + 3).policy()})

    def test_without_compiler_kernel_paths_raise(self, bernoulli_model, additive_model,
                                                 multi_model, monkeypatch, capsys):
        pols = {"static": static_policy(bernoulli_model, 5 / 16),
                "resolving": resolving_policy(bernoulli_model)}
        table = solve_dp(bernoulli_model, 64, 20)
        kernel_paths = [lambda: exact_values(bernoulli_model, [(64, 20), (9, 0)], pols),
                        lambda: solve_dp(bernoulli_model, 64, 20),
                        lambda: exact_values(bernoulli_model, [(64, 20), (30, 12)],
                                             {"t": table.policy()}),
                        lambda: simulate(bernoulli_model, pols["static"], 64, 20, 7),
                        lambda: simulate_batch(bernoulli_model, pols["resolving"], 80, 25, 3, 50),
                        lambda: simulate_batch(bernoulli_model, table.policy(), 64, 20, 5, 40),
                        lambda: simulate_batch_multi(multi_model, 40, [10, 20.5], 3, 30),
                        lambda: ho_inner_values(additive_model, 2100, 0.3, 4, 30),
                        lambda: solve_dp_multi(multi_model, 24, [6, 12]),
                        lambda: solve_fluid_multi(multi_model, np.array([0.3, 0.4])),
                        lambda: simulate(multi_model, None, 8, [2.0, 3.0], 1)]

        def no_compiler():
            raise FileNotFoundError("cc not found")

        monkeypatch.setattr(kernels, "_compile", no_compiler)
        kernels._kernel.cache_clear()
        try:
            for run in kernel_paths:
                with pytest.raises(KernelUnavailableError, match="cc not found"):
                    run()
            assert cli.main(["table2", "--t-list", "64"]) == cli.EXIT_KERNEL == 5
        finally:
            kernels._kernel.cache_clear()
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and "cc not found" in line

    def test_failed_build_error_carries_compiler_stderr(self, tmp_path, monkeypatch):
        source = tmp_path / "_kernels.c"
        source.write_text("void backward(void) { not C at all }\n")
        monkeypatch.setattr(kernels, "_SOURCE", source)
        monkeypatch.setattr(kernels, "_CACHE", tmp_path / "cache")
        kernels._kernel.cache_clear()
        try:
            with pytest.raises(KernelUnavailableError) as failed:
                kernels._kernel()
        finally:
            kernels._kernel.cache_clear()
        message = str(failed.value)
        assert f"{source}:1:" in message and "error" in message
        assert list((tmp_path / "cache").iterdir()) == []

    def test_policy_departing_from_its_law_is_refused(self, bernoulli_model):
        class Floored(policies_module.ResolvingPolicy):
            # overrides rates_batch only, so the inherited law no longer holds
            def rates_batch(self, y, t):
                return np.where(np.asarray(y) > 0, np.maximum(super().rates_batch(y, t), 0.3), 0.0)

        class NoLaw:
            def __init__(self, policy):
                self.rates_batch = policy.rates_batch

        class LastCall(policies_module.ResolvingPolicy):
            # departs from its law in the last period only
            def rates_batch(self, y, t):
                rates = super().rates_batch(y, t)
                return np.where(rates > 0, self.model.d_hi, 0.0) if t == 1 else rates

        floored = Floored(bernoulli_model)
        ys = np.arange(41, dtype=float)
        for pol in (floored, LastCall(bernoulli_model)):
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                policies_module.checked_law(pol, ys, 64, bernoulli_model)
        assert policies_module.checked_law(resolving_policy(bernoulli_model), ys, 64,
                                           bernoulli_model) is not None
        for pol in (floored, NoLaw(floored), LastCall(bernoulli_model)):
            # the kernels are the only loops, and they run laws: none runs these
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                exact_values(bernoulli_model, [(64, 20), (30, 40)],
                             {"resolving": resolving_policy(bernoulli_model), "pol": pol})
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                simulate_batch(bernoulli_model, pol, 64, 20, 5, 40)

    def test_build_prunes_superseded_libraries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "_CACHE", tmp_path)
        builds = _fake_cc(monkeypatch)
        for stale in ("_kernels-0123456789abcdef.so", "_backward-0123456789abcdef.so"):
            (tmp_path / stale).write_bytes(b"superseded")
        lib = kernels._compile()
        assert sorted(tmp_path.iterdir()) == [lib]
        built = lib.stat().st_mtime_ns
        assert kernels._compile() == lib  # a matching library is reused
        assert len(builds) == 1 and lib.stat().st_mtime_ns == built

    def test_build_keeps_the_libraries_of_other_levels(self, tmp_path, monkeypatch):
        """A host of another level that shares the cache may have loaded its own
        library: a build prunes only the stale libraries of this CPU's level."""
        monkeypatch.setattr(kernels, "_CACHE", tmp_path)
        builds = _fake_cc(monkeypatch)
        level = kernels._level()
        other = next(name for name in kernels._LEVELS if name != level)
        kept = tmp_path / f"_kernels-{other}-0123456789abcdef.so"
        for stale in (kept, tmp_path / f"_kernels-{level}-0123456789abcdef.so"):
            stale.write_bytes(b"another build")
        lib = kernels._compile()
        assert len(builds) == 1 and sorted(tmp_path.iterdir()) == sorted([lib, kept])

    @pytest.mark.parametrize("machine, libc, cpu, level", [
        ("x86_64", "glibc", "x86-64-v4", "x86-64-v4"),
        ("x86_64", "glibc", "x86-64-v3", "x86-64-v3"),
        ("x86_64", "glibc", "baseline", "baseline"),
        ("aarch64", "glibc", "x86-64-v4", "baseline"),
        ("x86_64", "", "x86-64-v4", "baseline"),
    ])
    def test_level_is_chosen_from_the_cpu_without_building(self, machine, libc, cpu, level,
                                                           tmp_path, monkeypatch):
        """The widest level whose flags this CPU has, on x86-64 glibc only; the level
        is in the build's flags and the library's name, and no compiler runs."""
        monkeypatch.setattr(kernels, "_cpu_flags", lambda: set(kernels._LEVELS[cpu]))
        monkeypatch.setattr(platform, "machine", lambda: machine)
        monkeypatch.setattr(platform, "libc_ver", lambda: (libc, "2.36" if libc else ""))
        monkeypatch.setattr(kernels, "_CACHE", tmp_path)
        builds = _fake_cc(monkeypatch)
        assert kernels._level() == level
        lib = kernels._compile()
        assert lib.name.startswith(f"_kernels-{level}-")
        [build] = builds
        assert build[1:-3] == list(kernels._flags(level))
        assert kernels._flags(level) == kernels._CFLAGS + (
            () if level == "baseline" else (f'-DKERNEL_ARCH="{level}"',))


def _fake_cc(monkeypatch) -> list[list[str]]:
    """Replaces cc with a stand-in that reports a version and writes an empty file
    for a build; returns the list of build commands, which the stand-in fills."""
    builds = []

    def run(args, **kwargs):
        assert args[0] == "cc", args
        if args[1:] == ["--version"]:
            return subprocess.CompletedProcess(args, 0, b"cc 0.0\n", b"")
        builds.append(args)
        Path(args[args.index("-o") + 1]).write_bytes(b"")
        return subprocess.CompletedProcess(args, 0, b"", b"")

    monkeypatch.setattr(kernels.subprocess, "run", run)
    return builds


def _band_log(caplog) -> dict[str, tuple[str, int]]:
    """{row: (final width, retries)} from the DEBUG lines of the exact passes so far."""
    return {row: entry[:2] for row, entry in _row_log(caplog).items()}


def _row_log(caplog) -> dict[str, tuple]:
    """{row: (final width, retries, cells, kernel seconds, ns per cell)} from the DEBUG
    lines of the exact passes so far."""
    return {record.args[0]: record.args[1:] for record in caplog.records
            if record.msg.startswith("exact pass row")}


def _start_width(k):
    """First bands of scale k, in place of the shipped 4.5: a half width of
    k * sqrt(T - t) + 2 at period t of a pass to T, and for a bridge row
    k * sqrt(t (T - t) / T) + 2, flat at k * sqrt(T) / 2 + 2 below T / 2."""
    return mock.patch.object(policies_module, "_BAND_SCALE", k)


def _band_start(T, k) -> tuple[str, int]:
    """The DEBUG log entry of a row certified, with no retry, on its first band,
    whose half width at t = 0 of a pass to T is k * sqrt(T) + 2."""
    return f"band half width {k * math.sqrt(T) + 2.0:g}", 0


class TestBandedPass:
    @settings(max_examples=12, deadline=None)
    @given(rays=st.lists(st.tuples(st.integers(256, 2048),
                                   st.one_of(st.just(0.375), st.floats(0.25, 0.27),
                                             st.floats(0.05, 0.6), st.floats(1.0, 1.5))),
                         min_size=1, max_size=3),
           x_T=st.one_of(st.just(0.375), st.floats(0.25, 0.27), st.floats(0.05, 0.6)),
           k=st.floats(0.5, 4.0))
    def test_matches_backward_bitwise_where_the_band_is_narrower_than_the_cone(
            self, bernoulli_model, rays, x_T, k):
        """Rays of the benchmark model (x_u = 0.375, d_lo = 0.25, and y0 > T, read at T)
        mixed in one pass, started on bands of scale k: certified, retried or run on the
        whole cone, every value has the bits of the full pass."""
        points = [(T, round(x * T)) for T, x in rays]
        with _start_width(k):
            _assert_kernel_matches_backward(bernoulli_model, points, {
                "resolving": resolving_policy(bernoulli_model),
                "static": static_policy(bernoulli_model, x_T)})

    def test_narrow_band_retries_with_the_same_bits(self, bernoulli_model, caplog):
        """Bands started at scale 1 (about 2 standard deviations) cannot certify a row;
        the retries at twice the width give the bits of the whole-cone pass."""
        points = [(16384, 5120), (4096, 1280), (8192, 3072)]
        policies = {"static": static_policy(bernoulli_model, 5 / 16),
                    "resolving": resolving_policy(bernoulli_model)}
        with _start_width(1e9):
            want = exact_values(bernoulli_model, points, policies)
        with _start_width(1.0), caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            assert exact_values(bernoulli_model, points, policies) == want
        rows = _band_log(caplog)
        assert list(rows) == ["dp", "static", "resolving"]
        assert all(retries >= 1 for _, retries in rows.values())
        assert rows["dp"][0].startswith("band half width")

    def test_table2_rows_certify_on_their_start_bands(self, caplog):
        """On table2's points (x_T = 5/16, inside the re-solving clip [1/4, 3/8]) the
        re-solving row is a bridge and starts at 2.25 sqrt(T) + 2 at t = 0, V and the
        static row at 4.5 sqrt(T) + 2; each certifies on that first band."""
        with caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            run_table2()
        assert _band_log(caplog) == {"dp": _band_start(2**15, 4.5),
                                     "static": _band_start(2**15, 4.5),
                                     "resolving": _band_start(2**15, 2.25)}
        # the flat start bands 4 sqrt(T) + 2 and 2 sqrt(T) + 2 ran 93 370 972 cells for V
        # and for the static row, and 47 361 405 for the re-solving row
        cells = {row: entry[2] for row, entry in _row_log(caplog).items()}
        assert cells["dp"] <= 0.8 * 93_370_972 and cells["static"] <= 0.8 * 93_370_972
        assert cells["resolving"] <= 50e6

    @pytest.mark.parametrize("x_T, flat", [(1 / 4, {"dp": 1}), (17 / 64, {"dp": 1}), (0.3, {}),
                                           (5 / 16, {}), (0.35, {"resolving": 1}), (3 / 8, {})])
    def test_tapered_bands_retry_no_more_than_flat_ones(self, bernoulli_model, x_T, flat,
                                                        caplog):
        """On table2's horizons 2^6..2^15 at y0 = round(x_T T), no row retries more than on
        the flat start bands 4 sqrt(T) + 2 (2 sqrt(T) + 2 for a bridge), which retried
        the rows flat names once each and every other row never."""
        points = [(2**k, round(x_T * 2**k)) for k in range(6, 16)]
        policies = {"static": static_policy(bernoulli_model, x_T),
                    "resolving": resolving_policy(bernoulli_model)}
        with caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            exact_values(bernoulli_model, points, policies)
        rows = _band_log(caplog)
        assert list(rows) == ["dp", "static", "resolving"]
        for row, (width, retries) in rows.items():
            assert width.startswith("band") and retries <= flat.get(row, 0), row

    @settings(max_examples=200, deadline=None)
    @given(T=st.integers(1, 2**20), data=st.data(), bridge=st.booleans(),
           rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted))
    def test_band_lines_hold_the_paths_and_the_half_width(self, T, data, bridge, rates):
        """At every period t of a segment of a pass to T, the lines of _band, on the
        tangent of _half_line at the segment's midpoint, lie at or outside the live
        points' fluid paths y0 - (T_k - t) clip(y0 / T_k, lo, hi) by the half width
        h(t): 4.5 sqrt(T - t) + 2, or for a bridge 4.5 sqrt(t (T - t) / T) + 2 from
        T / 2 on and 2.25 sqrt(T) + 2 below."""
        t_to = data.draw(st.integers(1, T))
        t_from = data.draw(st.integers(max(0, t_to - 5000), t_to - 1))
        points = data.draw(st.lists(st.integers(t_to, T).flatmap(
            lambda T_k: st.tuples(st.just(T_k), st.integers(0, 2 * T_k))), min_size=1,
            max_size=4))
        segment = (t_from, t_to, 0, 0, range(len(points)))
        c0, s0, c1, s1 = policies_module._band(
            segment, rates, policies_module._half_line((t_from + 1 + t_to) / 2, T, bridge),
            points)
        t = np.arange(t_from + 1, t_to + 1, dtype=float)
        h = (np.where(2 * t >= T, 4.5 * np.sqrt(t * (T - t) / T), 2.25 * math.sqrt(T))
             if bridge else 4.5 * np.sqrt(T - t)) + 2.0
        paths = np.array([y0 - (T_k - t) * min(max(y0 / T_k, rates[0]), rates[1])
                          for T_k, y0 in points])
        low, high = paths.min(axis=0) - h, np.maximum(paths.max(axis=0), 0.0) + h
        slack = 1e-9 * (1.0 + np.abs(paths).max())  # the rounding of the chords
        assert np.all(c0 + s0 * t <= low + slack)
        assert np.all(c1 + s1 * t >= high - slack)

    @pytest.mark.parametrize("x_T", [0.375, 0.25])
    def test_resolving_row_on_a_clip_edge_starts_wide(self, bernoulli_model, x_T, caplog):
        """At x_T = x_u or d_lo the re-solving rate sits on its clip edge, where it does
        not pull back; there it starts at 4.5 sqrt(T - t) + 2, as V does, and certifies,
        where a start at half that scale, a bridge's width at t = 0, would retry."""
        points = [(2**k, int(x_T * 2**k)) for k in range(4, 17)]
        policies = {"resolving": resolving_policy(bernoulli_model)}
        with caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            want = exact_values(bernoulli_model, points, policies)
            assert _band_log(caplog)["resolving"] == _band_start(2**16, 4.5)
            caplog.clear()
            with _start_width(2.25):
                assert exact_values(bernoulli_model, points, policies) == want
            assert _band_log(caplog)["resolving"][1] == 1

    def test_log_counts_each_rows_cells_and_kernel_seconds(self, bernoulli_model, caplog):
        """Each row's DEBUG line counts the cells its kernel calls update: on the whole
        cone, every cell max(1, y0 - T + t) .. y0 of each period t (a DP table row turns
        the triangle cut off); on a band, both copies' cells, fewer than the cone's.  It
        times those calls, so that ns per cell can be read from the log alone."""
        model, (T, y0) = bernoulli_model, (64, 20)
        cone = sum(y0 - max(1, y0 - T + t) + 1 for t in range(1, T + 1))
        policies = {"table": solve_dp(model, T, y0).policy(),
                    "resolving": resolving_policy(model)}
        with caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            exact_values(model, [(T, y0)], policies)
            for width, retries, cells, seconds, ns in _row_log(caplog).values():
                assert (width, retries, cells) == ("whole cone", 0, cone)
                assert seconds > 0 and ns == pytest.approx(1e9 * seconds / cells)
            caplog.clear()
            exact_values(model, [(16384, 5120)], {"resolving": resolving_policy(model)})
            cone = sum(min(t, 5120) - max(1, 5120 - 16384 + t) + 1 for t in range(1, 16385))
            for width, _, cells, seconds, _ in _row_log(caplog).values():
                assert width.startswith("band") and 0 < cells < cone and seconds > 0

    def test_band_falls_back_to_the_whole_cone_with_the_same_bits(self, bernoulli_model,
                                                                   caplog):
        policies = {"static": static_policy(bernoulli_model, 5 / 16),
                    "resolving": resolving_policy(bernoulli_model)}
        for k, retried in ((0.0, True), (1e6, False)):
            caplog.clear()
            with _start_width(k), caplog.at_level(logging.DEBUG,
                                                  logger=policies_module.__name__):
                _assert_kernel_matches_backward(bernoulli_model, [(256, 80), (100, 31)],
                                                policies)
            rows = _band_log(caplog)
            assert list(rows) == ["dp", "static", "resolving"]
            for width, retries in rows.values():
                assert width == "whole cone" and (retries > 0) == retried

    def test_table_row_runs_the_whole_cone_next_to_banded_rows(self, bernoulli_model):
        """With a DP table row the triangle cut is off; V and the (lo, hi) row still start
        on bands, as lower and upper copies, and the table row runs as one exact copy."""
        model, points = bernoulli_model, [(2048, 1024), (1500, 700)]
        policies = {"table": solve_dp(model, 2048, 1024).policy(),
                    "resolving": resolving_policy(model)}
        calls, lib = [], kernels._kernel()

        def spy(values, upper, width, ys, optimal, *args):
            calls.append((bool(optimal), upper is not None, args[10]))  # t_from
            lib.backward(values, upper, width, ys, optimal, *args)

        with _start_width(2.0), mock.patch.object(kernels, "_kernel",
                                                  lambda: SimpleNamespace(backward=spy)):
            got = policies_module._fused_pass(model, points,
                                              [pol.rate_law() for pol in policies.values()],
                                              ["dp", *policies])
        # each row is its own call, its copies paired; a retry starts only once the first
        # attempt's rows are done, so the first three calls from period 0 are that attempt's:
        # V and the (lo, hi) row banded, the table row on the whole cone
        first = [(optimal, paired) for optimal, paired, t_from in calls if t_from == 0][:3]
        assert sorted(first) == sorted([(True, True), (False, False), (False, True)])
        assert got == _backward_values(model, points, policies).tolist()

    @pytest.mark.parametrize("policy", ["static", "resolving"])
    @pytest.mark.parametrize("steep", [False, True])
    def test_lower_and_upper_copies_hold_the_full_pass_cell_by_cell(self, bernoulli_model,
                                                                    policy, steep):
        """A (lo, hi) row run as an exact row and, in one call, as a lower and an upper
        copy on a band of half width 6 (under one standard deviation) around its fluid
        path, or on lines that leave the cells the previous period can feed (a bottom that
        falls, a top that rises 1.5 cells a period): after every period, L <= V <= U on
        the band and the edge bounds beside it, and U > L somewhere."""
        model, T, y0 = bernoulli_model, 1024, 320
        lo, hi = {"static": static_policy(model, 5 / 16),
                  "resolving": resolving_policy(model)}[policy].rate_law()
        width = y0 + 1
        segment = (0, T, y0 - T, y0, [0])
        line = ((150.0, -0.5, -100.0, 1.5) if steep
                else policies_module._band(segment, (lo, hi), (6.0, 0.0), [(T, y0)]))
        values, ys = np.zeros((3, width)), np.arange(width, dtype=float)
        span = np.array([0, width, 0, width - 1], dtype=np.int64)
        band, apart = np.array(line), 0
        for t in range(1, T + 1):
            for row, upper in ((values[0], None), (values[1], values[2].ctypes.data)):
                kernels._kernel().backward(
                    row, upper, width, ys, False, lo, hi, None, 0, band, span,
                    model.alpha, model.beta, model.d_lo, model.d_hi, t - 1, t, y0 - T, y0,
                    True, None)
            assert span[0] >= 0
            first, last = max(1, y0 - T + t), min(t, y0)
            cells = slice(max(span[0] - 1, first), min(span[1] + 1, last) + 1)
            full, lower, upper = values[:, cells]
            assert np.all(lower <= full) and np.all(full <= upper), t
            apart += int(np.sum(lower < upper))
        assert apart > 0

    @pytest.mark.parametrize("optimal", [False, True])
    def test_upper_copy_runs_out_where_no_triangle_holds_its_band(self, bernoulli_model,
                                                                    optimal):
        """The lines (0, 3, 4, 3) rise 3 cells a period, faster than the cells the previous
        period left readable; without the triangle cut nothing holds the band at the cone's
        top, so it shrinks to one cell at t = 3 and runs out at t = 4.  From then on the
        span stays [-1, -1] and neither copy changes."""
        model, T, y0 = bernoulli_model, 1024, 320
        lo, hi = resolving_policy(model).rate_law()
        width = y0 + 1
        values = np.zeros((2, width))  # the lower and the upper copy
        span = np.array([0, width, 0, width - 1], dtype=np.int64)
        spans, rows = [], []
        for t in range(1, 9):
            kernels._kernel().backward(
                values[0], values[1].ctypes.data, width, np.arange(width, dtype=float),
                optimal, lo, hi, None, 0, np.array([0.0, 3.0, 4.0, 3.0]), span, model.alpha,
                model.beta, model.d_lo, model.d_hi, t - 1, t, y0 - T, y0, False, None)
            spans.append(span[:2].tolist())
            rows.append(values.copy())
        assert spans == [[3, 7], [6, 8], [9, 9]] + [[-1, -1]] * 5
        assert all(row.tobytes() == rows[2].tobytes() for row in rows[3:])

    @pytest.mark.parametrize("row", ["optimal", "static", "resolving"])
    @pytest.mark.parametrize("line", ["fitted", "wide", "steep"])
    def test_paired_call_matches_two_copies_computed_on_their_own(self, bernoulli_model,
                                                                   row, line):
        """One kernel call a period runs a row's lower and upper copy together: after every
        period both rows and the band equal, byte for byte, two oracles.band_copy copies
        computed on their own.  The lines are fitted to the fluid path at half width 6 or
        60, or steep as above.  V's run of cells where the copies agree empties (half
        width 6 by t = 35) and, at half width 60, empties and then grows back, as the
        rounding of the pass brings the copies together again."""
        model, T, y0 = bernoulli_model, 1024, 320
        rates = None if row == "optimal" else {
            "static": static_policy(model, 5 / 16), "resolving": resolving_policy(model)
        }[row].rate_law()
        width, cone = y0 + 1, y0 - T
        fitted = rates or (model.d_lo, model.rate_cap)
        band = np.array((150.0, -0.5, -100.0, 1.5) if line == "steep" else policies_module._band(
            (0, T, cone, y0, [0]), fitted, ({"fitted": 6.0, "wide": 60.0}[line], 0.0),
            [(T, y0)]))
        values, ys = np.zeros((2, width)), np.arange(width, dtype=float)
        span = np.array([0, width, 0, width - 1], dtype=np.int64)
        copies = zip(*(oracles.band_copy(model, T, width, upper, rates, band, cone, y0, True)
                       for upper in (False, True)))
        agree = []
        for (t, lower, lower_span), (_, upper, upper_span) in copies:
            kernels._kernel().backward(
                values[0], values[1].ctypes.data, width, ys, rates is None,
                *(rates or (0.0, 0.0)), None, 0, band, span, model.alpha, model.beta,
                model.d_lo, model.d_hi, t - 1, t, cone, y0, True, None)
            assert span[:2].tolist() == lower_span == upper_span, t
            assert values[0].tobytes() == lower.tobytes(), t
            assert values[1].tobytes() == upper.tobytes(), t
            agree.append(span[2] <= span[3])
        if rates is not None:
            return
        empty = agree.index(False)
        if line == "fitted":
            assert empty < 35 and not any(agree[empty:])
        if line == "wide":
            assert any(agree[empty:])

    def test_band_that_runs_out_is_retried_with_the_same_bits(self, bernoulli_model, caplog):
        """A DP table row turns the triangle cut off, so first bands on the lines
        (0, 3, 4, 3) run out at t = 4 (see above).  Both copies of a row then leave the
        points' cells at 0 and agree bit for bit; only the span shows the row is not
        certified.  Each banded row is retried, with the bits of the unpatched pass."""
        model, points = bernoulli_model, [(1024, 320), (600, 200)]
        policies = {"table": solve_dp(model, 1024, 320).policy(),
                    "resolving": resolving_policy(model)}
        want = exact_values(model, points, policies)
        # the first half widths: the tangent at each segment's midpoint, for either shape
        starts = {policies_module._half_line((t_from + 1 + t_to) / 2, 1024, bridge)
                  for t_from, t_to in ((0, 600), (600, 1024)) for bridge in (False, True)}
        band = policies_module._band

        def steep_first(segment, rates, half, points):
            return ((0.0, 3.0, 4.0, 3.0) if tuple(half) in starts
                    else band(segment, rates, half, points))

        with (mock.patch.object(policies_module, "_band", steep_first),
              caplog.at_level(logging.DEBUG, logger=policies_module.__name__)):
            assert exact_values(model, points, policies) == want
        rows = _band_log(caplog)
        assert rows["table"] == ("whole cone", 0)
        assert rows["dp"][1] >= 1 and rows["resolving"][1] >= 1

    @pytest.mark.parametrize("y_max", range(1, 18))
    def test_exact_rows_of_every_length_match_backward(self, y_max):
        """The whole-cone row of each rate source (V's OPTIMAL, a DP TABLE, the RATIO
        y / t of the law (0, 1), a CONSTANT 0.3), run one period a call over cells
        1 .. y_max, has oracles.backward's bits after every period.  The rows span y_max
        cells, and the law's RATIO segment 1 .. t - 1 spans t - 1: between them every
        length mod 8 (the kernel's block of cells), and every length below 8."""
        model, T = _BOTH_CLIPS, 20
        width, ys = y_max + 1, np.arange(y_max + 1, dtype=float)
        dp, laws = solve_dp(model, T, y_max), [_Law(0.0, 1.0), _Law(0.3, 0.3)]
        table = np.ascontiguousarray(dp.actions)
        sources = [(True, (0.0, 0.0), None), (False, (0.0, 0.0), table),
                   *((False, (law.lo, law.hi), None) for law in laws)]
        rows = np.zeros((len(sources), width))
        for t, want, _ in oracles.backward(model, T, y_max, [dp.policy(), *laws]):
            for row, (optimal, rates, actions) in zip(rows, sources):
                kernels._kernel().backward(
                    row, None, width, ys, optimal, *rates,
                    None if actions is None else actions.ctypes.data, width,
                    np.zeros(4), np.zeros(4, dtype=np.int64), model.alpha, model.beta,
                    model.d_lo, model.d_hi, t - 1, t, -T, y_max, False, None)
            assert rows.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("rates", [None, (0.0, 1.0), (0.3, 0.3)],
                             ids=["optimal", "ratio", "constant"])
    def test_paired_rows_of_every_length_match_band_copy(self, rates):
        """A lower and an upper copy in one call, on the band 2 .. 1 + t, which grows by
        a cell a period from 1 cell: after every period both rows and the band equal two
        oracles.band_copy copies byte for byte.  The band spans t cells, and the law
        (0, 1)'s RATIO segment 2 .. t - 1 spans t - 2: every length mod 8, and every
        length below 8, for V (OPTIMAL, each copy on its own), RATIO and CONSTANT."""
        model, T, width = _BOTH_CLIPS, 24, 32
        band, ys = np.array([2.0, 0.0, 1.0, 1.0]), np.arange(width, dtype=float)
        values = np.zeros((2, width))
        span = np.array([0, width, 0, width - 1], dtype=np.int64)
        copies = zip(*(oracles.band_copy(model, T, width, upper, rates, band, -T, width - 1,
                                         False) for upper in (False, True)))
        for (t, lower, lower_span), (_, upper, _) in copies:
            kernels._kernel().backward(
                values[0], values[1].ctypes.data, width, ys, rates is None,
                *(rates or (0.0, 0.0)), None, 0, band, span, model.alpha, model.beta,
                model.d_lo, model.d_hi, t - 1, t, -T, width - 1, False, None)
            assert span[:2].tolist() == lower_span == [2, 1 + t], t
            assert values[0].tobytes() == lower.tobytes(), t
            assert values[1].tobytes() == upper.tobytes(), t


# demand rates 0.25 .. 0.35: V's unclipped maximizer, 0.125 .. 0.375, falls below them
# in some cells and above them in others, so both ends of its clip act
_BOTH_CLIPS = DemandModel.linear_bernoulli(0.75, 0.5, 0.8, 1.0)


class _Law:
    """The (lo, hi) law clip(y / t, lo, hi) as a policy of oracles.backward."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def rates_batch(self, y, t):
        return np.clip(y / t, self.lo, self.hi)


def _workers(n):
    """A kernel pool of n workers, in place of one per CPU this process may run on."""
    return mock.patch.object(kernels, "_workers", lambda: n)


def _batch_bytes(batch) -> bytes:
    return b"".join(a.tobytes() for a in (batch.total_revenue, batch.sum_xi, batch.t_sharp)
                    if a is not None)


def _exact_and_batch() -> tuple[float, bytes]:
    """An exact pass and a 2000-replication batch, both on the kernel pool."""
    model = benchmark_model()
    dp = exact_values(model, [(4096, 1280)], {"resolving": resolving_policy(model)})[0]
    batch = simulate_batch(model, resolving_policy(model), 256, 80, 3, 2000)
    return dp["resolving"], _batch_bytes(batch)


def _send_from_child(queue) -> None:
    queue.put(_exact_and_batch())


class TestKernelPool:
    """Independent kernel calls run at once on the pool: its size changes no bit."""

    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("k", [2.0, 0.5, 1e6])  # bands, retries, the whole cone
    def test_exact_values_do_not_depend_on_the_worker_count(self, bernoulli_model, table,
                                                            k, caplog):
        # a table row turns the triangle cut off, so its cone is wide at smaller T
        points = ([(2048, 1024), (1500, 700), (64, 20)] if table
                  else [(4096, 1280), (3000, 900), (64, 20)])
        policies = {"static": static_policy(bernoulli_model, 5 / 16),
                    "resolving": resolving_policy(bernoulli_model)}
        if table:
            policies["table"] = solve_dp(bernoulli_model, 2048, 1024).policy()
        got = []
        for n in (1, 2):
            caplog.clear()
            with _workers(n), _start_width(k), caplog.at_level(
                    logging.DEBUG, logger=policies_module.__name__):
                rows = exact_values(bernoulli_model, points, policies)
            got.append(np.array([list(row.values()) for row in rows]).tobytes())
            # V started on a band unless k = 1e6, and k = 0.5 made it retry
            width, retries = _band_log(caplog)["dp"]
            assert ((width, retries) == ("whole cone", 0)) == (k == 1e6)
            assert retries > 0 or k != 0.5
        assert got[0] == got[1]

    @pytest.mark.parametrize("reps", [1, 3, 2000])
    def test_batches_do_not_depend_on_the_worker_count(self, bernoulli_model, additive_model,
                                                       multi_model, reps):
        T, y0 = 64, 20
        table = solve_dp(bernoulli_model, T, y0).policy()
        runs = {
            "static": lambda: simulate_batch(bernoulli_model,
                                             static_policy(bernoulli_model, y0 / T), T, y0, 5,
                                             reps, track_t_sharp=True),
            "resolving": lambda: simulate_batch(additive_model,
                                                resolving_policy(additive_model), T, y0, 5,
                                                reps, track_t_sharp=True),
            "dp": lambda: simulate_batch(bernoulli_model, table, T, y0, 5, reps),
            "two products": lambda: simulate_batch_multi(multi_model, T, [10, 20], 5, reps),
        }
        for name, run in runs.items():
            with _workers(1):
                one = _batch_bytes(run())
            with _workers(2):
                two = _batch_bytes(run())
            assert one == two, name
        means = []
        for n in (1, 2):
            with _workers(n):
                means.append(ho_noise_means(additive_model, [T], 5, reps)[0].tobytes())
        assert means[0] == means[1]

    def test_ranges_cover_the_replications_in_order(self):
        for n, workers in ((1, 2), (3, 2), (2000, 2), (7, 3), (5, 1), (30, 3)):
            with _workers(workers):
                parts = kernels._ranges(n)
            assert len(parts) == min(n, 4 * workers)
            assert max(len(range(n)[p]) for p in parts) - min(len(range(n)[p]) for p in parts) <= 1
            assert [i for part in parts for i in range(n)[part]] == list(range(n))

    def test_a_held_back_helper_does_not_stall_the_calls(self):
        """The calling thread runs every call that no helper has taken, and does not
        wait for a helper that has not started."""
        release = threading.Event()
        with _workers(2):
            blocker = kernels._pool(1).submit(release.wait, 20)  # the only helper
            try:
                got = kernels._map(lambda i: 2 * i, [(i,) for i in range(8)])
                assert not blocker.done()
            finally:
                release.set()
                blocker.result()
        assert got == [2 * i for i in range(8)]

    def test_each_call_runs_once_with_more_threads_than_cores(self):
        n = (os.cpu_count() or 1) + 2
        runs = []

        def call(i):
            runs.append(i)
            return -i

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _workers(n):
                for _ in range(20):
                    runs.clear()
                    got = kernels._map(call, [(i,) for i in range(200)])
                    assert got == [-i for i in range(200)]
                    assert sorted(runs) == list(range(200))
        finally:
            sys.setswitchinterval(switch)
            kernels._pool(n - 1).shutdown()

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_failing_call_raises(self, n):
        def call(i):
            if i == 3:
                raise ValueError("call 3")
            return i

        with _workers(n), pytest.raises(ValueError, match="call 3"):
            kernels._map(call, [(i,) for i in range(8)])

    def test_threads_stay_within_the_pool(self):
        start = threading.active_count()
        _exact_and_batch()
        assert threading.active_count() <= start + kernels._workers()

    def test_reimports_leave_no_module_alive(self):
        """A fresh import of the package (as a benchmark set-up makes) leaves nothing
        that keeps an earlier import's policies or kernels module alive; run in a
        subprocess, whose imports do not replace this process's modules."""
        script = "\n".join([
            "import gc, importlib, sys",
            "for _ in range(5):",
            "    for name in [n for n in sys.modules if n.split('.')[0] == 'fluidpricing']:",
            "        del sys.modules[name]",
            "    importlib.import_module('fluidpricing')",
            "gc.collect()",
            "for module in ('fluidpricing.policies', 'fluidpricing.kernels'):",
            "    print(sum(isinstance(o, dict) and o.get('__name__') == module",
            "              for o in gc.get_objects()))",
        ])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(policies_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "1"]

    def test_forked_child_runs_on_a_pool_of_its_own(self):
        """The parent's pool threads do not exist in a forked child: the child must not
        wait on them, but start its own pool and get the parent's bits."""
        want = _exact_and_batch()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_send_from_child, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == want and child.exitcode == 0


class TestKernelSource:
    def test_kernels_is_the_one_binding_of_the_loader_and_the_pool(self):
        """No module of the package but kernels binds the loader, the build or the pool,
        so that one patch of kernels._kernel swaps the library on every path."""
        names = {"_kernel", "_compile", "_map", "_ranges", "_workers"}
        for info in pkgutil.iter_modules(fluidpricing.__path__):
            module = importlib.import_module(f"fluidpricing.{info.name}")
            assert names & set(vars(module)) == (names if module is kernels else set()), info.name

    def test_every_entry_point_is_listed_declared_and_referenced(self):
        """Each non-static function of _kernels.c is in the header list with the
        oracles reference it names, and _kernel() declares one argtype per parameter."""
        source = kernels._SOURCE.read_text()
        header = source[:source.index("*/")]
        entries = re.findall(r"^void (\w+)\(([^)]*)\)", source, re.MULTILINE)
        assert {"backward", "forward", "noise_sum", "forward2", "backward2",
                "box_qp"} <= {name for name, _ in entries}
        lib = kernels._kernel()
        for name, params in entries:
            listed = re.search(rf"^ \* +{name} +(.*?)[;.]$", header, re.MULTILINE | re.DOTALL)
            assert listed, f"{name} is missing from the header list"
            assert len(getattr(lib, name).argtypes) == len(params.split(",")), name
            references = re.findall(r"oracles\.(\w+)", listed.group(1))
            assert references, f"{name} names no reference in tests/oracles.py"
            for reference in references:
                assert callable(getattr(oracles, reference, None)), reference

    def test_builds_with_warnings_as_errors(self, level_build):
        """-Wall -Wextra -Werror: a parameter left unused, say, fails the build; at
        every level, which compiles on any x86-64 CPU, and elsewhere in the baseline."""
        x86 = platform.machine().lower() in ("x86_64", "amd64")
        for level in kernels._LEVELS if x86 else ("baseline",):
            build, _ = level_build(level)
            assert build.returncode == 0, (level, build.stderr)

    def test_cloned_loops_vectorize_under_avx512(self, level_build):
        """gcc reports each loop that must run in vectors as vectorized with 64-byte
        vectors (the x86-64-v4 level): the bitwise tests cannot see a loop that
        goes scalar again."""
        _require_levels()
        source = kernels._SOURCE.read_text()
        build, _ = level_build("x86-64-v4")
        assert build.returncode == 0, build.stderr
        vectorized = [int(line) for line in re.findall(
            r":(\d+):\d+: optimized: loop vectorized using 64 byte vectors", build.stderr)]
        lines = {}
        for name, (function, loop) in _VECTOR_LOOPS.items():
            lines[name] = source.count("\n", 0, source.index(loop, source.index(function))) + 1
            assert lines[name] in vectorized, name
        # forward's period loop is inlined into every case of its switch: each case
        # without a record (bit 3), one per law, sales and tracker choice, runs in
        # vectors
        unrecorded = [flags for flags in map(int, re.findall(r"FORWARD_PERIOD\((\d+)\)", source))
                      if not flags >> 3 & 1]
        assert sorted(unrecorded) == list(range(8))
        assert vectorized.count(lines["forward"]) >= len(unrecorded)
        # backward's block loop is inlined into every call of rows, whatever its
        # rate source and whether it updates one copy or a pair: each runs its
        # blocks of BLOCK cells as 64-byte vectors (the single cells below the
        # last block have no loop to vectorize)
        calls = re.findall(r"\brows\((?!double)", source)
        assert len(calls) >= 4  # one per rate source at least
        assert vectorized.count(lines["backward"]) >= len(calls)


# the loop of each entry point that vectorizes under AVX-512: the function that
# holds it and its first line
_VECTOR_LOOPS = {
    "backward": ("cells(double *restrict w", "for (long k = 0; k < n; k++) {"),
    "forward": ("forward_period(long reps", "for (long r = 0; r < reps; r++) {"),
    "noise_sum": ("void noise_sum(", "for (long r = 0; r < reps; r++)"),
    "forward2": ("void forward2(", "for (long r = 0; r < reps; r++) {"),
    "backward2": ("backward2_row(double", "for (long j = hi; j >= first; j--) {"),
}


def _require_levels():
    """Skip unless cc builds the loops of _kernels.c at the x86-64 levels: gcc 11 or
    later on x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the levels are x86-64 levels")
    macros = _cc_macros()
    if "__clang__" in macros or int(macros[macros.index("__GNUC__") + 1]) < 11:
        pytest.skip("the levels need gcc 11 or later")


@functools.cache
def _cc_macros() -> list[str]:
    """The words of cc's predefined macros."""
    return subprocess.run(["cc", "-dM", "-E", "-x", "c", "/dev/null"], capture_output=True,
                          text=True, check=True).stdout.split()


def _runs(level):
    """Skip unless this CPU runs the loops of level."""
    if not kernels._LEVELS[level] <= kernels._cpu_flags():
        pytest.skip(f"this CPU cannot run the {level} level")


@pytest.fixture(scope="module")
def level_build(tmp_path_factory):
    """level_build(level): the completed cc run and the library path of _kernels.c
    built once per module with _compile's flags for level, -Wall -Wextra -Werror
    and, at x86-64-v4 under gcc, its vectorization report.  Warning and report flags
    do not change the generated code: the library is the one that ships at level."""
    directory = tmp_path_factory.mktemp("levels")

    @functools.cache
    def build(level):
        path = directory / f"{level}.so"
        gcc = "__clang__" not in _cc_macros()
        report = ["-fopt-info-vec-optimized"] if level == "x86-64-v4" and gcc else []
        return subprocess.run(["cc", *kernels._flags(level), "-Wall", "-Wextra", "-Werror",
                               *report, "-o", str(path), str(kernels._SOURCE)],
                              capture_output=True, text=True), path
    return build


@pytest.fixture(scope="module", params=list(kernels._LEVELS))
def single_build(request, level_build):
    """The library of each level that this CPU runs, from level_build.  Every entry
    point has the argtypes of the library _kernel loaded."""
    level = request.param
    _runs(level)
    loaded = kernels._kernel()
    build, path = level_build(level)
    assert build.returncode == 0, build.stderr
    lib = ctypes.CDLL(str(path))
    for name in ("backward", "forward", "noise_sum", "forward2", "backward2", "box_qp"):
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = getattr(loaded, name).argtypes, None
    return lib


def _on(lib, run):
    """run() with every compiled loop of the package called in lib."""
    with mock.patch.object(kernels, "_kernel", lambda: lib):
        return run()


def _assert_builds_match_backward(single, model, points, policies):
    """The dispatched library and the single build both give _backward's bits."""
    laws = [pol.rate_law() for pol in policies.values()]
    want = _backward_values(model, points, policies).tolist()
    names = ["dp", *policies]
    assert policies_module._fused_pass(model, points, laws, names) == want
    assert _on(single, lambda: policies_module._fused_pass(model, points, laws, names)) == want


class TestDispatchedBackward:
    def test_library_is_one_build_for_this_cpus_level(self):
        """No loop is cloned for a loader to pick from: the library is built for the
        level of this CPU and named for it."""
        lib = kernels._compile()
        assert b".arch_x86_64_v" not in lib.read_bytes()
        assert lib.name.startswith(f"{kernels._SOURCE.stem}-{kernels._level()}-")

    @settings(max_examples=40, deadline=None)
    @given(model=_bernoulli_models(),
           points=st.lists(st.tuples(st.integers(1, 96), st.integers(0, 120)),
                           min_size=1, max_size=5),
           x_T=st.floats(0.01, 1.0))
    def test_matches_single_build_bitwise(self, single_build, model, points, x_T):
        _assert_builds_match_backward(
            single_build, model, points,
            {"resolving": resolving_policy(model), "static": static_policy(model, x_T)})

    def test_saturation_split_edges(self, single_build, bernoulli_model):
        # alpha = 0.75 and beta = 0.5: lo = d_lo = 0.25 and the cap 0.375 are exact
        pols = {"resolving": resolving_policy(bernoulli_model),
                "static": static_policy(bernoulli_model, 5 / 16)}
        assert pols["resolving"].rate_law() == (0.25, 0.375)
        points = [
            (8, 2), (8, 3), (16, 4), (16, 6),  # y / t == lo and == cap; empty band at t = 8
            (1, 1), (2, 1), (4, 1),  # t = 1, and bands empty at t = 2 and t = 4
            (64, 10),  # cone start y = t - 54 inside the lo segment
            (16, 14),  # cone start y = t - 2 inside the cap segment
            (40, 15), (24, 9),  # bands between, read at y / t = 0.375
        ]
        _assert_builds_match_backward(single_build, bernoulli_model, points, pols)
        for point in points:
            _assert_builds_match_backward(single_build, bernoulli_model, [point], pols)

    @settings(max_examples=40, deadline=None)
    @given(model=two_product_models(), T=st.integers(1, 64),
           y0=st.tuples(*[st.one_of(st.sampled_from([0, 1]), st.integers(2, 40))] * 2))
    def test_two_product_matches_oracle_bitwise(self, single_build, model, T, y0):
        """backward2 of every single-target build gives the bits of
        oracles.backward_multi in its V row and of oracles.resolving_multi in its W
        row, at every cell of the lattice the cut pass computes and in every point's
        value; y0 of 0 and 1 leave a row or a column to the peeled edges alone."""
        shape = (y0[0] + 1, y0[1] + 1)
        for resolving, oracle in ((False, oracles.backward_multi),
                                  (True, oracles.resolving_multi)):
            want = np.zeros(shape)
            oracle(model, T, want)
            for got in _backward2(single_build, model, T, shape, resolving):
                assert got.tobytes() == want.tobytes(), resolving


def _backward2(lib, model, T: int, shape, resolving: bool) -> tuple[np.ndarray, np.ndarray]:
    """(cells, values): lib's backward2 on the lattice of the given shape, its W row
    when resolving, else its V row, run to T with every cell y of the lattice a point
    of horizon T.  values[y] is the value the pass stores for point y, and cells[y]
    the lattice after the pass at the cell it computes for y: (min(y_k, T)) in each
    product k where its triangle holds (V: both; W: where box_hi_k <= 1), else y_k."""
    count = shape[0] * shape[1]
    lattice, values = np.zeros(shape), np.empty(shape)
    lib.backward2(lattice, *shape, count, np.full(count, T, dtype=np.int64),
                  np.arange(count, dtype=np.int64), values, model.g, model.H, model.box_hi,
                  resolving)
    reads = [np.minimum(np.arange(m), T) if not resolving or hi <= 1.0 else np.arange(m)
             for m, hi in zip(shape, model.box_hi)]
    return lattice[np.ix_(*reads)], values


# (alpha, beta) of bernoulli models with d_lo = alpha / 3 and d_hi = alpha, inside and
# outside the range [2^-128, 2^128] (FUSED_MIN, FUSED_MAX in _kernels.c) where backward
# takes its quotients by Markstein's correction; outside it, by a division.  No
# bernoulli model has alpha above 2^128, as its rates must lie in [0, 1].
_FUSED_RANGE_MODELS = [(0.75, 1e-300), (0.75, 2.0**-129), (0.75, 2.0**-127),
                       (0.75, 2.0**127), (0.75, 2.0**129), (0.75, 1e300),
                       (2.0**-120, 0.5), (2.0**-129, 0.5), (1e-300, 0.5)]


class TestQuotients:
    @pytest.mark.parametrize("level", ["x86-64-v4", "x86-64-v3"])
    def test_corrected_quotient_has_the_bits_of_the_division(self, level, tmp_path):
        """tests/quotients.c, built with _compile's flags for each level (both have
        FMA) that this CPU runs: the helper matches a / b on every y / t up to
        t = 2^12, on random pairs, on the rewards of models drawn as
        _bernoulli_models draws them and at the limits of the range, and misses on
        subnormal numerators, which that range keeps out."""
        _runs(level)
        driver = tmp_path / "quotients"
        flags = [flag for flag in kernels._flags(level) if flag not in ("-shared", "-fPIC")]
        build = subprocess.run(["cc", *flags, "-I",
                                str(kernels._SOURCE.parent), "-o", str(driver),
                                str(Path(__file__).with_name("quotients.c")), "-lm"],
                               capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        done = subprocess.run([str(driver)], capture_output=True, text=True, timeout=60)
        groups = {name: (int(pairs), int(misses))
                  for name, pairs, misses in map(str.split, done.stdout.splitlines())}
        assert done.returncode == 0, done.stdout
        assert groups["ratio"] == (sum(t + 1 for t in range(1, 4097)), 0)
        assert groups["random"] == (10**7, 0)
        assert groups["rewards"][1] == groups["limits"][1] == 0
        assert groups["subnormal"][1] > 0

    @pytest.mark.parametrize("alpha, beta", _FUSED_RANGE_MODELS)
    def test_rows_keep_the_bits_on_both_sides_of_the_fused_range(self, alpha, beta, caplog):
        """exact_values, banded and on the whole cone, and solve_dp give
        oracles.backward's bits whether backward corrects its quotients or divides, and
        solve_dp's actions are numpy's rate over its values."""
        model = DemandModel.linear_bernoulli(alpha, beta, 0.0, alpha / (1.5 * beta))
        policies = {"resolving": resolving_policy(model),
                    "static": static_policy(model, 0.3 * alpha)}
        points = [(4096, 1280), (2048, 640), (9, 4)]
        with _start_width(1e9):
            _assert_kernel_matches_backward(model, points, policies)
        caplog.clear()
        with _start_width(2.0), caplog.at_level(logging.DEBUG, logger=policies_module.__name__):
            _assert_kernel_matches_backward(model, points, policies)
        # the rates of the tiny alphas stay far below y0 / T, so no band is narrower
        assert _band_log(caplog)["dp"][0].startswith("band") == (alpha == 0.75)
        table = solve_dp(model, 200, 80)
        values = np.zeros((201, 81))
        for t, v, _ in oracles.backward(model, 200, 80):
            values[t] = v[0]
        assert table.values.tobytes() == values.tobytes()
        assert table.actions.tobytes() == _numpy_actions(model, table.values).tobytes()


_FORWARD_MODELS = {
    "bernoulli": DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0),
    "additive": DemandModel.linear_additive(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0,
                                            noise_half_width=0.2),
}


def _start(start, fill, T):
    """A start inventory: none, few units for the horizon (most replications
    sell out early) or more than T."""
    return {"empty": 0.0, "run-out": 1 + fill * T * 0.1, "ample": T + 1 + fill * T}[start]


def _forward_policy(family, law, T, y0):
    """The policy of a forward test case: a (lo, hi) law or a DP table (of the
    bernoulli model, on either family)."""
    model = _FORWARD_MODELS[family]
    x_T = max(y0, 0.5) / T
    if law == "dp":
        return solve_dp(_FORWARD_MODELS["bernoulli"], T + 3, math.ceil(y0) + 5).policy()
    return resolving_policy(model) if law == "resolving" else static_policy(model, x_T)


class TestDispatchedForward:
    """forward, noise_sum and forward2 of every single-target build give the
    dispatched library's bits and the numpy references' (tests/oracles.py)."""

    @pytest.mark.parametrize("T", [1, 7, 129, 2049, 4097])
    def test_noise_sum_matches_dispatched_and_oracle(self, single_build, T):
        # 13 replications: a vector loop leaves a remainder in every width; one
        # call keeps every listed horizon up to T, each with its own sum's bits
        horizons = np.array([h for h in (1, 7, 129, 2049, 4097) if h <= T])
        seeds = rng.replication_seed(31, np.arange(13))
        want = np.stack([oracles.noise_sum(seeds, h) for h in horizons.tolist()])
        for lib in (single_build, kernels._kernel()):
            got = np.full(want.shape, np.nan)
            lib.noise_sum(seeds.size, horizons.size, horizons, seeds, got)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(f, law) for f in _FORWARD_MODELS
                                 for law in ("static", "resolving", "dp")]),
           T=st.integers(1, 120), start=st.sampled_from(["empty", "run-out", "ample"]),
           fill=st.floats(0.0, 1.0), reps=st.integers(1, 40),
           seed=st.integers(0, 2**64 - 1), track=st.booleans())
    def test_batch_matches_dispatched_and_oracle(self, single_build, case, T, start, fill,
                                                 reps, seed, track):
        family, law = case
        model = _FORWARD_MODELS[family]
        y0 = _start(start, fill, T)
        y0 = float(math.ceil(y0)) if law == "dp" else y0
        track = track and sim_module.gamma(model, y0 / T) >= 0
        pol = _forward_policy(family, law, T, y0)
        got = _on(single_build, lambda: simulate_batch(model, pol, T, y0, seed, reps, track))
        want = simulate_batch(model, pol, T, y0, seed, reps, track)
        ref = oracles.simulate_batch(model, pol, T, y0, seed, reps, track)
        for batch in (got, want):
            assert batch.total_revenue.tobytes() == ref.total_revenue.tobytes()
            assert batch.sum_xi.tobytes() == ref.sum_xi.tobytes()
            assert (batch.t_sharp is None) == (not track)
            if track:
                assert batch.t_sharp.tobytes() == ref.t_sharp.tobytes()

    @pytest.mark.parametrize("family", ["bernoulli", "additive"])
    def test_constant_law_on_one_range_of_a_million_replications(self, family):
        """A batch at T = 2 whose one kernel call runs 1.1e6 replications under a constant
        law, a static rate (with bernoulli sales half of them sell out in the first
        period), through the clip of every (lo, hi) law, with the reference's bits."""
        model, reps = _FORWARD_MODELS[family], 1_100_000
        pol = static_policy(model, 0.4 if family == "bernoulli" else 0.3)
        with mock.patch.object(kernels, "_ranges", lambda n: [slice(0, n)]):
            got = simulate_batch(model, pol, 2, 1.0, 5, reps)
        want = oracles.simulate_batch(model, pol, 2, 1.0, 5, reps)
        assert got.total_revenue.tobytes() == want.total_revenue.tobytes()
        assert got.sum_xi.tobytes() == want.sum_xi.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from([(f, law) for f in _FORWARD_MODELS
                                 for law in ("static", "resolving", "dp")
                                 if law != "dp" or f == "bernoulli"]),
           T=st.integers(1, 120), start=st.sampled_from(["empty", "run-out", "ample"]),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
    def test_record_matches_dispatched_and_oracle(self, single_build, case, T, start, fill,
                                                  seed):
        family, law = case
        model = _FORWARD_MODELS[family]
        y0 = _start(start, fill, T)
        y0 = float(math.ceil(y0)) if law == "dp" else y0
        pol = _forward_policy(family, law, T, y0)
        got = _on(single_build, lambda: simulate(model, pol, T, y0, seed))
        want = simulate(model, pol, T, y0, seed)
        ref = oracles.simulate(model, pol, T, y0, seed)
        for trace in (got, want):
            for field in ("price", "demand_rate", "xi", "realized_demand", "inventory_after",
                          "revenue"):
                assert getattr(trace, field).tobytes() == getattr(ref, field).tobytes(), field
            assert trace.t_sharp == ref.t_sharp

    @settings(max_examples=30, deadline=None)
    @given(model=two_product_models(), T=st.integers(1, 120),
           start=st.tuples(*[st.sampled_from(["empty", "run-out", "ample"])] * 2),
           fill=st.floats(0.0, 1.0), reps=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
    def test_two_product_matches_dispatched_and_oracle(self, single_build, model, T, start,
                                                       fill, reps, seed):
        y0 = [_start(s, fill, T) for s in start]
        pol = MultiResolvingPolicy(model)
        got = _on(single_build, lambda: simulate_batch(model, pol, T, y0, seed, reps))
        want = simulate_batch(model, pol, T, y0, seed, reps)
        ref = oracles.simulate_batch(model, pol, T, y0, seed, reps)
        for batch in (got, want):
            assert batch.total_revenue.tobytes() == ref.total_revenue.tobytes()
            assert batch.sum_xi.tobytes() == ref.sum_xi.tobytes()


class TestHindsightPolicy:
    """The clairvoyant "ho" policy: the noise means it sees and its benchmark bound."""

    def test_bernoulli_rejected(self, bernoulli_model):
        # bernoulli noise depends on the posted price: there is no noise mean to see
        for run in (lambda: ho_noise_means(bernoulli_model, [64], 1, 3),
                    lambda: ho_inner_values(bernoulli_model, 64, 5 / 16, 1, 3),
                    lambda: estimate_regret(bernoulli_model, [64], "round(5/16*T)", ("ho",))):
            with pytest.raises(UnsupportedModelError):
                run()

    def test_prop2_inequality_monte_carlo(self, additive_model):
        # E[T r(x_T + xi_bar)] >= T r(x_T) - (m/2) T E[xi_bar^2]
        T, x_T = 256, 5 / 16
        w = additive_model.noise_half_width
        n = 40000
        vals = ho_inner_values(additive_model, T, x_T, base_seed=5, n_reps=n)
        se = vals.std(ddof=1) / np.sqrt(n)
        m = 2.0 / additive_model.beta
        bound = T * additive_model.revenue_rate(x_T) - (m / 2) * T * (w**2 / (3 * T))
        assert vals.mean() >= bound - 3 * se


class TestRateLaw:
    @settings(max_examples=80, deadline=None)
    @given(family=st.sampled_from(["bernoulli", "additive"]), t=st.integers(1, 500),
           x_T=st.floats(0.01, 1.0),
           y=st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e4), st.integers(1, 600)),
                      min_size=1, max_size=12))
    def test_every_shipped_law_holds_at_every_positive_inventory(self, family, t, x_T, y):
        """rates_batch(y, t) is clip(y / t, lo, hi) at every y > 0, fractional or not, 0 at 0;
        the scalar reference decide gives the same rate, bit for bit, at the price
        price_of_rate."""
        model = {"bernoulli": _LAW_BERNOULLI, "additive": _LAW_ADDITIVE}[family]
        y = np.array(y, dtype=float)
        for pol in (static_policy(model, x_T), resolving_policy(model)):
            lo, hi = pol.rate_law()
            rates = pol.rates_batch(y, t)
            assert rates.tobytes() == np.where(y > 0, np.clip(y / t, lo, hi), 0.0).tobytes()
            for state, rate in zip(y.tolist(), rates):
                dec = oracles.decide(model, pol, state, t)
                assert (dec is None) == (state <= 0)
                if dec is not None:
                    assert np.float64(dec[1]).tobytes() == rate.tobytes()
                    price = model.price_of_rate(rate)
                    assert np.float64(dec[0]).tobytes() == price.tobytes()


_LAW_BERNOULLI = DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0)
_LAW_ADDITIVE = DemandModel.linear_additive(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0,
                                            noise_half_width=0.1)


@st.composite
def _wide_box_models(draw) -> MultiDemandModel:
    """Two-product models as two_product_models draws them, but with each box_hi 1 or
    drawn from 0.5 to 2, and the unconstrained optimum from 0.05 to 2 in each product,
    so that the re-solve can bind at min(box_hi_k, y_k / t) above 1: backward2's W
    row cuts product k to y_k <= t only where box_hi_k <= 1."""
    d1, d2 = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    h12 = draw(st.floats(-0.9, 0.9)) * (d1 * d2) ** 0.5
    H = np.array([[-d1, h12], [h12, -d2]])
    target = np.array([draw(st.floats(0.05, 2.0)) for _ in range(2)])
    return MultiDemandModel(g=-H @ target, H=H,
                            box_hi=[draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
                                    for _ in range(2)])


@st.composite
def _cut_points(draw) -> list:
    """1 to 5 (T, y0) points, T often 8 or 16 and y0_k often 0 or above T, then up to
    two of them again."""
    points = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from([8, 16]), st.integers(1, 40)),
        st.tuples(*[st.one_of(st.just(0), st.integers(1, 50))] * 2)), min_size=1, max_size=5))
    return points + draw(st.lists(st.sampled_from(points), max_size=2))


class TestSolveDpMulti:
    def test_zero_inventory(self, multi_model):
        assert solve_dp_multi(multi_model, 8, [0, 0]) == 0.0

    def test_rejects_empty_horizon(self, multi_model):
        for T in (0, -3):
            with pytest.raises(DomainError):
                solve_dp_multi(multi_model, T, [2, 4])

    @settings(max_examples=40, deadline=None)
    @given(model=two_product_models(), T=st.integers(1, 64),
           y0=st.tuples(*[st.one_of(st.just(0), st.integers(1, 30))] * 2))
    def test_kernel_matches_numpy_pass_bitwise(self, model, T, y0):
        shape = (y0[0] + 1, y0[1] + 1)
        want, want_w = np.zeros(shape), np.zeros(shape)
        oracles.backward_multi(model, T, want)
        oracles.resolving_multi(model, T, want_w)
        for got in _backward2(kernels._kernel(), model, T, shape, False):
            assert got.tobytes() == want.tobytes()
        for got in _backward2(kernels._kernel(), model, T, shape, True):
            assert got.tobytes() == want_w.tobytes()
        assert solve_dp_multi(model, T, y0) == want[y0]
        assert multi_values(model, [(T, y0)], ["dp", "resolving"]) == [
            {"dp": want[y0], "resolving": want_w[y0]}]

    @settings(max_examples=40, deadline=None)
    @given(model=_wide_box_models(), points=_cut_points())
    def test_one_pass_has_the_bits_of_a_pass_per_horizon(self, model, points):
        """Each point of one pass over every horizon, on the lattice of all the points,
        has the bits of a whole-lattice pass on its own lattice to its own horizon, in
        both rows.  backward2 runs each period on the cone of the points still to be
        stored, cut to y_k <= t where its triangle holds: box_hi on both sides of 1
        puts W's triangle on and off, and points with y0_k = 0, y0_k > T and several
        and repeated horizons move the cone's edges."""
        names = ["resolving", "dp"]
        got = multi_values(model, points, names)
        for (T, y0), values in zip(points, got):
            assert values == multi_values(model, [(T, y0)], names)[0]
            for name, oracle in (("dp", oracles.backward_multi),
                                 ("resolving", oracles.resolving_multi)):
                want = np.zeros((y0[0] + 1, y0[1] + 1))
                oracle(model, T, want)
                assert np.float64(values[name]).tobytes() == want[y0].tobytes(), name

    def test_no_points_make_no_pass(self, multi_model, monkeypatch):
        monkeypatch.setattr(kernels, "_map", None)
        assert multi_values(multi_model, [], ["dp", "resolving"]) == []

    @pytest.mark.parametrize("points, names", [
        ([(16, [4, 8]), (0, [1, 1])], ["dp"]),  # a horizon that stores nothing
        ([(16, [4, -1])], ["resolving"]),  # a cell before the lattice
        ([(16, [4, 2.5])], ["dp"]),
        ([(16.5, [4, 8])], ["dp"]),
        ([(16, [4, 8, 1])], ["dp"]),
        ([(16, [4, 8])], ["dp", "static"])])
    def test_bad_points_or_rows_are_refused_before_the_pass(self, multi_model, monkeypatch,
                                                             points, names):
        """The kernel reads the cell of each point after its horizon: a horizon below 1
        would leave the output unwritten and a negative or fractional y0 would read
        off the lattice, so multi_values refuses them, and a row name it lacks."""
        monkeypatch.setattr(kernels, "_map", None)
        with pytest.raises(DomainError):
            multi_values(multi_model, points, names)

    @pytest.mark.parametrize("T", [1, 2, 16, 256])
    def test_resolving_row_stays_below_the_optimal_row(self, T):
        """After T periods on the model of criterion 10 (perfbench's two-product model)
        and the (64 + 1) x (128 + 1) lattice of its T = 256 point, W <= V at every
        cell, and W == V bit for bit after one period, where the re-solve on
        min(box_hi, y / 1) = box_hi is V's own maximization."""
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]],
                                 box_hi=[1.0, 1.0])
        _, V = _backward2(kernels._kernel(), model, T, (65, 129), False)
        _, W = _backward2(kernels._kernel(), model, T, (65, 129), True)
        if T == 1:
            assert W.tobytes() == V.tobytes()
        else:
            assert np.all(W <= V)
            assert np.any(W < V)

    def test_one_period_equals_fluid(self, multi_model):
        value = solve_dp_multi(multi_model, 1, [3, 3])
        fluid = solve_fluid_multi(multi_model, np.array([3.0, 3.0])).objective
        assert value == pytest.approx(fluid, abs=1e-12)

    def test_brute_force_grid_policy_oracle(self, multi_model):
        # exhaustive DP over a 5-point action grid lower-bounds the exact value
        T, y0 = 10, (3, 3)
        exact = solve_dp_multi(multi_model, T, y0)
        grid = np.linspace(0.0, 1.0, 5)
        H, g = multi_model.H, multi_model.g
        V = np.zeros((y0[0] + 1, y0[1] + 1))
        for _ in range(T):
            newV = np.zeros_like(V)
            for y1 in range(y0[0] + 1):
                for y2 in range(y0[1] + 1):
                    best = -np.inf
                    for a1 in (grid if y1 >= 1 else [0.0]):
                        for a2 in (grid if y2 >= 1 else [0.0]):
                            r = (g[0] * a1 + g[1] * a2
                                 + 0.5 * (H[0, 0] * a1**2 + H[1, 1] * a2**2)
                                 + H[0, 1] * a1 * a2)
                            cont = ((1 - a1) * (1 - a2) * V[y1, y2]
                                    + a1 * (1 - a2) * V[max(y1 - 1, 0), y2]
                                    + (1 - a1) * a2 * V[y1, max(y2 - 1, 0)]
                                    + a1 * a2 * V[max(y1 - 1, 0), max(y2 - 1, 0)])
                            best = max(best, r + cont)
                    newV[y1, y2] = best
            V = newV
        grid_value = V[y0[0], y0[1]]
        h = grid[1] - grid[0]
        # one-step loss of confining actions to the grid, curvature times step
        tol = T * 4.0 * h * h / 4.0
        assert grid_value <= exact + 1e-9
        assert exact <= grid_value + tol

    def test_guards(self, multi_model):
        from fluidpricing import MultiDemandModel

        with pytest.raises(ResourceGuardError):
            solve_dp_multi(multi_model, 4096, [1000, 1000])  # 4096 * 1001^2 cells
        model3 = MultiDemandModel(g=np.ones(3), H=-np.eye(3), box_hi=np.ones(3))
        with pytest.raises(UnsupportedModelError):
            solve_dp_multi(model3, 4, [1, 1, 1])
