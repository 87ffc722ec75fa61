import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidpricing import (
    DemandModel,
    DomainError,
    MultiDemandModel,
    ResourceGuardError,
    UnsupportedModelError,
    constant_bound,
    dp_value,
    estimate_regret,
    exact_values,
    fluid_value,
    gamma,
    resolving_policy,
    simulate,
    simulate_batch,
    simulate_batch_multi,
    simulate_multi,
    solve_dp,
    static_policy,
)
from fluidpricing import kernels, policies, rng
from fluidpricing import sim as sim_module
from fluidpricing.policies import (
    MultiResolvingPolicy,
    ResolvingPolicy,
    checked_law,
    exact_passes,
    exact_policy_values,
    multi_values,
    solve_dp_multi,
)
from fluidpricing.sim import (
    fixed_price_revenues,
    ho_inner_values,
    ho_noise_means,
    ho_revenues,
    parse_y0_rule,
)

import oracles
from conftest import random_multi_model, two_product_models

# the per-period arrays of a MultiSimTrace
_MULTI_FIELDS = ("tau_remaining", "prices", "demand_rates", "xi", "sales", "inventory_after",
                 "revenue")


def _same_multi_trace(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in _MULTI_FIELDS)


@pytest.fixture(scope="module")
def zero_noise_model():
    return DemandModel.linear_additive(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0,
                                       noise_half_width=0.0)


class TestSimulate:
    def test_zero_noise_static_hits_fluid_value(self, zero_noise_model):
        T = 40
        y0 = T * 5 / 16
        pol = static_policy(zero_noise_model, 5 / 16)
        trace = simulate(zero_noise_model, pol, T, y0, seed=1)
        assert trace.total_revenue == pytest.approx(
            fluid_value(zero_noise_model, T, y0), abs=1e-9)
        assert trace.inventory_after[-1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_initial_inventory(self, bernoulli_model):
        trace = simulate(bernoulli_model, resolving_policy(bernoulli_model), 16, 0, seed=2)
        assert trace.total_revenue == 0.0
        assert np.all(trace.revenue == 0.0)
        assert np.all(np.isinf(trace.price))

    def test_determinism_and_seed_sensitivity(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        a = simulate(bernoulli_model, pol, 64, 20, seed=7)
        b = simulate(bernoulli_model, pol, 64, 20, seed=7)
        c = simulate(bernoulli_model, pol, 64, 20, seed=8)
        for field in ("price", "demand_rate", "xi", "realized_demand",
                      "inventory_after", "revenue"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(a.revenue, c.revenue)

    def test_conservation_and_dynamics_invariants(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        for seed in range(10):
            tr = simulate(bernoulli_model, pol, 128, 40, seed=seed)
            sold = tr.realized_demand.sum()
            assert sold + tr.inventory_after[-1] == pytest.approx(40.0, abs=1e-12)
            # recorded dynamics: y_next = max(0, y - realized)
            y = 40.0
            for i in range(tr.T):
                y = max(0.0, y - tr.realized_demand[i])
                assert tr.inventory_after[i] == pytest.approx(y, abs=1e-12)
            # realized = rate + noise on active periods
            active = ~np.isinf(tr.price)
            np.testing.assert_allclose(tr.realized_demand[active],
                                       tr.demand_rate[active] + tr.xi[active], atol=1e-12)

    def test_policy_without_rate_law_is_refused(self, bernoulli_model):
        for pol in (_RatesOnly(resolving_policy(bernoulli_model)), _Floored(bernoulli_model)):
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                simulate(bernoulli_model, pol, 8, 3, seed=0)
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                simulate_batch(bernoulli_model, pol, 8, 3, 0, 4)

    @pytest.mark.parametrize("entry, T, y0", [
        (entry, T, y0) for entry in ("simulate", "simulate_batch", "exact_values")
        for T, y0 in ((32, 5), (16, 12), (16, 4.5))
        if not (entry == "exact_values" and y0 == 4.5)])  # its points are whole units
    def test_dp_policy_beyond_its_table_is_refused(self, bernoulli_model, monkeypatch,
                                                   entry, T, y0):
        # the table covers T <= 16 periods from y0 <= 10 whole units
        pol = solve_dp(bernoulli_model, 16, 10).policy()
        run = {"simulate": lambda: simulate(bernoulli_model, pol, T, y0, seed=3),
               "simulate_batch": lambda: simulate_batch(bernoulli_model, pol, T, y0, 3, 8),
               "exact_values": lambda: exact_values(bernoulli_model, [(T, y0)], {"t": pol})}

        def no_pass(*args, **kwargs):
            raise AssertionError("a kernel or pass ran")

        monkeypatch.setattr(kernels, "_kernel", no_pass)
        monkeypatch.setattr(policies, "_fused_pass", no_pass)
        with pytest.raises(DomainError, match="DP table of horizon 16"):
            run[entry]()

    def test_batch_agrees_with_single_traces(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        from fluidpricing.rng import replication_seed

        batch = simulate_batch(bernoulli_model, pol, 32, 10, base_seed=9, n_reps=5)
        for i in range(5):
            tr = simulate(bernoulli_model, pol, 32, 10, seed=int(replication_seed(9, i)))
            assert tr.total_revenue == pytest.approx(batch.total_revenue[i], abs=1e-12)

    @pytest.mark.parametrize("family", ["bernoulli", "additive", "multi"])
    @pytest.mark.parametrize("T, y0", [(0, 3), (-1, 3), (8, -2), (8, float("nan"))])
    def test_batch_rejects_bad_horizon_and_inventory(self, family, T, y0, bernoulli_model,
                                                     additive_model, multi_model):
        model = {"bernoulli": bernoulli_model, "additive": additive_model,
                 "multi": multi_model}[family]
        if family == "multi":
            pol, y0 = MultiResolvingPolicy(model), [1.0, y0]
        else:
            pol = resolving_policy(model)
        with pytest.raises(DomainError):
            simulate_batch(model, pol, T, y0, base_seed=1, n_reps=3)
        if T < 1:  # estimate_regret stops at such a horizon before any pass or solve
            rule = (lambda _: [1, 2]) if family == "multi" else "round(5/16*T)"
            with pytest.raises(DomainError, match="whole numbers T >= 1"):
                estimate_regret(model, [T, 16], rule, ("resolving",))

    @pytest.mark.parametrize("family", ["bernoulli", "additive", "multi"])
    def test_infinite_inventory_is_refused(self, family, bernoulli_model, additive_model,
                                           multi_model):
        """An infinite y0 used to run with a numpy RuntimeWarning and give a trace
        whose inventory stayed infinite; every forward entry point refuses it."""
        model = {"bernoulli": bernoulli_model, "additive": additive_model,
                 "multi": multi_model}[family]
        if family == "multi":
            pol, y0 = MultiResolvingPolicy(model), [4.0, math.inf]
            runs = [lambda: simulate_multi(model, pol, 16, y0, seed=1)]
        else:
            pol, y0, runs = resolving_policy(model), math.inf, []
        runs += [lambda: simulate(model, pol, 16, y0, seed=1),
                 lambda: simulate_batch(model, pol, 16, y0, base_seed=1, n_reps=3)]
        for run in runs:
            with pytest.raises(DomainError, match="finite y0"):
                run()

    def test_a_count_past_the_byte_budget_is_refused_before_any_array(
            self, additive_model, multi_model, monkeypatch):
        """A count whose per-replication arrays pass BYTE_BUDGET is refused
        before the seed array: 10**13 made numpy raise a bare _ArrayMemoryError,
        and the first count past the budget is refused alike."""
        def no_kernel(*args):
            raise AssertionError("a kernel ran past the budget")

        monkeypatch.setattr(kernels, "_map", no_kernel)
        budget = policies.BYTE_BUDGET
        static = static_policy(additive_model, 5 / 16)
        pair = MultiResolvingPolicy(multi_model)
        for n in (10**13, budget // (8 * 6) + 1):  # six words per forward replication
            for run in (lambda: simulate_batch(additive_model, static, 16, 5, 1, n),
                        lambda: simulate_batch(multi_model, pair, 16, [2, 3], 1, n)):
                with pytest.raises(ResourceGuardError, match="replications"):
                    run()
        # seeds, two noise blocks and a mean per horizon: four words
        for n in (10**13, budget // (8 * 4) + 1):
            with pytest.raises(ResourceGuardError, match="replications"):
                ho_noise_means(additive_model, [16], 1, n)

    def test_hindsight_rejects_empty_horizon(self, additive_model):
        with pytest.raises(DomainError):
            ho_noise_means(additive_model, [0], 1, 3)
        with pytest.raises(DomainError):
            ho_inner_values(additive_model, 0, 5 / 16, base_seed=1, n_reps=3)

    @pytest.mark.parametrize("entry, T, n", [
        (entry, T, n) for entry in ("simulate", "simulate-multi", "batch", "batch-multi",
                                    "hindsight", "dp-multi", "estimate-regret",
                                    "estimate-regret-multi", "estimate-regret-exact")
        for T, n in ((64.5, 3), (16, 2.5)) if n == 3 or not entry.startswith("simulate")])
    def test_non_whole_horizon_or_count_is_refused(self, entry, T, n, additive_model,
                                                   multi_model, bernoulli_model):
        """A horizon of 64.5 reached the kernels as a raw ctypes error, and 2.5
        replications ran 3: each Monte Carlo entry point refuses both (and the
        two-product DP a fractional inventory), and so does a regret run of every
        kind, though only additive rows read the count."""
        static, pair = static_policy(additive_model, 5 / 16), MultiResolvingPolicy(multi_model)
        run = {"simulate": lambda: simulate(additive_model, static, T, 5, seed=1),
               "simulate-multi": lambda: simulate(multi_model, pair, T, [2, 3], seed=1),
               "batch": lambda: simulate_batch(additive_model, static, T, 5, 1, n),
               "batch-multi": lambda: simulate_batch(multi_model, pair, T, [2, 3], 1, n),
               "hindsight": lambda: ho_noise_means(additive_model, [T], 1, n),
               "dp-multi": lambda: solve_dp_multi(multi_model, T, [n, 2]),
               "estimate-regret": lambda: estimate_regret(
                   additive_model, [T], "round(5/16*T)", ("static", "ho"), replications=n),
               "estimate-regret-multi": lambda: estimate_regret(
                   multi_model, [T], lambda _: [2, 3], ("resolving",), replications=n),
               "estimate-regret-exact": lambda: estimate_regret(
                   bernoulli_model, [T], "round(5/16*T)", ("dp",), replications=n)}
        with pytest.raises(DomainError, match="whole numbers"):
            run[entry]()

    @pytest.mark.parametrize("name", ["static", "resolving"])
    def test_additive_batch_agrees_with_single_traces(self, additive_model, name):
        T, y0 = 48, 15
        pol = {"static": static_policy(additive_model, y0 / T),
               "resolving": resolving_policy(additive_model)}[name]
        batch = simulate_batch(additive_model, pol, T, y0, base_seed=4, n_reps=6)
        for i in range(6):
            tr = simulate(additive_model, pol, T, y0, seed=int(rng.replication_seed(4, i)))
            assert tr.total_revenue == pytest.approx(batch.total_revenue[i], abs=1e-12)
            assert tr.xi.sum() == pytest.approx(batch.sum_xi[i], abs=1e-12)

    def test_hindsight_batch_rows_match_single_traces(self, additive_model):
        """The closed-form ho revenue of each replication is the replay of its own
        stream at its hindsight rate, the sell-out rate x_T - xi_bar here, posted as a
        static price: the same revenue to 1e-12 relative."""
        base, n, w = 6, 5, additive_model.noise_half_width
        T_list = [64, 1024]
        for T, xi_bar in zip(T_list, ho_noise_means(additive_model, T_list, base, n)):
            y0 = round(5 * T / 16)
            revenues = ho_revenues(additive_model, T, y0, xi_bar)
            for i in range(n):
                seed = int(rng.replication_seed(base, i))
                # the clairvoyant sees the mean noise of its own stream
                want = ((2.0 * oracles.uniform_block(seed, 0, T) - 1.0) * w).mean()
                assert xi_bar[i] == pytest.approx(want, abs=1e-15)
                rate = y0 / T - xi_bar[i]
                assert additive_model.d_lo <= rate <= additive_model.rate_cap
                static = static_policy(additive_model, rate)
                tr = simulate(additive_model, static, T, y0, seed=seed)
                assert revenues[i] == pytest.approx(tr.total_revenue, rel=1e-12, abs=0.0)


class _Recorder:
    """Wraps a policy and keeps every state the engine hands to it."""

    def __init__(self, policy):
        self.policy, self.states = policy, []

    def rates_batch(self, y, t):
        self.states.append(np.array(y))
        return self.policy.rates_batch(y, t)


_ENGINE_MODELS = {
    "bernoulli": DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0),
    "additive": DemandModel.linear_additive(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0,
                                            noise_half_width=0.2),
    "two-product": MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]],
                                    box_hi=[1.0, 1.0]),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_ENGINE_MODELS)), static=st.booleans(),
       T=st.integers(1, 60), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
def test_engine_invariants(family, static, T, fill, seed):
    """Inventory never increases, sales never exceed it, revenue is >= 0: seen in the
    states the numpy reference hands to the policy, whose bits the kernels repeat."""
    model = _ENGINE_MODELS[family]
    if family == "two-product":
        y0 = np.array([round(fill * T), round(fill * T / 2)], dtype=float)
        pol, max_revenue = MultiResolvingPolicy(model), float(model.g @ y0)
    else:
        y0 = round(fill * T) if family == "bernoulli" else fill * T * 0.8
        pol = (static_policy(model, max(y0, 1) / T) if static else resolving_policy(model))
        max_revenue = model.p_hi * y0
    rec = _Recorder(pol)
    reference = oracles.simulate_batch(model, rec, T, y0, seed, 40)
    states = np.stack(rec.states)
    assert len(states) == T and np.all(states[0] == y0)
    assert np.all(np.diff(states, axis=0) <= 0.0)  # inventory never increases
    assert np.all(states >= 0.0)  # each period sells at most what is left
    assert np.all(reference.total_revenue >= 0.0)
    # every price is at most the price of a zero rate, and at most y0 units sell
    assert np.all(reference.total_revenue <= max_revenue + 1e-9)
    batch = simulate_batch(model, pol, T, y0, seed, 40)
    assert batch.total_revenue.tobytes() == reference.total_revenue.tobytes()


class _RatesOnly:
    """A policy's rates_batch without its rate_law, which no forward kernel runs."""

    def __init__(self, policy):
        self.rates_batch = policy.rates_batch


class _Floored(ResolvingPolicy):
    """Overrides rates_batch only, so the inherited law no longer holds."""

    def rates_batch(self, y, t):
        return np.maximum(super().rates_batch(y, t), 0.3)


# each misuse of a compiled loop, and the error checked_law raises for it
_MISUSES = {"rates-only": UnsupportedModelError, "overriding-subclass": UnsupportedModelError,
            "small-dp-table": DomainError}


@pytest.mark.parametrize("misuse", sorted(_MISUSES))
def test_every_compiled_loop_refuses_a_misuse_alike(misuse, bernoulli_model, additive_model,
                                                    monkeypatch):
    """exact_values, simulate and simulate_batch share one admission rule, so they
    raise the same error for a misuse, before any kernel runs."""
    pol = {"rates-only": lambda: _RatesOnly(resolving_policy(bernoulli_model)),
           "overriding-subclass": lambda: _Floored(bernoulli_model),
           "small-dp-table": lambda: solve_dp(bernoulli_model, 16, 10).policy()}[misuse]()
    T, y0 = 32, 12  # beyond the table's 16 periods and 10 units

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(kernels, "_kernel", no_kernel)
    for run in (lambda: exact_values(bernoulli_model, [(T, y0)], {"pol": pol}),
                lambda: simulate(bernoulli_model, pol, T, y0, seed=3),
                lambda: simulate_batch(bernoulli_model, pol, T, y0, 3, 4)):
        with pytest.raises(_MISUSES[misuse]):
            run()


_TRACE_FIELDS = ("tau_remaining", "price", "demand_rate", "xi", "realized_demand",
                 "inventory_after", "revenue")
_TRACE_MODELS = {**_ENGINE_MODELS, "zero-noise": DemandModel.linear_additive(
    alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0, noise_half_width=0.0)}
# the rate laws each family runs: a DP table needs bernoulli demand
_TRACE_LAWS = [(family, name) for family in ("bernoulli", "additive", "zero-noise")
               for name in ("static", "resolving", "dp") if name != "dp" or family == "bernoulli"]


@settings(max_examples=150, deadline=None)
@given(law=st.sampled_from(_TRACE_LAWS), T=st.integers(1, 200),
       start=st.sampled_from(["empty", "fractional", "ample"]), fill=st.floats(0.0, 1.0),
       seed=st.one_of(st.sampled_from([-3, 0, 2**63 + 5, 2**64 - 1]),
                      st.integers(-2**70, 2**70)))
def test_simulate_matches_scalar_oracle_bitwise(law, T, start, fill, seed):
    """One trace of the forward kernel is the scalar loop's trace, byte for byte."""
    family, name = law
    model = _TRACE_MODELS[family]
    y0 = {"empty": 0, "fractional": fill * T * 0.6, "ample": T + 1 + fill * T}[start]
    x_T = max(y0, 0.5) / T
    if name == "dp":
        y0 = math.ceil(y0)  # a DP table runs whole units
        pol = solve_dp(model, T, y0).policy()
    else:
        pol = resolving_policy(model) if name == "resolving" else static_policy(model, x_T)
    got = simulate(model, pol, T, y0, seed)
    want = oracles.simulate(model, pol, T, y0, seed)
    assert (got.T, got.y0, got.seed) == (want.T, want.y0, want.seed)
    for field in _TRACE_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    # an int, or None where the band gamma(model, y0 / T) is negative
    assert type(got.t_sharp) is type(want.t_sharp) and got.t_sharp == want.t_sharp


class TestForwardKernel:
    @settings(max_examples=120, deadline=None)
    @given(family=st.sampled_from(["bernoulli", "additive"]),
           name=st.sampled_from(["static", "resolving"]), T=st.integers(1, 300),
           start=st.sampled_from(["empty", "fractional", "ample"]), fill=st.floats(0.0, 1.0),
           reps=st.integers(1, 30), seed=st.integers(0, 2**64 - 1), track=st.booleans())
    def test_matches_numpy_engine_bitwise(self, family, name, T, start, fill, reps, seed,
                                          track):
        model = _ENGINE_MODELS[family]
        y0 = {"empty": 0, "fractional": fill * T * 0.6, "ample": T + 1 + fill * T}[start]
        x_T = max(y0, 0.5) / T
        pol = resolving_policy(model) if name == "resolving" else static_policy(model, x_T)
        _assert_batch_matches_numpy_engine(model, pol, T, y0, seed, reps, track)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["bernoulli", "additive"]), T=st.integers(1, 120),
           cover=st.tuples(st.integers(0, 20), st.integers(0, 40)), fill=st.floats(0.0, 1.5),
           reps=st.integers(1, 30), seed=st.integers(0, 2**64 - 1), track=st.booleans())
    def test_dp_table_matches_numpy_engine_bitwise(self, family, T, cover, fill, reps, seed,
                                                   track):
        # the table may reach beyond T and y0; additive sales leave fractional inventory
        y0 = round(fill * T)
        table = solve_dp(_ENGINE_MODELS["bernoulli"], T + cover[0], y0 + cover[1])
        model, pol = _ENGINE_MODELS[family], table.policy()
        _assert_batch_matches_numpy_engine(model, pol, T, y0, seed, reps, track)

    @pytest.mark.parametrize("T", [1, 7, 129, 300, 2049, 4097])
    def test_noise_sum_matches_sequential_sum(self, additive_model, T):
        """One noise_sum call to T keeps the sum at every listed horizon up to T,
        each with the bits of a sum that stops there; ho_noise_means gives each
        horizon's mean noise from it."""
        horizons = np.array([h for h in (1, 7, 129, 300, 2049, 4097) if h <= T])
        seeds = rng.replication_seed(12, np.arange(9))
        got = np.full((horizons.size, seeds.size), np.nan)
        kernels._kernel().noise_sum(seeds.size, horizons.size, horizons, seeds, got)
        for h, row in zip(horizons.tolist(), got):
            want = oracles.noise_sum(seeds, h)
            assert row.tobytes() == want.tobytes(), h
        xi_bar, = ho_noise_means(additive_model, [T], 12, seeds.size)
        assert xi_bar.tobytes() == ((2.0 * want / T - 1.0)
                                    * additive_model.noise_half_width).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(model=two_product_models(), T=st.integers(1, 200),
           start=st.tuples(*[st.sampled_from(["empty", "fractional", "whole"])] * 2),
           fill=st.floats(0.0, 1.0), reps=st.integers(1, 30), seed=st.integers(0, 2**64 - 1))
    def test_two_product_matches_numpy_engine_bitwise(self, model, T, start, fill, reps, seed):
        y0 = [{"empty": 0.0, "fractional": fill * T * 0.6, "whole": float(round(fill * T))}[s]
              for s in start]
        pol = MultiResolvingPolicy(model)
        assert checked_law(pol, np.array([y0]), T, model) is model  # so forward2 runs
        got = simulate_batch(model, pol, T, y0, seed, reps)
        want = oracles.simulate_batch(model, pol, T, y0, seed, reps)
        assert got.total_revenue.tobytes() == want.total_revenue.tobytes()
        assert got.sum_xi.tobytes() == want.sum_xi.tobytes()
        assert got.t_sharp is None

    @pytest.mark.parametrize("T, y0", [(65, [6, 31]), (43, [14, 18]), (43, [18, 14])])
    def test_two_product_tie_keeps_the_earlier_candidate(self, multi_model, T, y0):
        # at y0 / T the edge candidates x1 = ub1 and x2 = ub2 of the box QP sit
        # an ulp apart and tie in value exactly: both engines keep the earlier one
        pol = MultiResolvingPolicy(multi_model)
        got = simulate_batch(multi_model, pol, T, y0, 4, 200)
        want = oracles.simulate_batch(multi_model, pol, T, y0, 4, 200)
        assert got.total_revenue.tobytes() == want.total_revenue.tobytes()

    def test_two_product_asymmetric_H_prices_by_rows(self):
        # an unvalidated model may carry an asymmetric H: price j is g_j + (H x)_j / 2
        model = MultiDemandModel(g=[1.0, 0.9], H=[[-2.0, -0.3], [-0.7, -1.6]], box_hi=[1.0, 1.0])
        pol = MultiResolvingPolicy(model)
        got = simulate_batch(model, pol, 50, [12, 30], 6, 100)
        want = oracles.simulate_batch(model, pol, 50, [12, 30], 6, 100)
        assert got.total_revenue.tobytes() == want.total_revenue.tobytes()

    def test_two_product_policy_departing_from_its_law_is_refused(self, multi_model):
        class Capped(MultiResolvingPolicy):
            # overrides rates_batch only, so the inherited law no longer holds
            def rates_batch(self, y, t):
                return np.minimum(super().rates_batch(y, t), 0.3)

        capped = Capped(multi_model)
        with pytest.raises(UnsupportedModelError, match="no rate law"):
            checked_law(capped, np.array([[4.0, 8.0]]), 16, multi_model)
        # nor does forward2 run a policy that re-solves another model, or rates alone
        other = MultiResolvingPolicy(MultiDemandModel(g=multi_model.g, H=multi_model.H,
                                                      box_hi=[0.3, 1.0]))
        for pol in (capped, other, _RatesOnly(MultiResolvingPolicy(multi_model))):
            with pytest.raises(UnsupportedModelError, match="no rate law"):
                simulate_batch(multi_model, pol, 16, [4, 8], 5, 40)


def _assert_batch_matches_numpy_engine(model, pol, T, y0, seed, reps, track) -> None:
    """simulate_batch against the numpy engine, bit for bit; with track where the band
    gamma(model, y0 / T) is negative, the kernel refuses the tracker and both run without."""
    if track and gamma(model, y0 / T) < 0:
        with pytest.raises(DomainError, match="band gamma"):
            simulate_batch(model, pol, T, y0, seed, reps, track_t_sharp=True)
        track = False
    got = simulate_batch(model, pol, T, y0, seed, reps, track_t_sharp=track)
    want = oracles.simulate_batch(model, pol, T, y0, seed, reps, track_t_sharp=track)
    _assert_same_batch(got, want, track)


def _assert_same_batch(got, want, track: bool) -> None:
    assert got.total_revenue.tobytes() == want.total_revenue.tobytes()
    assert got.sum_xi.tobytes() == want.sum_xi.tobytes()
    if track:
        assert got.t_sharp.dtype == want.t_sharp.dtype
        assert got.t_sharp.tobytes() == want.t_sharp.tobytes()
    else:
        assert got.t_sharp is None and want.t_sharp is None


class TestDiagnostics:
    """SimTrace.t_sharp, the forward kernel's stopping time, on whole traces."""

    def test_all_zero_noise_floors_at_two(self, zero_noise_model):
        for pol in (resolving_policy(zero_noise_model), static_policy(zero_noise_model, 0.3)):
            assert simulate(zero_noise_model, pol, 32, 10, seed=5).t_sharp == 2

    def test_huge_first_noise_stops_immediately(self, bernoulli_model):
        # at x_T = x_u the band is empty (gamma = 0), and a bernoulli period always
        # has noise, so the series leaves it in the first period
        T, y0 = 32, 12
        assert gamma(bernoulli_model, y0 / T) == 0.0
        for seed in range(5):
            assert simulate(bernoulli_model, resolving_policy(bernoulli_model), T, y0,
                            seed=seed).t_sharp == T

    @pytest.mark.parametrize("T, y0", [(16, 0), (16, 8)])
    def test_negative_band_has_no_stopping_time(self, bernoulli_model, T, y0):
        # x_T = 0 and 0.5 lie outside [d_lo, x_u] = [0.25, 0.375]: the band is negative,
        # so no period can stay in it, and a trace has no t_sharp to report
        pol = resolving_policy(bernoulli_model)
        assert gamma(bernoulli_model, y0 / T) < 0
        assert simulate(bernoulli_model, pol, T, y0, seed=1).t_sharp is None
        assert oracles.simulate(bernoulli_model, pol, T, y0, 1).t_sharp is None
        with pytest.raises(DomainError, match="band gamma"):
            simulate_batch(bernoulli_model, pol, T, y0, 1, 3, track_t_sharp=True)
        assert simulate_batch(bernoulli_model, pol, T, y0, 1, 3).t_sharp is None

    def test_gamma_terms(self, bernoulli_model):
        # for quadratic revenue, -r'(x)/r''(x) equals x_u - x
        x = 0.3
        assert gamma(bernoulli_model, x) == pytest.approx(
            min(x - bernoulli_model.d_lo, bernoulli_model.x_u - x))

    def test_inventory_identity_and_band_on_resolving_traces(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        T, y0 = 256, 80
        x_T = y0 / T
        gam = gamma(bernoulli_model, x_T)
        for seed in range(50):
            tr = simulate(bernoulli_model, pol, T, y0, seed=seed)
            xi_bar = oracles.harmonic_series(tr.xi, T)
            inv_before = np.concatenate([[float(y0)], tr.inventory_after[:-1]])
            for i in range(T):
                tau = T - i
                if tau >= tr.t_sharp - 1:
                    assert abs(inv_before[i] / tau - (x_T - xi_bar[tau])) < 1e-10
                if tau >= tr.t_sharp:
                    assert abs(xi_bar[tau]) <= gam + 1e-12

    def test_batch_t_sharp_matches_per_trace(self, bernoulli_model):
        from fluidpricing.rng import replication_seed

        pol = resolving_policy(bernoulli_model)
        T, y0 = 128, 40
        batch = simulate_batch(bernoulli_model, pol, T, y0, base_seed=21, n_reps=20,
                               track_t_sharp=True)
        for i in range(20):
            tr = simulate(bernoulli_model, pol, T, y0, seed=int(replication_seed(21, i)))
            assert tr.t_sharp == batch.t_sharp[i]

    def test_harmonic_series_indexing(self):
        xi = np.array([0.1, -0.2, 0.3])  # T = 3, chronological
        xb = oracles.harmonic_series(xi, 3)
        assert xb[3] == 0.0
        assert xb[2] == pytest.approx(0.1 / 2)
        assert xb[1] == pytest.approx(0.1 / 2 - 0.2 / 1)
        assert np.isnan(xb[0])


class TestHarmonicIdentity:
    def test_zero_inputs(self):
        assert oracles.harmonic_identity_check(2, np.zeros(5), np.zeros(5), np.zeros(5)) == 0.0

    def test_hand_expanded_case(self):
        # constant corrections, no noise, T = 5, stop at 2
        res = oracles.harmonic_identity_check(2, np.ones(4), np.zeros(4), np.zeros(4))
        assert abs(res) < 1e-12

    def test_fuzz_thousand_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            T = int(rng.integers(2, 200))
            t_sharp = int(rng.integers(2, T + 1))
            n = T - t_sharp + 1
            res = oracles.harmonic_identity_check(
                t_sharp,
                rng.uniform(-5, 5, size=n),
                rng.uniform(-5, 5, size=n),
                rng.uniform(-5, 5, size=n),
            )
            assert abs(res) < 1e-10 * T

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            oracles.harmonic_identity_check(2, np.zeros(3), np.zeros(4), np.zeros(3))


class TestStochasticChecks:
    def test_martingale_centering(self, bernoulli_model):
        pol = resolving_policy(bernoulli_model)
        T, n = 128, 3000
        batch = simulate_batch(bernoulli_model, pol, T, 40, base_seed=31, n_reps=n)
        bound = 4.0 * bernoulli_model.noise_bound() * np.sqrt(T) / np.sqrt(n)
        assert abs(batch.sum_xi.mean()) < bound

    def test_dp_policy_mc_mean_within_ci(self, bernoulli_model):
        table = solve_dp(bernoulli_model, 64, 20)
        batch = simulate_batch(bernoulli_model, table.policy(), 64, 20,
                               base_seed=123, n_reps=100_000)
        half = batch.ci_half_width(0.99)
        assert abs(batch.mean - table.value(64, 20)) <= half

    def test_ci_half_width_levels(self):
        """The tabulated levels keep their bits; any other level in (0, 1) gets its
        own z (0.954 used to round to 0.95's); a level outside (0, 1) is refused."""
        batch = sim_module.BatchResult(np.arange(100.0), np.zeros(100))
        tabulated = {0.90: 4.771965779980307, 0.95: 5.6861479410501525,
                     0.99: 7.472865117115068}
        for confidence, half in tabulated.items():
            assert batch.ci_half_width(confidence) == half
        assert tabulated[0.95] < batch.ci_half_width(0.954) < batch.ci_half_width(0.96)
        for confidence in (1.5, math.nan, 1.0, 0.0, -0.5, math.inf):
            with pytest.raises(DomainError):
                batch.ci_half_width(confidence)

    def test_ci_half_width_needs_no_scipy(self):
        """With scipy unavailable the package imports, a tabulated level keeps its
        bits and any other level gets scipy's normal quantile to rounding."""
        from scipy.stats import norm

        code = ("import sys; sys.modules['scipy'] = None\n"
                "import numpy as np, fluidpricing\n"
                "batch = fluidpricing.BatchResult(np.arange(100.0), np.zeros(100))\n"
                "print(repr(batch.ci_half_width(0.95)), repr(batch.ci_half_width(0.954)))")
        src = str(Path(sim_module.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        tabulated, other = map(float, done.stdout.split())
        assert tabulated == 5.6861479410501525
        assert other == pytest.approx(float(norm.ppf(0.977)) * np.arange(100.0).std(ddof=1) / 10,
                                      rel=1e-14, abs=0.0)


class TestEstimateRegret:
    @pytest.mark.parametrize("family", ["bernoulli", "additive", "multi"])
    def test_no_horizons_give_no_rows(self, family, bernoulli_model, additive_model,
                                      multi_model):
        """No horizon is no row in every family; bernoulli raised a bare ValueError."""
        model = {"bernoulli": bernoulli_model, "additive": additive_model,
                 "multi": multi_model}[family]
        rule = (lambda _: [1, 2]) if family == "multi" else "round(5/16*T)"
        assert estimate_regret(model, [], rule, ("resolving",)) == []

    def test_benchmark_instance_exact_table_point(self, bernoulli_model):
        reports = estimate_regret(bernoulli_model, [64], "round(5/16*T)",
                                  policies=("static", "resolving"))
        by_name = {r.policy: r for r in reports}
        static, resolving = by_name["static"], by_name["resolving"]
        assert static.ci_half_width == 0.0 and static.replications == 0
        assert static.dp_value - static.fluid_value == pytest.approx(-0.90, abs=0.01)
        assert static.regret_vs_dp == pytest.approx(0.38, abs=0.01)
        assert resolving.regret_vs_dp == pytest.approx(0.11, abs=0.01)
        # fluid upper-bounds the optimal value
        assert static.regret_vs_fluid >= static.regret_vs_dp - 1e-12

    def test_zero_noise_additive_all_zero_regret(self, zero_noise_model):
        reports = estimate_regret(zero_noise_model, [32], "round(5/16*T)",
                                  policies=("static", "resolving", "ho"),
                                  replications=50, base_seed=5)
        for r in reports:
            assert r.regret_vs_dp is None and r.dp_reason == "dp-requires-bernoulli"
            assert r.regret_vs_fluid == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("with_static", [False, True])
    def test_ho_rows_match_per_horizon_runs(self, additive_model, with_static):
        """The ho rows take every horizon's noise from one pass, with the bits of a
        ho_noise_means run per horizon; unsorted and repeated horizons included.
        The bits do not depend on which other rows share the run."""
        T_list, reps, base_seed = [256, 64, 256, 1024], 300, 7
        policies = ("static", "ho") if with_static else ("ho",)
        reports = estimate_regret(additive_model, T_list, "round(5/16*T)",
                                  policies=policies, replications=reps,
                                  base_seed=base_seed)
        ho = [r for r in reports if r.policy == "ho"]
        assert [r.T for r in ho] == T_list
        for report, T in zip(ho, T_list):
            y0 = round(5 * T / 16)
            xi_bar, = ho_noise_means(additive_model, [T], base_seed, reps)
            samples = ho_revenues(additive_model, T, y0, xi_bar)
            assert report.replications == reps
            assert (np.float64(report.value).tobytes(), np.float64(report.ci_half_width).tobytes()) \
                == (samples.mean().tobytes(),
                    np.float64(sim_module.ci_half_width(samples, 0.95)).tobytes())

    @pytest.mark.parametrize("c", ["5/16", "1/2"])
    def test_ho_rows_beat_static_and_meet_the_fluid_value(self, additive_model, c):
        """On the one stream of a default call the hindsight-best fixed price earns
        at least the static price on every replication, with scarce inventory
        (x_T = 5/16 < x_u) and ample (1/2 > x_u, where the sell-out rate is too
        high); with scarce inventory its mean is the fluid value within 3 SE."""
        T_list, reps, base_seed = [256, 1024], 4000, 3
        reports = estimate_regret(additive_model, T_list, f"round({c}*T)",
                                  policies=("static", "ho"), replications=reps,
                                  base_seed=base_seed)
        rows = {(r.T, r.policy): r for r in reports}
        for T, xi_bar in zip(T_list, ho_noise_means(additive_model, T_list, base_seed, reps)):
            y0 = parse_y0_rule(f"round({c}*T)")(T)
            ho = ho_revenues(additive_model, T, y0, xi_bar)
            static = simulate_batch(additive_model, static_policy(additive_model, y0 / T), T,
                                    y0, base_seed, reps).total_revenue
            assert (rows[T, "ho"].value, rows[T, "static"].value) == (ho.mean(), static.mean())
            assert np.all(ho >= static * (1.0 - 1e-12))
            if c == "5/16":
                se = ho.std(ddof=1) / math.sqrt(reps)
                assert abs(ho.mean() - rows[T, "ho"].fluid_value) <= 3.0 * se

    @pytest.mark.parametrize("T", [1, 64, 1024])
    @pytest.mark.parametrize("c", [0.2, 5 / 16, 3 / 8, 1 / 2])
    def test_static_closed_form_matches_the_forward_batch(self, additive_model, T, c):
        """The static row's closed form on the noise means of one pass is the
        revenue of a forward batch of the static policy on every replication, up
        to rounding, with x_T below d_lo, inside [d_lo, x_u], at x_u and above it;
        the hindsight-best fixed price earns at least as much."""
        reps, base_seed, y0 = 500, 9, c * T
        xi_bar, = ho_noise_means(additive_model, [T], base_seed, reps)
        policy = static_policy(additive_model, y0 / T)
        static = fixed_price_revenues(additive_model, T, y0, policy.lo, xi_bar)
        batch = simulate_batch(additive_model, policy, T, y0, base_seed, reps).total_revenue
        np.testing.assert_allclose(static, batch, rtol=1e-12, atol=0.0)
        assert np.all(ho_revenues(additive_model, T, y0, xi_bar) >= static * (1.0 - 1e-12))

    def test_one_noise_pass_and_one_forward_batch_per_resolving_row(self, additive_model,
                                                                    monkeypatch):
        """An additive run over k horizons calls the noise_sum kernel once for its
        static and ho rows and the forward kernel once per resolving row."""
        calls, original = [], kernels._map
        monkeypatch.setattr(kernels, "_map",
                            lambda fn, args: calls.append(fn.__name__) or original(fn, args))
        T_list = [32, 64, 128]
        estimate_regret(additive_model, T_list, "round(5/16*T)",
                        ("static", "resolving", "ho"), 200, 4)
        assert sorted(calls) == ["forward"] * len(T_list) + ["noise_sum"]

    def test_additive_mc_reports(self, additive_model):
        reports = estimate_regret(additive_model, [64], "round(5/16*T)",
                                  policies=("static", "resolving"),
                                  replications=4000, base_seed=11)
        for r in reports:
            assert r.ci_half_width > 0.0
            assert r.replications == 4000
            assert r.regret_vs_fluid == pytest.approx(r.fluid_value - r.value)

    def test_common_random_numbers_reduce_difference_variance(self, additive_model):
        T, y0, n = 64, 20, 2000
        static = static_policy(additive_model, y0 / T)
        resolving = resolving_policy(additive_model)
        paired_s = simulate_batch(additive_model, static, T, y0, base_seed=42, n_reps=n)
        paired_r = simulate_batch(additive_model, resolving, T, y0, base_seed=42, n_reps=n)
        indep_r = simulate_batch(additive_model, resolving, T, y0, base_seed=77, n_reps=n)
        var_crn = (paired_s.total_revenue - paired_r.total_revenue).var(ddof=1)
        var_indep = (paired_s.total_revenue - indep_r.total_revenue).var(ddof=1)
        assert var_crn < 0.5 * var_indep

    def test_parse_y0_rule(self):
        rule = parse_y0_rule("round(5/16*T)")
        assert rule(64) == 20 and rule(2**10) == 320
        assert parse_y0_rule("round(0.375*T)")(16) == 6
        with pytest.raises(DomainError):
            parse_y0_rule("floor(T/2)")
        for text in ("round(1/0*T)", "round(abc*T)", "round(*T)", "round(inf*T)"):
            with pytest.raises(DomainError, match="cannot parse y0 rule"):
                parse_y0_rule(text)

    def test_bernoulli_one_pass_per_static_rate(self, bernoulli_model, monkeypatch):
        T_list = [64, 128, 200, 256]  # 5/16 * 200 rounds to 62, another static rate
        reports = estimate_regret(bernoulli_model, T_list, "round(5/16*T)",
                                  policies=("static", "resolving", "dp"))
        for T in T_list:
            y0 = round(5 / 16 * T)
            built = {"static": static_policy(bernoulli_model, y0 / T),
                     "resolving": resolving_policy(bernoulli_model)}
            want = exact_policy_values(bernoulli_model, T, y0, built)
            assert {r.policy: r.value for r in reports if r.T == T} == want
        calls = []
        original = policies.exact_values
        monkeypatch.setattr(policies, "exact_values",
                            lambda *a: calls.append(a) or original(*a))
        estimate_regret(bernoulli_model, T_list, "round(5/16*T)")
        assert len(calls) == 2

    def test_exact_path_builds_each_policy_set_once_per_static_rate(self, bernoulli_model,
                                                                     monkeypatch):
        """The pass setup builds the policies of each static rate once, the report loop
        builds none, and bad names raise before any pass."""
        calls, original = [], sim_module._build_policies
        monkeypatch.setattr(sim_module, "_build_policies",
                            lambda *a: calls.append(a[1]) or original(*a))
        estimate_regret(bernoulli_model, [64, 128, 200, 256], "round(5/16*T)")
        assert calls == [20 / 64, 62 / 200]

        def no_pass(*args):
            raise AssertionError("a backward pass ran")

        monkeypatch.setattr(policies, "_fused_pass", no_pass)
        for names, error in ((("static", "greedy"), DomainError),
                             (("resolving", "ho"), UnsupportedModelError)):
            with pytest.raises(error):
                estimate_regret(bernoulli_model, [64, 200], "round(5/16*T)", policies=names)

    def test_bernoulli_cell_budget(self, bernoulli_model):
        with pytest.raises(ResourceGuardError):
            estimate_regret(bernoulli_model, [64, 2**17], "round(5/16*T)")

    def test_dp_row_on_exact_path(self, bernoulli_model):
        reports = estimate_regret(bernoulli_model, [64], "round(5/16*T)",
                                  policies=("dp", "resolving"))
        dp_row = next(r for r in reports if r.policy == "dp")
        assert dp_row.regret_vs_dp == 0.0
        assert dp_row.value == dp_row.dp_value

    def test_every_row_draws_from_the_base_seed_streams(self, additive_model, multi_model):
        """Replication i of every Monte Carlo row draws from the stream keyed by
        replication_seed(base_seed, i): each row has the bits of simulate_batch, or
        of fixed_price_revenues or ho_revenues on ho_noise_means, at base_seed.  A
        two-product row draws nothing: it has the bits of the exact re-solving
        value, oracles.resolving_multi, with no CI."""
        T_list, reps, base_seed = [32, 64], 500, 3

        def bits(report, samples):
            got = np.float64(report.value), np.float64(report.ci_half_width)
            want = samples.mean(), np.float64(sim_module.ci_half_width(samples, 0.95))
            return [v.tobytes() for v in got] == [v.tobytes() for v in want]

        reports = estimate_regret(additive_model, T_list, "round(5/16*T)",
                                  ("static", "resolving", "ho"), reps, base_seed)
        xi_bars = ho_noise_means(additive_model, T_list, base_seed, reps)
        for r in reports:
            y0, xi_bar = round(5 * r.T / 16), xi_bars[T_list.index(r.T)]
            if r.policy == "ho":
                samples = ho_revenues(additive_model, r.T, y0, xi_bar)
            elif r.policy == "static":
                samples = fixed_price_revenues(
                    additive_model, r.T, y0, static_policy(additive_model, y0 / r.T).lo, xi_bar)
            else:
                samples = simulate_batch(additive_model, resolving_policy(additive_model), r.T,
                                         y0, base_seed, reps).total_revenue
            assert bits(r, samples), r
        want = np.zeros((5, 9))
        oracles.resolving_multi(multi_model, 16, want)
        for r in estimate_regret(multi_model, [16], lambda T: [4, 8], ("resolving",), reps,
                                 base_seed):
            assert np.float64(r.value).tobytes() == want[4, 8].tobytes()
            assert (r.ci_half_width, r.replications) == (0.0, 0)

    @pytest.mark.parametrize("family, rule, names, error", [
        ("additive", "round(5/16*T)", ("static", "dp"), UnsupportedModelError),
        ("multi", ["round(1/4*T)", "round(1/2*T)"], ("static",), UnsupportedModelError),
        ("additive", ["round(1/4*T)", "round(1/2*T)"], ("static",), DomainError),
        ("multi", "round(1/4*T)", ("resolving",), DomainError),
        ("multi", [["round(1/4*T)"], "round(1/2*T)"], ("resolving",), DomainError),
        ("additive", "round(-1/4*T)", ("ho",), DomainError),
        ("additive", "round(-1/4*T)", ("static",), DomainError),
        ("additive", "round(0*T)", ("static", "resolving"), DomainError),
        ("multi", ["round(1/4*T)", "round(1/2*T)"], ("resolving",), ResourceGuardError),
        ("three", ["round(1/4*T)"] * 3, ("resolving", "dp"), UnsupportedModelError),
        ("multi", lambda T: [T / 4 + 0.5, T // 2], ("resolving",), DomainError)])
    def test_refused_before_any_kernel_call(self, family, rule, names, error, additive_model,
                                            multi_model, monkeypatch):
        """regret_points refuses a row the model's kind lacks, a rule that does not
        fit the model and a negative y0 before any kernel runs, and a static row
        refuses no stock before the noise pass: a dp row on additive demand ran
        every static batch first, a list rule on one product raised a bare
        TypeError, a nested list rule a bare ValueError, and a negative y0 ran the
        noise pass before ho_revenues refused it.  A two-product run whose lattice
        passes the work budget (4096 x 1025 x 2049 cells here) and one of three
        products are refused too: the one ran its Monte Carlo rows and dropped its
        dp rows, the other ran them all.  So is a fractional two-product y0, which
        the lattice would have cut to a whole one."""
        def no_kernel(*args):
            raise AssertionError("a kernel ran before the run was admitted")

        monkeypatch.setattr(kernels, "_map", no_kernel)
        model = {"additive": additive_model, "multi": multi_model,
                 "three": MultiDemandModel(g=[1.0] * 3, H=-2.0 * np.eye(3),
                                           box_hi=[1.0] * 3)}[family]
        with pytest.raises(error):
            estimate_regret(model, [64, 4096], rule, names, 20_000, 1)


def _concavity_pass(k):
    """The setup of the concavity sweep's k-th model: its re-solving row."""
    model = DemandModel.linear_bernoulli(alpha=0.3 + 0.2 * k, beta=0.3 + 0.2 * k, p_lo=0.0,
                                         p_hi=1.0)
    return model, {"resolving": resolving_policy(model)}


# one call per entry point past a budget, of bytes (the first five) or of kernel steps;
# each run of several passes or batches has a first one within the budgets
_PAST_THE_BUDGET = {
    "solve_dp": lambda b, a, m: solve_dp(b, 2**13, 2**14),  # two tables of 1.34e8 entries
    "exact_values": lambda b, a, m: exact_values(b, [(3, 10**12)]),  # 7.28 TiB of states
    "simulate": lambda b, a, m: simulate(a, static_policy(a, 0.3), 10**13, 1, 1),
    "simulate_multi": lambda b, a, m: simulate_multi(m, None, 10**13, [1, 1], 1),
    "simulate_batch": lambda b, a, m: simulate_batch(a, resolving_policy(a), 16, 5, 1, 10**13),
    "exact_values-cone": lambda b, a, m: exact_values(b, [(64, 20), (2**17, 2**16)]),
    "dp_value": lambda b, a, m: dp_value(b, 2**17, 2**16),
    "exact_passes": lambda b, a, m: exact_passes(
        [(k, 64, 6) for k in range(3)] + [(3, 2**18, 26214)], _concavity_pass),
    "estimate_regret-bernoulli": lambda b, a, m: estimate_regret(
        b, [64, 2**17], "round(1/3*T)", ("static", "resolving", "dp")),  # two passes
    "solve_dp_multi": lambda b, a, m: solve_dp_multi(m, 4096, [1000, 1000]),
    "multi_values": lambda b, a, m: multi_values(m, [(16, [2, 3]), (4096, [1000, 1000])],
                                                 ["dp", "resolving"]),
    "simulate_batch-periods": lambda b, a, m: simulate_batch(a, resolving_policy(a), 2**22, 5,
                                                             1, 2**10),
    "simulate_batch_multi": lambda b, a, m: simulate_batch_multi(m, 2**22, [2, 3], 1, 2**10),
    "ho_noise_means": lambda b, a, m: ho_noise_means(a, [16, 10**21], 1, 100),
    "estimate_regret-batches": lambda b, a, m: estimate_regret(
        a, [64, 2**22], "round(5/16*T)", ("resolving",), 2**10, 1),
    "estimate_regret-noise": lambda b, a, m: estimate_regret(
        a, [64, 2**22], "round(5/16*T)", ("static", "ho"), 2**10, 1),
}


@pytest.mark.parametrize("entry", list(_PAST_THE_BUDGET))
def test_a_call_past_the_budget_is_refused_first(entry, bernoulli_model, additive_model,
                                                 multi_model, monkeypatch):
    """Every entry point refuses a call past a budget (policies.admit) before any
    kernel call and any input-sized array, and a run of several passes or batches
    before its first: simulate_multi and exact_values raised numpy's MemoryError
    (72.8 and 7.28 TiB), and simulate, exact_values and the batches of a long
    horizon had no bound at all."""
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("a kernel ran before the call was admitted")

    monkeypatch.setattr(kernels, "_map", counted)
    monkeypatch.setattr(kernels, "_kernel", counted)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            _PAST_THE_BUDGET[entry](bernoulli_model, additive_model, multi_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 2**20, peak


class TestMultiSimulation:
    def test_trace_invariants(self, multi_model):
        pol = MultiResolvingPolicy(multi_model)
        tr = simulate_multi(multi_model, pol, 32, [8, 16], seed=3)
        # conservation per product
        np.testing.assert_allclose(tr.sales.sum(axis=0) + tr.inventory_after[-1],
                                   [8.0, 16.0], atol=1e-12)
        # rates never exceed normalized inventory
        y = np.array([8.0, 16.0])
        for i in range(32):
            t = 32 - i
            assert np.all(tr.demand_rates[i] <= y / t + 1e-9)
            y = tr.inventory_after[i]
        # revenue consistent with prices and sales
        np.testing.assert_allclose(tr.revenue,
                                   np.einsum("ij,ij->i", tr.prices, tr.sales), atol=1e-12)

    def test_batch_matches_single(self, multi_model):
        from fluidpricing.rng import replication_seed

        batch = simulate_batch_multi(multi_model, 16, [4, 8], base_seed=13, n_reps=4)
        pol = MultiResolvingPolicy(multi_model)
        for i in range(4):
            tr = simulate_multi(multi_model, pol, 16, [4, 8],
                                seed=int(replication_seed(13, i)))
            assert tr.total_revenue == pytest.approx(batch.total_revenue[i], abs=1e-12)

    def test_fractional_inventory_censors_sales(self, multi_model):
        # a fractional last unit sells only its fraction, as in the batch engine
        batch = simulate_batch_multi(multi_model, 8, [0.5, 1.5], base_seed=3, n_reps=4)
        pol = MultiResolvingPolicy(multi_model)
        for i in range(4):
            tr = simulate_multi(multi_model, pol, 8, [0.5, 1.5],
                                seed=int(rng.replication_seed(3, i)))
            assert tr.total_revenue == pytest.approx(batch.total_revenue[i], abs=1e-12)
            np.testing.assert_allclose(tr.sales.sum(axis=0) + tr.inventory_after[-1],
                                       [0.5, 1.5], atol=1e-12)

    def test_batch_mean_meets_the_exact_resolving_value(self):
        """simulate_batch_multi's mean lies within 4 standard errors of the exact
        value of the policy it simulates, at criterion 10's model and points."""
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]],
                                 box_hi=[1.0, 1.0])
        points = [(T, [T // 4, T // 2]) for T in (16, 32, 64)]
        for (T, y0), exact in zip(points, multi_values(model, points, ["resolving"])):
            revenue = simulate_batch_multi(model, T, y0, base_seed=2024,
                                           n_reps=20_000).total_revenue
            se = revenue.std(ddof=1) / math.sqrt(revenue.size)
            assert abs(revenue.mean() - exact["resolving"]) <= 4 * se, T

    def test_resolving_regret_vs_dp_carries_no_constant(self, multi_model):
        # the DP and the simulator earn the same per-period revenue, so the
        # regret stays O(1) rather than growing by a constant per period
        reports = estimate_regret(multi_model, [16], lambda T: [4, 8], ("resolving", "dp"),
                                  replications=4000, base_seed=2)
        resolving = next(r for r in reports if r.policy == "resolving")
        assert -4 * resolving.ci_half_width < resolving.regret_vs_dp < 0.2

    @pytest.mark.parametrize("n, T, seed", [(2, 16, 5), (5, 24, 2**40 + 3), (10, 12, 0),
                                            (20, 8, 77)])
    def test_one_draw_gives_the_per_period_draws_trace(self, n, T, seed, monkeypatch):
        model = random_multi_model(np.random.default_rng(n), n)
        y0 = np.floor(np.random.default_rng(n + 1).uniform(0.2, 0.5, size=n) * T)
        draws, uniforms = [], rng.uniforms
        with monkeypatch.context() as patched:
            patched.setattr(rng, "uniforms",
                            lambda key, counter: draws.append(np.size(counter)) or uniforms(key,
                                                                                        counter))
            got = simulate_multi(model, None, T, y0, seed)
        assert draws == [T * n]
        assert _same_multi_trace(got, oracles.simulate_multi(model, T, y0, seed))

    def test_seed_keys_the_stream_mod_two_to_the_64(self, multi_model):
        def run(seed):
            return simulate_multi(multi_model, None, 16, [4, 8], seed=seed)

        assert _same_multi_trace(run(-1), run(2**64 - 1))
        assert _same_multi_trace(run(2**64 + 5), run(5))
        assert _same_multi_trace(run(5), oracles.simulate_multi(multi_model, 16, [4, 8], 5))

    @pytest.mark.parametrize("case", ["static", "another model's"])
    def test_refuses_a_policy_that_does_not_resolve_the_model(self, case, multi_model,
                                                              bernoulli_model, monkeypatch):
        policy = (static_policy(bernoulli_model, 5 / 16) if case == "static" else
                  MultiResolvingPolicy(MultiDemandModel(g=multi_model.g, H=multi_model.H,
                                                        box_hi=[0.5, 0.5])))

        def period_one(*args):
            raise AssertionError("period 1 ran")

        monkeypatch.setattr(MultiResolvingPolicy, "decide", period_one)
        monkeypatch.setattr(rng, "uniforms", period_one)
        with pytest.raises(UnsupportedModelError, match="rate_law"):
            simulate_multi(multi_model, policy, 16, [4, 8], seed=1)

    def test_rejects_empty_horizon(self, multi_model):
        pol = MultiResolvingPolicy(multi_model)
        for T in (0, -3):
            with pytest.raises(DomainError):
                simulate_multi(multi_model, pol, T, [2, 4], seed=1)
            with pytest.raises(DomainError):
                simulate_multi(multi_model, None, T, [2, 4], seed=1)

    def test_one_engine_for_every_family(self, multi_model):
        pol = MultiResolvingPolicy(multi_model)
        direct = simulate_batch(multi_model, pol, 16, [4, 8], base_seed=13, n_reps=4)
        thin = simulate_batch_multi(multi_model, 16, [4, 8], base_seed=13, n_reps=4)
        assert direct.total_revenue.tobytes() == thin.total_revenue.tobytes()
        with pytest.raises(UnsupportedModelError):
            simulate_batch(multi_model, pol, 16, [4, 8], 13, 4, track_t_sharp=True)
        three = MultiDemandModel(g=[1.0, 1.0, 1.0], H=-2.0 * np.eye(3), box_hi=[1.0] * 3)
        with pytest.raises(UnsupportedModelError, match="n = 2"):
            simulate_batch_multi(three, 8, [2, 2, 2], base_seed=1, n_reps=3)


class TestConstantBound:
    def test_linear_model_reduction(self, bernoulli_model):
        consts = bernoulli_model.assumption_constants()
        x_T = 5 / 16
        gam = gamma(bernoulli_model, x_T)
        expected = (2 * (4.0 * consts.L * 1.0) ** 2 / 4.0
                    + 3 * 4.0 * 1.0
                    + (9 / 32) * (1 + 4 / gam**4))
        assert constant_bound(bernoulli_model, x_T) == pytest.approx(expected, rel=1e-12)

    def test_additive_drops_coupling_term(self, additive_model):
        x_T = 5 / 16
        w = additive_model.noise_half_width
        gam = gamma(additive_model, x_T)
        expected = 3 * 4.0 * w**2 + (9 / 32) * (1 + 4 * w**4 / gam**4)
        assert constant_bound(additive_model, x_T) == pytest.approx(expected, rel=1e-12)

    def test_dominates_observed_regret(self, bernoulli_model):
        assert constant_bound(bernoulli_model, 5 / 16) > 0.25

    def test_requires_interior_inventory(self, bernoulli_model):
        with pytest.raises(DomainError):
            constant_bound(bernoulli_model, 0.5)
        with pytest.raises(DomainError):
            constant_bound(bernoulli_model, 0.2)
