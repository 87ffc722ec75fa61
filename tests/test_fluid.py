import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidpricing import (
    DegeneracyWarning,
    DemandModel,
    DomainError,
    MultiDemandModel,
    SolverError,
    active_partition,
    cli,
    fluid_value,
    model_from_dict,
    partial_optimum,
    solve_fluid_multi,
    solve_fluid_single,
    validate_multi,
)
from fluidpricing import fluid
from fluidpricing.experiments import run_ho_compare
from fluidpricing.fluid import box_qp2_batch

import oracles
from conftest import random_multi_model


class TestSingle:
    def test_limited_inventory_active(self, bernoulli_model):
        sol = solve_fluid_single(bernoulli_model, 5 / 16)
        assert sol.x_c[0] == pytest.approx(5 / 16)
        assert sol.active_set == [0]
        assert sol.lam[0] == pytest.approx(0.25)  # r'(5/16)
        assert sol.objective == pytest.approx(35 / 128)
        assert not sol.clamped and not sol.degenerate

    def test_ample_inventory_inactive(self, bernoulli_model):
        sol = solve_fluid_single(bernoulli_model, 0.5)
        assert sol.x_c[0] == pytest.approx(3 / 8)
        assert sol.active_set == []
        assert sol.lam[0] == 0.0

    def test_boundary_flagged(self, bernoulli_model):
        with pytest.warns(DegeneracyWarning):
            sol = solve_fluid_single(bernoulli_model, bernoulli_model.x_u)
        assert sol.degenerate
        assert sol.x_c[0] == pytest.approx(3 / 8)

    def test_below_floor_clamped(self, bernoulli_model):
        sol = solve_fluid_single(bernoulli_model, 0.1)
        assert sol.clamped
        assert sol.x_c[0] == pytest.approx(bernoulli_model.d_lo)

    def test_negative_inventory_rejected(self, bernoulli_model):
        with pytest.raises(DomainError):
            solve_fluid_single(bernoulli_model, -0.2)


class TestRateCapInsideDemandInterval:
    """Priced above its revenue maximizer, the model's demand interval ends at
    d_hi = 0.35 below x_u = 0.375: every fluid rate stops at d_hi."""

    SPEC = {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5, "p_lo": 0.8, "p_hi": 1.0}

    def test_fluid_rule_and_value(self):
        model = model_from_dict(self.SPEC)
        assert model.d_hi == pytest.approx(0.35) and model.d_hi < model.x_u
        sol = solve_fluid_single(model, 0.5)
        assert sol.x_c[0] == model.d_hi and sol.active_set == [] and sol.lam[0] == 0.0
        assert sol.objective == model.revenue_rate(model.d_hi)
        assert fluid_value(model, 64, 32) == pytest.approx(17.92, abs=1e-12)
        # below d_lo the fluid value still extends r past the interval
        assert fluid_value(model, 64, 8) == 64 * model.revenue_rate_unchecked(0.125)

    def test_fluid_solve_cli(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.SPEC))
        assert cli.main(["fluid-solve", "--model", str(path), "--inventory", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["x_c"] == [0.35]

    def test_cap_at_the_demand_floor_keeps_the_dual_nonnegative(self):
        # priced below its revenue maximizer: d_lo = 0.5 above x_u = 0.375
        model = DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=0.5)
        assert solve_fluid_single(model, 0.6).x_c[0] == model.d_lo
        with pytest.warns(DegeneracyWarning):
            sol = solve_fluid_single(model, 0.3)
        assert sol.clamped and sol.x_c[0] == model.d_lo and sol.lam[0] == 0.0

    def test_hindsight_gap_without_noise_is_zero(self):
        model = DemandModel.linear_additive(0.75, 0.5, 0.8, 1.0, 0.0)
        row, = run_ho_compare(model, [64], 0.5, replications=8, base_seed=1)
        assert row["fluid_value"] == 64 * model.revenue_rate(model.d_hi)
        assert row["gap"] == pytest.approx(0.0, abs=1e-12)


class TestMulti:
    def test_interior_newton_point(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, 0.0], [0.0, -2.0]], box_hi=[1.0, 1.0])
        sol = solve_fluid_multi(model, np.array([10.0, 10.0]))
        np.testing.assert_allclose(sol.x_c, [0.5, 0.5], atol=1e-12)
        assert sol.active_set == []
        assert sol.changes == 0

    def test_released_bound_is_counted(self):
        # the Newton point (4.3, 3.7) clips to the corner (0.5, 1.0); product 2's
        # bound has a negative dual there and is released
        model = MultiDemandModel(g=[1.0, -0.2], H=[[-1.0, 0.9], [0.9, -1.0]], box_hi=[1.0, 1.0])
        sol = solve_fluid_multi(model, np.array([0.5, 1.0]))
        np.testing.assert_allclose(sol.x_c, [0.5, 0.25], atol=1e-12)
        assert sol.active_set == [0] and sol.changes >= 1
        # the count is not part of the solution's JSON
        assert list(sol.to_dict()) == ["x_c", "lambda", "active_set", "objective"]

    def test_one_constrained_product(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, 0.0], [0.0, -2.0]], box_hi=[1.0, 1.0])
        sol = solve_fluid_multi(model, np.array([0.2, 10.0]))
        np.testing.assert_allclose(sol.x_c, [0.2, 0.5], atol=1e-12)
        assert sol.active_set == [0]
        assert sol.lam[0] == pytest.approx(0.6)  # g_1 + (H x)_1 = 1 - 0.4

    def test_nan_inventory_rejected(self, multi_model, bernoulli_model):
        # the active set never settles on NaN bounds, so this used to hang
        with pytest.raises(DomainError):
            solve_fluid_multi(multi_model, np.array([np.nan, 1.0]))
        with pytest.raises(DomainError):
            solve_fluid_single(bernoulli_model, np.nan)

    def test_change_budget_overrun_is_a_solver_error(self):
        # a convex H: the stationary point x = 2 lies above the bound, which is
        # released and blocks the next step in turn, past the 2**1 + 10 budget
        model = MultiDemandModel(g=[-2.0], H=[[1.0]], box_hi=[1.0])
        with pytest.raises(SolverError, match="exceeded"):
            solve_fluid_multi(model, np.array([5.0]))

    def test_sixty_four_products(self):
        # more working-set changes than 2**0 + 10, the budget of a shift 1 << 64
        # that wrapped: the kernel clamps 2**n + 10 to a long instead
        rng = np.random.default_rng(1)
        model = random_multi_model(rng, 64)
        rhs = rng.uniform(0.0, 0.3, size=64)
        sol = solve_fluid_multi(model, rhs)
        assert sol.changes > 11
        ub = np.minimum(model.box_hi, rhs)
        np.testing.assert_allclose(sol.x_c, oracles._box_qp_max(model.H, model.g, np.zeros(64), ub),
                                   rtol=0.0, atol=1e-12)

    def test_singular_hessian_is_a_solver_error(self):
        for H in ([[-1.0, -1.0], [-1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]):
            model = MultiDemandModel(g=[1.0, 1.0], H=H, box_hi=[1.0, 1.0])
            with pytest.raises(SolverError, match="singular"):
                solve_fluid_multi(model, np.array([0.3, 0.3]))

    def test_zero_inventory(self, multi_model):
        sol = solve_fluid_multi(multi_model, np.zeros(2))
        np.testing.assert_allclose(sol.x_c, [0.0, 0.0], atol=1e-14)
        assert sol.active_set == [0, 1]
        assert sol.objective == pytest.approx(multi_model.revenue([0.0, 0.0]))

    def test_degenerate_dual_warns(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, 0.0], [0.0, -2.0]], box_hi=[1.0, 1.0])
        with pytest.warns(DegeneracyWarning):
            sol = solve_fluid_multi(model, np.array([0.5, 10.0]))
        assert sol.degenerate

    def test_kkt_residuals_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            model = random_multi_model(rng, n)
            rhs = rng.uniform(0.0, 1.2, size=n)
            sol = solve_fluid_multi(model, rhs)
            x = sol.x_c
            ub = np.minimum(model.box_hi, rhs)
            # primal feasibility
            assert np.all(x >= -1e-8) and np.all(x <= ub + 1e-8)
            # stationarity with bound multipliers, dual feasibility, slackness
            grad = model.revenue_grad(x)
            mu_up = np.where(x >= ub - 1e-9, np.maximum(grad, 0.0), 0.0)
            mu_lo = np.where(x <= 1e-9, np.maximum(-grad, 0.0), 0.0)
            residual = grad - mu_up + mu_lo
            assert np.linalg.norm(residual, ord=np.inf) <= 1e-8
            assert np.all(mu_up >= -1e-10) and np.all(mu_lo >= -1e-10)
            slack_up = np.abs(mu_up * (ub - x))
            slack_lo = np.abs(mu_lo * x)
            assert slack_up.max(initial=0.0) <= 1e-8
            assert slack_lo.max(initial=0.0) <= 1e-8

    def test_matches_dense_grid_oracle_n2(self):
        rng = np.random.default_rng(12)
        step = 1e-3
        for _ in range(5):
            model = random_multi_model(rng, 2)
            rhs = rng.uniform(0.05, 1.2, size=2)
            ub = np.minimum(model.box_hi, rhs)
            g1 = np.arange(0.0, ub[0] + step / 2, step)
            g2 = np.arange(0.0, ub[1] + step / 2, step)
            X1, X2 = np.meshgrid(g1, g2, indexing="ij")
            vals = (model.g[0] * X1 + model.g[1] * X2
                    + 0.5 * (model.H[0, 0] * X1**2 + model.H[1, 1] * X2**2)
                    + model.H[0, 1] * X1 * X2)
            best = np.unravel_index(np.argmax(vals), vals.shape)
            sol = solve_fluid_multi(model, rhs)
            assert abs(sol.x_c[0] - g1[best[0]]) <= 2e-3
            assert abs(sol.x_c[1] - g2[best[1]]) <= 2e-3

    def test_monotone_right_hand_side(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            model = random_multi_model(rng, n)
            lo = rng.uniform(0.0, 0.8, size=n)
            hi = lo + rng.uniform(0.0, 0.4, size=n)
            assert (solve_fluid_multi(model, hi).objective
                    >= solve_fluid_multi(model, lo).objective - 1e-12)

    def test_region_consistency_under_raising_unconstrained(self):
        rng = np.random.default_rng(14)
        done = 0
        while done < 30:
            n = int(rng.integers(2, 5))
            model = random_multi_model(rng, n)
            rhs = rng.uniform(0.05, 1.0, size=n)
            sol = solve_fluid_multi(model, rhs)
            I = sol.active_set
            U = [k for k in range(n) if k not in I]
            if not U or sol.degenerate:
                continue
            margins = np.array([rhs[k] - sol.x_c[k] for k in U])
            if margins.min() < 1e-3 or (I and min(sol.lam[k] for k in I) < 1e-3):
                continue
            rhs2 = rhs.copy()
            for k in U:
                rhs2[k] += rng.uniform(0.0, 1.0)
            sol2 = solve_fluid_multi(model, rhs2)
            assert sol2.active_set == I
            done += 1


@st.composite
def _box_qp_instances(draw):
    """A random model with n = 1..20 and a box whose coordinates are free
    (0 <= x <= u), zero (u = 0) or pinned (l = u), with the pinned list.  The
    products' units are scaled by up to 10 either way, so that an entry below
    the diagonal can outweigh it and the elimination pivots."""
    n = draw(st.integers(1, 20))
    base = random_multi_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    scale = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    model = MultiDemandModel(g=scale * base.g, H=scale[:, None] * base.H * scale,
                             box_hi=base.box_hi)
    kinds = draw(st.lists(st.sampled_from(["free", "zero", "pinned"]), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.0, 1.2), min_size=n, max_size=n))
    lb, ub = np.zeros(n), np.minimum(model.box_hi, values)
    pinned = np.array([kind == "pinned" for kind in kinds])
    ub[[kind == "zero" for kind in kinds]] = 0.0
    lb[pinned] = ub[pinned]
    return model, lb, ub, pinned


class TestBoxQpKernel:
    @settings(max_examples=150, deadline=None)
    @given(_box_qp_instances())
    def test_matches_scalar_twin_bitwise(self, instance):
        model, lb, ub, _ = instance
        x, grad, value, changes = fluid._box_qp(model, lb, ub)
        want_x, want_grad, want_value, want_changes = oracles.box_qp_max(model.H, model.g, lb, ub)
        assert x.tobytes() == want_x.tobytes() and grad.tobytes() == want_grad.tobytes()
        assert value == want_value and changes == want_changes

    @settings(max_examples=150, deadline=None)
    @given(_box_qp_instances())
    def test_agrees_with_the_lapack_active_set(self, instance):
        model, lb, ub, pinned = instance
        x, grad, value, _ = fluid._box_qp(model, lb, ub)
        np.testing.assert_allclose(x, oracles._box_qp_max(model.H, model.g, lb, ub, fixed=pinned),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(grad, model.revenue_grad(x), rtol=0.0, atol=1e-12)
        assert value == pytest.approx(model.revenue(x), rel=0.0, abs=1e-12)


class TestPartialOptimum:
    def test_full_index_set(self, multi_model):
        po = partial_optimum(multi_model, [0, 1], [0.2, 0.3])
        assert po.value == pytest.approx(multi_model.revenue([0.2, 0.3]))
        np.testing.assert_allclose(po.hess, multi_model.H)
        np.testing.assert_allclose(po.grad, multi_model.revenue_grad([0.2, 0.3]))

    def test_empty_index_set(self, multi_model):
        po = partial_optimum(multi_model, [], [])
        x_u = multi_model.unconstrained_optimum()
        assert po.value == pytest.approx(multi_model.revenue(x_u))
        assert po.grad.shape == (0,)
        assert po.hess.shape == (0, 0)

    def test_schur_complement_value(self, multi_model):
        po = partial_optimum(multi_model, [0], [0.2])
        # H_II - H_IU H_UU^{-1} H_UI = -2 - 0.25 / (-2)
        assert po.hess[0, 0] == pytest.approx(-1.875)
        assert po.full_solution[1] == pytest.approx((1 - 0.5 * 0.2) / 2.0)
        assert po.grad[0] == pytest.approx(
            float(multi_model.revenue_grad(po.full_solution)[0]))

    def test_infeasible_z_rejected(self, multi_model):
        with pytest.raises(DomainError):
            partial_optimum(multi_model, [0], [1.5])

    def test_envelope_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        h = 1e-4
        for _ in range(20):
            n = int(rng.integers(2, 6))
            model = random_multi_model(rng, n)
            k = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=k, replace=False).tolist())
            z = rng.uniform(0.2, 0.8, size=k)
            po = partial_optimum(model, I, z)
            for j in range(k):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd = (partial_optimum(model, I, zp).value
                      - partial_optimum(model, I, zm).value) / (2 * h)
                denom = max(1.0, abs(po.grad[j]))
                assert abs(fd - po.grad[j]) / denom < 1e-5

    def test_schur_hessian_matches_finite_differences_and_curvature(self):
        rng = np.random.default_rng(16)
        h = 1e-4
        for _ in range(20):
            n = int(rng.integers(2, 6))
            model = random_multi_model(rng, n)
            m_prime = validate_multi(model).m_prime
            k = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=k, replace=False).tolist())
            z = rng.uniform(0.2, 0.8, size=k)
            po = partial_optimum(model, I, z)
            for j in range(k):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd_col = (partial_optimum(model, I, zp).grad
                          - partial_optimum(model, I, zm).grad) / (2 * h)
                denom = np.maximum(1.0, np.abs(po.hess[:, j]))
                assert np.max(np.abs(fd_col - po.hess[:, j]) / denom) < 1e-4
            eigs = np.linalg.eigvalsh(po.hess)
            assert eigs.max() <= -m_prime * (1 - 1e-6)

    def test_solution_map_is_lipschitz(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            model = random_multi_model(rng, n)
            k = int(rng.integers(1, n))
            I = sorted(rng.choice(n, size=k, replace=False).tolist())
            z1 = rng.uniform(0.25, 0.75, size=k)
            z2 = z1 + rng.uniform(-0.05, 0.05, size=k)
            z2 = np.clip(z2, 0.0, 1.0)
            p1 = partial_optimum(model, I, z1)
            p2 = partial_optimum(model, I, z2)
            lhs = np.linalg.norm(p1.full_solution - p2.full_solution)
            rhs = p1.lipschitz_z * np.linalg.norm(z1 - z2)
            assert lhs <= rhs * (1 + 1e-6) + 1e-12


class TestActivePartition:
    def test_interior_empty(self, multi_model):
        I, U = active_partition(multi_model, np.array([10.0, 10.0]))
        assert I == [] and U == [0, 1]

    def test_zero_all_constrained(self, multi_model):
        I, U = active_partition(multi_model, np.zeros(2))
        assert I == [0, 1] and U == []

    def test_single_constrained(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, 0.0], [0.0, -2.0]], box_hi=[1.0, 1.0])
        I, U = active_partition(model, np.array([0.2, 10.0]))
        assert I == [0] and U == [1]


def test_box_qp2_batch_matches_general_solver():
    rng = np.random.default_rng(18)
    for _ in range(200):
        model = random_multi_model(rng, 2)
        rhs = rng.uniform(0.0, 1.2, size=2)
        ub = np.minimum(model.box_hi, rhs)
        x1, x2, _ = box_qp2_batch(model.H[0, 0], model.H[1, 1], model.H[0, 1],
                                  model.g[0], model.g[1], ub[0], ub[1])
        sol = solve_fluid_multi(model, rhs)
        np.testing.assert_allclose([float(x1), float(x2)], sol.x_c, atol=1e-9)
