import json

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from fluidpricing import (
    ConfigError,
    DemandModel,
    DomainError,
    ModelValidationError,
    MultiDemandModel,
    model_from_dict,
    resolving_policy,
    simulate,
    simulate_batch,
    static_policy,
    validate_multi,
)
from fluidpricing import cli


def test_demand_at_known_points(bernoulli_model):
    assert bernoulli_model.demand_at(7 / 8) == pytest.approx(5 / 16, abs=1e-15)
    assert bernoulli_model.demand_at(3 / 4) == pytest.approx(3 / 8, abs=1e-15)
    assert bernoulli_model.demand_at(bernoulli_model.p_lo) == pytest.approx(
        bernoulli_model.d_hi, abs=1e-15)


def test_demand_at_rejects_out_of_interval(bernoulli_model):
    with pytest.raises(DomainError):
        bernoulli_model.demand_at(1.5)
    with pytest.raises(DomainError):
        bernoulli_model.demand_at(-0.1)


def test_inverse_demand_known_points(bernoulli_model):
    assert bernoulli_model.inverse_demand(5 / 16) == pytest.approx(7 / 8, abs=1e-15)
    assert bernoulli_model.inverse_demand(bernoulli_model.d_hi) == pytest.approx(
        bernoulli_model.p_lo, abs=1e-15)
    with pytest.raises(DomainError):
        bernoulli_model.inverse_demand(0.9)


def test_inverse_round_trip(bernoulli_model):
    rng = np.random.default_rng(0)
    d = rng.uniform(bernoulli_model.d_lo, bernoulli_model.d_hi, size=1000)
    for di in d:
        assert abs(bernoulli_model.demand_at(bernoulli_model.inverse_demand(di)) - di) < 1e-12


def test_revenue_rate_values(bernoulli_model):
    assert bernoulli_model.revenue_rate(3 / 8) == pytest.approx(9 / 32, abs=1e-15)
    assert bernoulli_model.revenue_rate(5 / 16) == pytest.approx(35 / 128, abs=1e-15)
    with pytest.raises(DomainError):
        bernoulli_model.revenue_rate(0.1)


def test_revenue_argmax_by_grid(bernoulli_model):
    # grid maximization confirms 3/8 maximizes the revenue curve
    d = np.linspace(bernoulli_model.d_lo, bernoulli_model.d_hi, 200001)
    r = bernoulli_model.revenue_rate_unchecked(d)
    assert abs(d[np.argmax(r)] - 3 / 8) < 5e-6
    assert r.max() <= bernoulli_model.revenue_rate(3 / 8) + 1e-12


def test_revenue_vanishes_at_zero_demand():
    model = DemandModel.linear_bernoulli(alpha=0.5, beta=0.5, p_lo=0.0, p_hi=1.0)
    assert model.revenue_rate(1e-12) == pytest.approx(0.0, abs=1e-11)


def test_revenue_concavity_second_difference(bernoulli_model):
    m = 2.0 / bernoulli_model.beta
    rng = np.random.default_rng(1)
    for _ in range(200):
        h = rng.uniform(1e-4, 0.05)
        d2 = rng.uniform(bernoulli_model.d_lo + h, bernoulli_model.d_hi - h)
        second = (bernoulli_model.revenue_rate(d2 - h)
                  - 2 * bernoulli_model.revenue_rate(d2)
                  + bernoulli_model.revenue_rate(d2 + h))
        assert second <= -m * h * h * (1 - 1e-9)


class TestNoise:
    """The noise xi = realized - rate that the simulator draws."""

    def test_bernoulli_support_is_two_points(self, bernoulli_model):
        # a bernoulli sale is 0 or 1, so the noise is 1 - d or -d
        pol = resolving_policy(bernoulli_model)
        for seed in range(10):
            tr = simulate(bernoulli_model, pol, 128, 40, seed=seed)
            active = ~np.isinf(tr.price)
            d, xi = tr.demand_rate[active], tr.xi[active]
            assert np.all((xi == 1.0 - d) | (xi == -d))
            assert np.any(xi == 1.0 - d) and np.any(xi == -d)

    def test_noise_centering_monte_carlo(self, bernoulli_model, additive_model):
        # the mean per-replication noise sum is within 4 standard errors of 0
        n, T = 4000, 128
        for model in (bernoulli_model, additive_model):
            batch = simulate_batch(model, static_policy(model, 5 / 16), T, 40, 3, n)
            assert abs(batch.sum_xi.mean()) < 4.0 * model.noise_bound() * np.sqrt(T / n)

    def test_noise_bound_holds_exactly(self, bernoulli_model, additive_model):
        for model in (bernoulli_model, additive_model):
            pol = resolving_policy(model)
            for seed in range(10):
                tr = simulate(model, pol, 128, 40, seed=seed)
                assert np.all(np.abs(tr.xi) <= model.noise_bound())
        assert additive_model.noise_bound() == 0.1
        assert bernoulli_model.noise_bound() == 1.0


class TestAssumptionConstants:
    def test_linear_bernoulli_constants(self, bernoulli_model):
        c = bernoulli_model.assumption_constants()
        assert c.m == pytest.approx(4.0)
        assert c.M == 0.0
        # |r'| at the demand endpoints: r'(1/4) = 1/2, r'(3/4) = -3/2
        assert c.C == pytest.approx(1.5)
        assert c.B_xi == 1.0
        # the least of q (1 - q) over [1/4, 3/4], at both ends
        assert c.sigma_sq == pytest.approx(3 / 16, abs=1e-12)
        assert c.L == 2.0  # the supremum of W1 / delta = 2 (1 - delta)

    def test_additive_constants(self, additive_model):
        c = additive_model.assumption_constants()
        assert c.L == 0.0
        assert c.B_xi == pytest.approx(0.1)
        assert c.sigma_sq == pytest.approx(0.1**2 / 3)


@st.composite
def _bernoulli_models(draw):
    """Bernoulli models on any price range, so x_u lies below, inside or above [d_lo, d_hi]."""
    alpha, beta = draw(st.floats(0.05, 1.0 + 9e-13)), draw(st.floats(0.05, 5.0))
    p_lo, p_hi = sorted(draw(st.floats(0.0, alpha / beta)) for _ in range(2))
    assume(p_lo < p_hi)
    try:
        return DemandModel.linear_bernoulli(alpha, beta, p_lo, p_hi)
    except ModelValidationError:  # a rate just outside [0, 1], or a range lost to rounding
        assume(False)


def _bernoulli_noise_w1(q1: float, q2: float) -> float:
    """W1 between the centred noises sale - q of two rates: the integral of |F1 - F2|."""
    def cdf(q, x):
        return 0.0 if x < -q else (1.0 - q if x < 1.0 - q else 1.0)
    points = sorted({-q1, 1.0 - q1, -q2, 1.0 - q2})
    return sum((b - a) * abs(cdf(q1, a) - cdf(q2, a)) for a, b in zip(points, points[1:]))


@given(model=_bernoulli_models(), share=st.floats(0.0, 1.0))
def test_bernoulli_constants_in_closed_form(model, share):
    c = model.assumption_constants()
    d_lo, d_hi = model.alpha - model.beta * model.p_hi, model.alpha - model.beta * model.p_lo
    assert c.sigma_sq == min(d_lo * (1.0 - d_lo), d_hi * (1.0 - d_hi))
    # q (1 - q) is concave, so no rate inside the range has a smaller variance
    q = np.linspace(d_lo, d_hi, 1001)
    assert c.sigma_sq <= np.min(q * (1.0 - q)) + 1e-15
    # W1 = 2 delta (1 - delta) <= L delta for every pair of rates delta apart
    assert c.L == 2.0
    q2 = d_lo + share * (d_hi - d_lo)
    w1 = _bernoulli_noise_w1(d_lo, q2)
    assert w1 == pytest.approx(2.0 * (q2 - d_lo) * (1.0 - (q2 - d_lo)), abs=1e-12)
    assert w1 <= c.L * (q2 - d_lo) + 1e-12
    assert model.rate_cap == min(max(model.alpha / 2.0, d_lo), d_hi)


def test_validate_model_prints_the_closed_form_constants(tmp_path, capsys):
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps(DemandModel.linear_bernoulli(0.75, 0.5, 0.0, 1.0).to_dict()))
    assert cli.main(["validate-model", "--model", str(path)]) == 0
    consts = json.loads(capsys.readouterr().out)["constants"]
    assert consts["L"] == 2.0 and consts["sigma_sq"] == 0.1875


class TestMultiValidation:
    def test_identity_hessian(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, 0.0], [0.0, -2.0]], box_hi=[1.0, 1.0])
        report = validate_multi(model)
        assert report.ok
        assert report.m_prime == pytest.approx(2.0)

    def test_scaled_identity_m_prime_one(self):
        model = MultiDemandModel(g=[0.5, 0.5], H=[[-1.0, 0.0], [0.0, -1.0]], box_hi=[1.0, 1.0])
        report = validate_multi(model)
        assert report.ok and report.m_prime == pytest.approx(1.0)

    def test_zero_eigenvalue_flagged(self):
        model = MultiDemandModel(g=[1.0, 1.0], H=[[-1.0, 1.0], [1.0, -1.0]], box_hi=[1.0, 1.0])
        report = validate_multi(model)
        assert not report.ok
        assert any("negative definite" in v for v in report.violations)

    def test_non_finite_entries_are_refused(self):
        good = {"g": [1.0, 1.0], "H": [[-2.0, -0.5], [-0.5, -2.0]], "box_hi": [1.0, 1.0]}
        for name, bad in (("g", [np.nan, 1.0]), ("H", [[-2.0, np.nan], [np.nan, -2.0]]),
                          ("H", [[-np.inf, 0.0], [0.0, -2.0]]), ("box_hi", [1.0, np.inf])):
            with pytest.raises(ModelValidationError, match=f"{name} has non-finite entries"):
                MultiDemandModel(**{**good, name: bad})

    def test_zero_products_are_refused(self):
        # the compiled solver needs at least one product; an empty model used to
        # fail only later, inside a solve or a trace
        with pytest.raises(ModelValidationError, match="at least one product"):
            MultiDemandModel(g=np.zeros(0), H=np.zeros((0, 0)), box_hi=np.zeros(0))

    def test_correlated_hessian_m_prime(self, multi_model):
        report = validate_multi(multi_model)
        assert report.ok
        assert report.m_prime == pytest.approx(1.5)  # eigenvalues -1.5 and -2.5
        assert report.spectral_norm == pytest.approx(2.5)


def test_price_interval_invariants():
    with pytest.raises(ModelValidationError, match="price interval empty"):
        DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=1.0, p_hi=0.5)
    # the rates are derived from the prices, so d_lo > d_hi takes beta <= 0; and a
    # beta * (p_hi - p_lo) below half an ulp of alpha leaves d_lo == d_hi
    with pytest.raises(ModelValidationError, match="demand interval empty"):
        DemandModel.linear_bernoulli(alpha=0.75, beta=-0.5, p_lo=0.0, p_hi=1.0)
    with pytest.raises(ModelValidationError, match="demand interval empty"):
        DemandModel.linear_bernoulli(alpha=0.5, beta=1e-20, p_lo=0.0, p_hi=1.0)


def test_model_validation_errors():
    with pytest.raises(ModelValidationError):
        DemandModel.linear_bernoulli(alpha=2.0, beta=0.5, p_lo=0.0, p_hi=1.0)  # rate > 1
    with pytest.raises(ModelValidationError):
        DemandModel.linear_bernoulli(alpha=0.75, beta=-0.5, p_lo=0.0, p_hi=1.0)
    with pytest.raises(ModelValidationError):
        DemandModel(kind="linear-additive", alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0)  # no width
    # a width would be ignored: bernoulli noise is the unit sale itself
    with pytest.raises(ModelValidationError, match="takes no noise_half_width"):
        DemandModel("linear-bernoulli", 0.75, 0.5, 0.0, 1.0, noise_half_width=0.3)


def test_additive_noise_must_not_make_demand_negative():
    # d_lo = 0 < w = 0.2: a static price at the demand floor could sell -0.2 units
    with pytest.raises(ModelValidationError, match="demand must stay >= 0"):
        DemandModel.linear_additive(alpha=0.5, beta=0.5, p_lo=0.0, p_hi=1.0,
                                    noise_half_width=0.2)
    # d_lo = 0.7 - 0.5 rounds just below w = 0.2 and is still admitted
    DemandModel.linear_additive(alpha=0.7, beta=0.5, p_lo=0.0, p_hi=1.0, noise_half_width=0.2)
    # a NaN width fails every comparison, so it must not pass as in range
    with pytest.raises(ModelValidationError, match="demand must stay >= 0"):
        model_from_dict({"kind": "linear-additive", "alpha": 0.75, "beta": 0.5, "p_lo": 0.0,
                         "p_hi": 1.0, "noise_half_width": float("nan")})


def test_model_from_dict_missing_or_mistyped_fields():
    for obj in ({"kind": "linear-bernoulli", "alpha": 0.75},
                {"kind": "linear-bernoulli", "alpha": "x", "beta": 0.5, "p_lo": 0.0, "p_hi": 1.0},
                {"kind": "multi-quadratic", "g": "abc", "H": [[-1.0]], "box_hi": [1.0]},
                # an integer too large for a float used to end in an OverflowError
                {"kind": "linear-bernoulli", "alpha": 10**400, "beta": 0.5, "p_lo": 0.0,
                 "p_hi": 1.0},
                ["linear-bernoulli"]):
        with pytest.raises(ConfigError):
            model_from_dict(obj)


_SINGLE_SPECS = {
    "linear-bernoulli": {"kind": "linear-bernoulli", "alpha": 0.75, "beta": 0.5, "p_lo": 0.0,
                         "p_hi": 1.0},
    "linear-additive": {"kind": "linear-additive", "alpha": 0.75, "beta": 0.5, "p_lo": 0.0,
                        "p_hi": 1.0, "noise_half_width": 0.1},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind,field", [(kind, field) for kind, spec in _SINGLE_SPECS.items()
                                        for field in spec if field != "kind"])
def test_non_finite_parameters_are_refused(kind, field, value, tmp_path, capsys):
    # a p_lo of -1e400, parsed as -inf, used to validate with C = inf and fluid-solve ran on it
    obj = {**_SINGLE_SPECS[kind], field: value}
    with pytest.raises(ModelValidationError, match=f"{field} is not finite"):
        model_from_dict(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate-model", "--model", str(path)]) == 3
    assert cli.main(["fluid-solve", "--model", str(path), "--inventory", "0.3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count(f"{field} is not finite") == 2


def test_model_from_dict_refuses_keys_its_kind_does_not_take(multi_model, tmp_path, capsys):
    bern, add = _SINGLE_SPECS["linear-bernoulli"], _SINGLE_SPECS["linear-additive"]
    multi = multi_model.to_dict()
    for obj in ({**bern, "noise_half_width": 0.1}, {**bern, "alhpa": 0.75},
                {**add, "c": 0.0}, {**multi, "alpha": 0.75}):
        with pytest.raises(ConfigError, match="unknown keys"):
            model_from_dict(obj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**bern, "noise_half_width": 0.1}))
    assert cli.main(["validate-model", "--model", str(path)]) == 2
    assert "unknown keys ['noise_half_width']" in capsys.readouterr().err


def test_json_round_trip(bernoulli_model, additive_model, multi_model):
    for model in (bernoulli_model, additive_model, multi_model):
        again = model_from_dict(json.loads(json.dumps(model.to_dict())))
        assert again.to_dict() == model.to_dict()
    assert set(multi_model.to_dict()) == {"kind", "g", "H", "box_hi"}
    with pytest.raises(ModelValidationError):
        model_from_dict({"kind": "nope"})


def test_multi_constant_revenue_term_is_refused(multi_model):
    # the simulator earns prices times sales only, so a constant c would put
    # T * c between the DP value and every simulated policy
    obj = multi_model.to_dict()
    for c in (1.0, -0.5, float("nan")):
        with pytest.raises(ModelValidationError, match="c must be 0"):
            model_from_dict({**obj, "c": c})
    for c in (0, 0.0, -0.0):
        assert model_from_dict({**obj, "c": c}).to_dict() == multi_model.to_dict()
    with pytest.raises(ConfigError):
        model_from_dict({**obj, "c": "one"})


def test_multi_price_of_rate_batches_row_by_row():
    # H is not symmetric here, so x @ H would transpose the price law
    model = MultiDemandModel(g=[1.0, 0.8, 1.2], H=[[-2.0, -0.6, 0.1], [-0.2, -1.5, 0.0],
                                                  [0.3, -0.4, -1.8]], box_hi=[1.0, 1.0, 1.0])
    x = np.random.default_rng(3).random((5, 3))
    batch = model.price_of_rate(x)
    assert batch.shape == (5, 3)
    for row, prices in zip(x, batch):
        np.testing.assert_allclose(prices, model.g + 0.5 * (model.H @ row), rtol=0, atol=1e-15)
        assert model.price_of_rate(row).tobytes() == prices.tobytes()


def test_multi_batch_price_law_is_an_explicit_sum():
    # H12 * x2 and the other products are inexact here, so a fused multiply-add
    # (as in some BLAS kernels) would move the last bits of the batch rows
    model = MultiDemandModel(g=[1.2, 0.9], H=[[-1.3, -0.37], [-0.37, -1.7]], box_hi=[1.0, 1.0])
    x = np.random.default_rng(5).random((64, 2))
    batch = model.price_of_rate(x)
    H, g = model.H.tolist(), model.g.tolist()
    want = [[g[j] + 0.5 * (x1 * H[j][0] + x2 * H[j][1]) for j in range(2)]
            for x1, x2 in x.tolist()]
    assert batch.tobytes() == np.array(want).tobytes()
    assert model.price_of_rate(x[None]).tobytes() == batch[None].tobytes()


def test_multi_single_price_is_the_batch_row():
    # one code path: a (2,) rate prices as its row of the batch, to the last bit
    model = MultiDemandModel(g=[1.2, 0.9], H=[[-1.3, -0.37], [-0.37, -1.7]], box_hi=[1.0, 1.0])
    x = np.random.default_rng(11).random((2000, 2))
    batch = model.price_of_rate(x)
    single = np.array([model.price_of_rate(row) for row in x])
    assert single.tobytes() == batch.tobytes()
