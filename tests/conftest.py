import numpy as np
import pytest
from hypothesis import assume, strategies as st

from fluidpricing import DemandModel, MultiDemandModel, benchmark_model, validate_multi


@pytest.fixture(scope="session")
def bernoulli_model() -> DemandModel:
    return benchmark_model()


@pytest.fixture(scope="session")
def additive_model() -> DemandModel:
    return DemandModel.linear_additive(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0,
                                       noise_half_width=0.1)


@pytest.fixture(scope="session")
def multi_model() -> MultiDemandModel:
    return MultiDemandModel(g=[1.0, 1.0], H=[[-2.0, -0.5], [-0.5, -2.0]], box_hi=[1.0, 1.0])


def random_multi_model(rng: np.random.Generator, n: int) -> MultiDemandModel:
    """Random strictly concave quadratic instance with an interior optimum."""
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    H = -(A @ A.T + (0.5 + rng.random()) * np.eye(n))
    box_hi = np.ones(n)
    # pick g so the unconstrained optimum sits strictly inside the box
    target = 0.15 + 0.6 * rng.random(n)
    g = -H @ target
    return MultiDemandModel(g=g, H=H, box_hi=box_hi)


@st.composite
def two_product_models(draw) -> MultiDemandModel:
    """Validated two-product models with box_hi on both sides of 1 (up to its tolerance)."""
    d1, d2 = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    h12 = draw(st.floats(-0.9, 0.9)) * (d1 * d2) ** 0.5
    box_hi = [draw(st.one_of(st.floats(0.3, 1.0), st.floats(1.0, 1.0 + 9e-13)))
              for _ in range(2)]
    # g puts the unconstrained optimum at target, inside the box
    target = np.array([draw(st.floats(0.05, 0.95)) * hi for hi in box_hi])
    H = np.array([[-d1, h12], [h12, -d2]])
    model = MultiDemandModel(g=-H @ target, H=H, box_hi=box_hi)
    assume(validate_multi(model).ok)
    return model
