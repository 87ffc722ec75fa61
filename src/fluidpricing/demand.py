"""Demand model families and their analytic structure.

Two single-product families share a linear demand curve f(p) = alpha - beta*p
and differ in the noise attached to realized demand:

* ``linear-bernoulli``: demand is a unit sale with probability f(p); the
  noise is sale - f(p), so its distribution depends on the posted price.
* ``linear-additive``: demand is f(p) plus an independent uniform noise on
  [-w, +w], the same at every price.

The multi-product family specifies mean revenue directly as a strictly
concave quadratic of the demand-rate vector, with per-product unit sales
as the stochastic counterpart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ModelValidationError

KIND_BERNOULLI = "linear-bernoulli"
KIND_ADDITIVE = "linear-additive"
KIND_MULTI = "multi-quadratic"

_GRID_STEP = 1e-3  # of the price grid of assumption_constants
_TOL = 1e-12  # the slack of contains_price and contains_demand
_MIN_CURVATURE = 1e-10  # the least curvature validate_multi asks of -H


@dataclass(frozen=True)
class PriceInterval:
    """Admissible price range and the demand-rate range it maps onto.

    ``d_hi`` corresponds to ``p_lo`` and ``d_lo`` to ``p_hi``: demand is
    decreasing in price.
    """

    p_lo: float
    p_hi: float
    d_lo: float
    d_hi: float

    def __post_init__(self):
        if not self.p_lo < self.p_hi:
            raise ModelValidationError([f"price interval empty: p_lo={self.p_lo} >= p_hi={self.p_hi}"])
        if not self.d_lo < self.d_hi:
            raise ModelValidationError([f"demand interval empty: d_lo={self.d_lo} >= d_hi={self.d_hi}"])

    def contains_price(self, p: float) -> bool:
        return self.p_lo - _TOL <= p <= self.p_hi + _TOL

    def contains_demand(self, d: float) -> bool:
        return self.d_lo - _TOL <= d <= self.d_hi + _TOL


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants of the regularity assumptions, exact where the model allows.

    m: lower bound on -r''(d); M: bound on |r'''(d)|; C: Lipschitz constant
    of r; B_xi: almost-sure noise bound; L: noise Wasserstein constant per
    unit demand shift; sigma_sq: lower bound on the noise variance.
    """

    m: float
    M: float
    C: float
    B_xi: float
    L: float
    sigma_sq: float


@dataclass(frozen=True)
class DemandModel:
    """Linear single-product demand model: f(p) = alpha - beta * p."""

    kind: str
    alpha: float
    beta: float
    interval: PriceInterval
    noise_half_width: float | None = None

    def __post_init__(self):
        violations = []
        if self.kind not in (KIND_BERNOULLI, KIND_ADDITIVE):
            violations.append(f"unknown kind {self.kind!r}")
        if self.beta <= 0:
            violations.append("beta must be positive (demand strictly decreasing in price)")
        else:
            iv = self.interval
            if abs((self.alpha - self.beta * iv.p_hi) - iv.d_lo) > 1e-9:
                violations.append("interval d_lo inconsistent with alpha - beta * p_hi")
            if abs((self.alpha - self.beta * iv.p_lo) - iv.d_hi) > 1e-9:
                violations.append("interval d_hi inconsistent with alpha - beta * p_lo")
            if self.kind == KIND_BERNOULLI and (iv.d_lo < -1e-12 or iv.d_hi > 1 + 1e-12):
                violations.append("bernoulli demand rate must stay within [0, 1]")
        if self.kind == KIND_ADDITIVE:
            w = self.noise_half_width
            if w is None or not (0 <= w <= self.interval.d_lo + 1e-12):  # NaN fails too
                violations.append("linear-additive requires 0 <= noise_half_width <= d_lo "
                                  "(realized demand must stay >= 0)")
        if violations:
            raise ModelValidationError(violations)

    # -- construction -------------------------------------------------

    @classmethod
    def linear_bernoulli(cls, alpha: float, beta: float, p_lo: float, p_hi: float) -> "DemandModel":
        return cls(KIND_BERNOULLI, alpha, beta, _interval_for(alpha, beta, p_lo, p_hi))

    @classmethod
    def linear_additive(
        cls, alpha: float, beta: float, p_lo: float, p_hi: float, noise_half_width: float
    ) -> "DemandModel":
        return cls(KIND_ADDITIVE, alpha, beta, _interval_for(alpha, beta, p_lo, p_hi),
                   noise_half_width=noise_half_width)

    # -- analytic structure -------------------------------------------

    @property
    def d_lo(self) -> float:
        return self.interval.d_lo

    @property
    def d_hi(self) -> float:
        return self.interval.d_hi

    @property
    def x_u(self) -> float:
        """Demand rate maximizing the revenue curve, ignoring inventory."""
        return self.alpha / 2.0

    def demand_at(self, p: float) -> float:
        """Mean demand rate at price p."""
        if not self.interval.contains_price(p):
            raise DomainError(f"price {p} outside [{self.interval.p_lo}, {self.interval.p_hi}]")
        return self.alpha - self.beta * p

    def inverse_demand(self, d: float) -> float:
        """Price that induces mean demand rate d."""
        if not self.interval.contains_demand(d):
            raise DomainError(f"demand rate {d} outside [{self.d_lo}, {self.d_hi}]")
        return (self.alpha - d) / self.beta

    def revenue_rate(self, d: float) -> float:
        """Mean one-period revenue r(d) = d * f^{-1}(d)."""
        if not self.interval.contains_demand(d):
            raise DomainError(f"demand rate {d} outside [{self.d_lo}, {self.d_hi}]")
        return d * (self.alpha - d) / self.beta

    def revenue_rate_unchecked(self, d):
        """Quadratic revenue formula without the domain check; vectorized.

        The natural extension of r beyond [d_lo, d_hi] is used by upper
        bounds evaluated at normalized inventory levels below d_lo.
        """
        d = np.asarray(d, dtype=float)
        return d * (self.alpha - d) / self.beta

    def revenue_slope(self, d: float) -> float:
        """r'(d)."""
        return (self.alpha - 2.0 * d) / self.beta

    def revenue_curvature(self, d: float | None = None) -> float:
        """r''(d); constant for linear demand."""
        return -2.0 / self.beta

    def price_of_rate(self, d):
        """Vectorized inverse demand without the domain check."""
        d = np.asarray(d, dtype=float)
        return (self.alpha - d) / self.beta

    # -- noise ---------------------------------------------------------

    def noise_bound(self) -> float:
        return 1.0 if self.kind == KIND_BERNOULLI else float(self.noise_half_width)

    # -- assumption constants ------------------------------------------

    def assumption_constants(self) -> AssumptionConstants:
        """Exact constants where the linear family admits them, grid estimates otherwise.

        The Wasserstein constant L of the bernoulli family is estimated by
        exhaustive evaluation of the optimal one-dimensional (quantile)
        coupling over a price grid; it is reported as a data point and not
        used by any solver.
        """
        m = 2.0 / self.beta
        C = max(abs(self.revenue_slope(self.d_lo)), abs(self.revenue_slope(self.d_hi)))
        if self.kind == KIND_ADDITIVE:
            w = float(self.noise_half_width)
            return AssumptionConstants(m=m, M=0.0, C=C, B_xi=w, L=0.0, sigma_sq=w * w / 3.0)
        grid = _price_grid(self.interval)
        q = self.alpha - self.beta * grid
        sigma_sq = float(np.min(q * (1.0 - q)))
        L = _bernoulli_wasserstein_ratio(q)
        return AssumptionConstants(m=m, M=0.0, C=C, B_xi=1.0, L=L, sigma_sq=sigma_sq)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "alpha": self.alpha,
            "beta": self.beta,
            "p_lo": self.interval.p_lo,
            "p_hi": self.interval.p_hi,
        }
        if self.kind == KIND_ADDITIVE:
            out["noise_half_width"] = self.noise_half_width
        return out


def _interval_for(alpha: float, beta: float, p_lo: float, p_hi: float) -> PriceInterval:
    return PriceInterval(p_lo=p_lo, p_hi=p_hi, d_lo=alpha - beta * p_hi, d_hi=alpha - beta * p_lo)


def _price_grid(interval: PriceInterval) -> np.ndarray:
    n = int(round((interval.p_hi - interval.p_lo) / _GRID_STEP))
    return np.linspace(interval.p_lo, interval.p_hi, max(n, 1) + 1)


def _bernoulli_wasserstein_ratio(q: np.ndarray) -> float:
    """max over grid pairs of W2(noise(q_i), noise(q_j)) / |q_i - q_j|.

    For centered bernoulli noises the quantile coupling gives
    W2^2 = delta * (1 - delta) with delta = |q_i - q_j|.
    """
    delta = np.abs(q[:, None] - q[None, :]).ravel()
    delta = delta[delta > 1e-15]
    if delta.size == 0:
        return 0.0
    ratio = np.sqrt(np.clip(delta * (1.0 - delta), 0.0, None)) / delta
    return float(ratio.max())


# -- multiple products -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultiDemandModel:
    """Multi-product model with quadratic mean revenue.

    Mean revenue at demand-rate vector x is r(x) = g.x + x.H.x/2 with H
    symmetric negative definite, so the inverse demand (price) curve is the
    affine map p(x) = g + H x / 2.  The demand-rate domain is the box
    [0, box_hi].  Stochastically, each product sells one unit per period
    with probability equal to its demand rate, independently across
    products given the rates, so box_hi must stay within [0, 1]^n.  Every
    entry of g, H and box_hi must be finite, and n at least 1 (else
    ModelValidationError).
    """

    g: np.ndarray
    H: np.ndarray
    box_hi: np.ndarray

    def __post_init__(self):
        for name, ndim in (("g", 1), ("H", 2), ("box_hi", 1)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name, ndim))
        n = self.g.shape[0]
        if self.H.shape != (n, n) or self.box_hi.shape != (n,):
            raise ModelValidationError(["g, H, box_hi dimensions inconsistent"])
        if n == 0:
            raise ModelValidationError(["a multi-product model needs at least one product"])

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def revenue(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.g @ x + 0.5 * x @ self.H @ x)

    def revenue_grad(self, x) -> np.ndarray:
        return self.g + self.H @ np.asarray(x, dtype=float)

    def price_of_rate(self, x) -> np.ndarray:
        """Inverse demand: the price vector supporting demand rates x.

        x may be (n,) or a batch (..., n); each row maps to g + H x / 2,
        summing x[..., k] * H[:, k] in k order (accumulate is sequential),
        not through the BLAS, so its bits do not depend on the CPU; the
        forward2 kernel repeats the sum.
        """
        x = np.asarray(x, dtype=float)
        return self.g + 0.5 * np.add.accumulate(x[..., None, :] * self.H, axis=-1)[..., -1]

    def unconstrained_optimum(self) -> np.ndarray:
        return np.linalg.solve(-self.H, self.g)

    def to_dict(self) -> dict:
        return {
            "kind": KIND_MULTI,
            "g": self.g.tolist(),
            "H": self.H.tolist(),
            "box_hi": self.box_hi.tolist(),
        }


@dataclass(frozen=True)
class MultiValidationReport:
    ok: bool
    violations: tuple[str, ...]
    m_prime: float
    spectral_norm: float


def validate_multi(model: MultiDemandModel) -> MultiValidationReport:
    """Check the structural assumptions of a multi-product model.

    Reports m' (smallest curvature, from the largest Hessian eigenvalue)
    and the spectral norm of H; collects violations instead of raising so
    callers can present all problems at once.
    """
    violations = []
    H = model.H
    if not np.allclose(H, H.T, atol=1e-12 * max(1.0, float(np.abs(H).max()))):
        violations.append("H is not symmetric")
    Hs = 0.5 * (H + H.T)
    eigs = np.linalg.eigvalsh(Hs)
    lam_max = float(eigs[-1])
    m_prime = -lam_max
    spectral = float(np.abs(eigs).max())
    if lam_max > -_MIN_CURVATURE:
        violations.append(f"H is not negative definite (largest eigenvalue {lam_max:.3e})")
    if np.any(model.box_hi <= 0):
        violations.append("box_hi must be strictly positive (domain needs nonempty interior containing 0)")
    if np.any(model.box_hi > 1 + 1e-12):
        violations.append("box_hi must stay within [0, 1] (demand rates are unit-sale probabilities)")
    if m_prime > 0:
        x_u = model.unconstrained_optimum()
        if np.any(x_u <= 0) or np.any(x_u >= model.box_hi):
            violations.append("unconstrained revenue maximizer is not interior to the domain box")
    return MultiValidationReport(
        ok=not violations, violations=tuple(violations), m_prime=m_prime, spectral_norm=spectral
    )


def _frozen_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise ModelValidationError([f"expected {ndim}-dimensional array, got shape {arr.shape}"])
    if not np.isfinite(arr).all():
        raise ModelValidationError([f"{name} has non-finite entries"])
    arr.setflags(write=False)
    return arr


# -- JSON round trip --------------------------------------------------------


def model_to_json(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def model_from_dict(obj: dict):
    """Build a model from its JSON object; missing or mistyped fields raise ConfigError."""
    try:
        kind = obj.get("kind")
        if kind == KIND_MULTI:
            if float(obj.get("c", 0.0)) != 0.0:
                raise ModelValidationError(
                    ["c must be 0: the prices g + Hx/2 earn no constant revenue"])
            return MultiDemandModel(g=obj["g"], H=obj["H"], box_hi=obj["box_hi"])
        if kind == KIND_BERNOULLI:
            return DemandModel.linear_bernoulli(obj["alpha"], obj["beta"], obj["p_lo"], obj["p_hi"])
        if kind == KIND_ADDITIVE:
            return DemandModel.linear_additive(
                obj["alpha"], obj["beta"], obj["p_lo"], obj["p_hi"], obj["noise_half_width"]
            )
    except ModelValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model JSON ({type(exc).__name__}: {exc})") from exc
    raise ModelValidationError([f"unknown model kind {kind!r}"])


def model_from_json(text: str):
    return model_from_dict(json.loads(text))


def benchmark_model() -> DemandModel:
    """The bernoulli instance used throughout the benchmark tables."""
    return DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0)
