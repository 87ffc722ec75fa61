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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ModelValidationError

KIND_BERNOULLI = "linear-bernoulli"
KIND_ADDITIVE = "linear-additive"
KIND_MULTI = "multi-quadratic"

_TOL = 1e-12  # the slack of the domain checks of demand_at, inverse_demand and revenue_rate
_MIN_CURVATURE = 1e-10  # the least curvature validate_multi asks of -H


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants of the regularity assumptions, in closed form.

    m: lower bound on -r''(d); M: bound on |r'''(d)|; C: Lipschitz constant
    of r; B_xi: almost-sure noise bound; L: W1 distance of the noises at two
    rates per unit of their gap; sigma_sq: lower bound on the noise variance.
    """

    m: float
    M: float
    C: float
    B_xi: float
    L: float
    sigma_sq: float


@dataclass(frozen=True)
class DemandModel:
    """Linear single-product demand model f(p) = alpha - beta * p on prices [p_lo, p_hi].

    Its rates run from d_lo = f(p_hi) to d_hi = f(p_lo); every number is finite."""

    kind: str
    alpha: float
    beta: float
    p_lo: float
    p_hi: float
    noise_half_width: float | None = None

    def __post_init__(self):
        violations = []
        if self.kind not in (KIND_BERNOULLI, KIND_ADDITIVE):
            violations.append(f"unknown kind {self.kind!r}")
        numbers = ("alpha", "beta", "p_lo", "p_hi") + (
            () if self.noise_half_width is None else ("noise_half_width",))
        violations += [f"{name} is not finite ({getattr(self, name)})" for name in numbers
                       if not math.isfinite(getattr(self, name))]
        if not self.p_lo < self.p_hi:
            violations.append(f"price interval empty: p_lo={self.p_lo} >= p_hi={self.p_hi}")
        elif not self.d_lo < self.d_hi:  # beta <= 0, or beta * (p_hi - p_lo) lost to rounding
            violations.append(f"demand interval empty: d_lo={self.d_lo} >= d_hi={self.d_hi}")
        if self.beta <= 0:
            violations.append("beta must be positive (demand strictly decreasing in price)")
        elif self.kind == KIND_BERNOULLI and (self.d_lo < -1e-12 or self.d_hi > 1 + 1e-12):
            violations.append("bernoulli demand rate must stay within [0, 1]")
        if self.kind == KIND_ADDITIVE:
            w = self.noise_half_width
            if w is None or not (0 <= w <= self.d_lo + 1e-12):  # NaN fails too
                violations.append("linear-additive requires 0 <= noise_half_width <= d_lo "
                                  "(realized demand must stay >= 0)")
        elif self.kind == KIND_BERNOULLI and self.noise_half_width is not None:
            violations.append("linear-bernoulli takes no noise_half_width")
        if violations:
            raise ModelValidationError(violations)

    # -- construction -------------------------------------------------

    @classmethod
    def linear_bernoulli(cls, alpha: float, beta: float, p_lo: float, p_hi: float) -> "DemandModel":
        return cls(KIND_BERNOULLI, alpha, beta, p_lo, p_hi)

    @classmethod
    def linear_additive(
        cls, alpha: float, beta: float, p_lo: float, p_hi: float, noise_half_width: float
    ) -> "DemandModel":
        return cls(KIND_ADDITIVE, alpha, beta, p_lo, p_hi, noise_half_width=noise_half_width)

    # -- analytic structure -------------------------------------------

    @property
    def d_lo(self) -> float:
        return self.alpha - self.beta * self.p_hi

    @property
    def d_hi(self) -> float:
        return self.alpha - self.beta * self.p_lo

    @property
    def x_u(self) -> float:
        """Demand rate maximizing the revenue curve, ignoring inventory."""
        return self.alpha / 2.0

    @property
    def rate_cap(self) -> float:
        """The highest rate of a fluid solution: x_u kept inside [d_lo, d_hi]."""
        return min(max(self.x_u, self.d_lo), self.d_hi)

    def demand_at(self, p: float) -> float:
        """Mean demand rate at price p."""
        if not self.p_lo - _TOL <= p <= self.p_hi + _TOL:
            raise DomainError(f"price {p} outside [{self.p_lo}, {self.p_hi}]")
        return self.alpha - self.beta * p

    def inverse_demand(self, d: float) -> float:
        """Price that induces mean demand rate d."""
        if not self.d_lo - _TOL <= d <= self.d_hi + _TOL:
            raise DomainError(f"demand rate {d} outside [{self.d_lo}, {self.d_hi}]")
        return (self.alpha - d) / self.beta

    def revenue_rate(self, d: float) -> float:
        """Mean one-period revenue r(d) = d * f^{-1}(d)."""
        if not self.d_lo - _TOL <= d <= self.d_hi + _TOL:
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

    def revenue_curvature(self) -> float:
        """r'', the same at every rate for linear demand."""
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
        """The constants in closed form.

        Additive noise is the same at every rate, so L = 0.  Bernoulli noises at
        rates delta apart are at W1 distance 2 delta (1 - delta) under the quantile
        coupling, so L = 2 (W2 / delta has no bound); their variance q (1 - q) is
        concave, so it is least at d_lo or d_hi.
        """
        C = max(abs(self.revenue_slope(self.d_lo)), abs(self.revenue_slope(self.d_hi)))
        B_xi = self.noise_bound()
        if self.kind == KIND_ADDITIVE:
            L, sigma_sq = 0.0, B_xi * B_xi / 3.0
        else:
            L, sigma_sq = 2.0, min(q * (1.0 - q) for q in (self.d_lo, self.d_hi))
        return AssumptionConstants(m=-self.revenue_curvature(), M=0.0, C=C, B_xi=B_xi, L=L,
                                   sigma_sq=sigma_sq)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "alpha": self.alpha,
            "beta": self.beta,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
        }
        if self.kind == KIND_ADDITIVE:
            out["noise_half_width"] = self.noise_half_width
        return out


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


_MODEL_KEYS = {  # the keys of each kind's JSON object besides "kind"; "c" is optional
    KIND_BERNOULLI: ("alpha", "beta", "p_lo", "p_hi"),
    KIND_ADDITIVE: ("alpha", "beta", "p_lo", "p_hi", "noise_half_width"),
    KIND_MULTI: ("g", "H", "box_hi", "c"),
}


def model_from_dict(obj: dict):
    """Build a model from its JSON object; missing, unknown or mistyped fields raise
    ConfigError, so that a misspelt or misplaced key is not dropped unread."""
    try:
        kind = obj.get("kind")
        names = _MODEL_KEYS.get(kind) if isinstance(kind, str) else None
        if names is None:
            raise ModelValidationError([f"unknown model kind {kind!r}"])
        unknown = set(obj) - {"kind", *names}
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)} for a {kind} model")
        if kind == KIND_MULTI:
            if float(obj.get("c", 0.0)) != 0.0:
                raise ModelValidationError(
                    ["c must be 0: the prices g + Hx/2 earn no constant revenue"])
            return MultiDemandModel(g=obj["g"], H=obj["H"], box_hi=obj["box_hi"])
        return DemandModel(kind, *(obj[name] for name in names))
    except (ConfigError, ModelValidationError):
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model JSON ({type(exc).__name__}: {exc})") from exc


def benchmark_model() -> DemandModel:
    """The bernoulli instance used throughout the benchmark tables."""
    return DemandModel.linear_bernoulli(alpha=0.75, beta=0.5, p_lo=0.0, p_hi=1.0)
