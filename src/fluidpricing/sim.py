"""Seeded Monte Carlo engine, the stopping time, and regret aggregation.

Traces follow the inventory dynamics: realized demand is the posted rate
plus noise, revenue is price times the sold (inventory-censored) quantity,
and inventory never goes negative.  Periods are recorded chronologically
with their remaining-period index tau = T .. 1.

The noise stream is counter based (see rng): replication i of base seed s
draws its period-tau noise from a fixed hash of (s, i, period), so runs are
reproducible, order independent, and two policies can share one stream for
common-random-numbers comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels, rng
from .demand import KIND_ADDITIVE, KIND_BERNOULLI, KIND_MULTI, DemandModel, MultiDemandModel
from .errors import DomainError, UnsupportedModelError
from .fluid import solve_fluid_multi
from .policies import (
    MultiResolvingPolicy,
    ValueTable,
    _whole_at_least,
    admit,
    checked_law,
    exact_passes,
    multi_lattice,
    multi_values,
    resolving_policy,
    static_policy,
)

_Z_VALUES = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}
# the rows of a regret run per model kind: "dp" needs an exact pass or solve, and
# "ho" a mean noise that the posted price does not move
REGRET_ROWS = {KIND_BERNOULLI: ("static", "resolving", "dp"),
               KIND_ADDITIVE: ("static", "resolving", "ho"),
               KIND_MULTI: ("resolving", "dp")}
# the fractions of the start state at which the forward kernels check a law
_EIGHTHS = np.linspace(0.0, 1.0, 9)
_FORWARD_WORDS = 6  # the 8-byte words per replication of a forward batch


@dataclass
class SimTrace:
    """Per-period record of one simulated trajectory.

    Arrays are chronological; tau_remaining[i] is the number of periods
    left when row i was decided.  realized_demand is pre-censoring
    (demand_rate + xi); revenue reflects the inventory-censored sale.
    t_sharp is the stopping time of the forward kernel's tracker (see
    simulate_batch) in the band gamma(model, y0 / T); None where that band
    is negative, as it is for x_T = y0 / T outside [d_lo, x_u].
    """

    T: int
    y0: float
    seed: int
    tau_remaining: np.ndarray
    price: np.ndarray
    demand_rate: np.ndarray
    xi: np.ndarray
    realized_demand: np.ndarray
    inventory_after: np.ndarray
    revenue: np.ndarray
    t_sharp: int | None

    @property
    def total_revenue(self) -> float:
        return float(self.revenue.sum())


def simulate(model, policy, T: int, y0, seed: int):
    """Run the dynamics forward under a state-feedback policy, recording every period.

    One replication of the forward kernel (see simulate_batch), drawing from
    the stream keyed by seed mod 2**64, with the stopping-time tracker on
    where its band gamma(model, y0 / T) is not negative (else t_sharp is
    None); it raises as checked_law does, and as admit does past the budget.
    Dispatches on the model family; for the multi-product family see MultiSimTrace.
    """
    if isinstance(model, MultiDemandModel):
        return simulate_multi(model, policy, T, y0, seed)
    T = _whole_at_least(T, 1, "T")
    admit(f"a trace of {T} periods", 8 * 7 * T, T)  # six values and the index per period
    _check_inventory(y0)
    keys = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    track = gamma(model, float(y0) / T) >= 0
    batch, record = _forward(model, policy, T, y0, keys, track_t_sharp=track, record=True)
    price, rate, xi, realized, inventory, revenue = record.reshape(6, T)
    return SimTrace(
        T=T, y0=float(y0), seed=int(seed), tau_remaining=np.arange(T, 0, -1), price=price,
        demand_rate=rate, xi=xi, realized_demand=realized, inventory_after=inventory,
        revenue=revenue, t_sharp=int(batch.t_sharp[0]) if track else None,
    )


def _check_inventory(y0) -> None:
    """DomainError unless every entry of the start inventory y0 is finite and >= 0; an
    int past the float range is compared as it is, not converted."""
    if not all(0 <= y < math.inf for y in np.ravel(np.asarray(y0, dtype=object))):
        raise DomainError("need a finite y0 >= 0")


@dataclass
class BatchResult:
    """Aggregates of a vectorized batch of replications."""

    total_revenue: np.ndarray
    sum_xi: np.ndarray
    t_sharp: np.ndarray | None = None

    @property
    def mean(self) -> float:
        return float(self.total_revenue.mean())

    def ci_half_width(self, confidence: float = 0.95) -> float:
        """ci_half_width of the replications' total revenues."""
        return ci_half_width(self.total_revenue, confidence)


def ci_half_width(samples: np.ndarray, confidence: float) -> float:
    """Normal-approximation half width of the two-sided CI of the samples' mean
    at a confidence in (0, 1), inf for one sample; DomainError outside (0, 1),
    NaN included."""
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"need a confidence in (0, 1), got {confidence!r}")
    z = _Z_VALUES.get(confidence)
    if z is None:
        from statistics import NormalDist

        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = samples.size
    return z * float(samples.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf


def simulate_batch(model: DemandModel | MultiDemandModel, policy, T: int, y0, base_seed: int,
                   n_reps: int, track_t_sharp: bool = False) -> BatchResult:
    """Advance n_reps independent replications in lockstep: the one batched engine.

    The state y is (n_reps,) for one product and (n_reps, n) for the
    multi-product family.  Replication i uses the stream keyed by base_seed
    XOR splitmix64(i), and product j draws period i's uniform u at counter
    i*n + j.  Sales are unit sized (u < rate) for bernoulli and multi-product
    demand and rate + (2u - 1) * w for additive demand; demand beyond the
    inventory is lost.  With track_t_sharp (one product) the harmonic noise
    series xi_bar(t) = sum over tau > t of xi_tau / (tau - 1) is accumulated
    along the way, and t_sharp is the first period t, scanning
    chronologically, in which it leaves the band |xi_bar| <= gamma(model,
    y0 / T), floored at 2 (meaningful for re-solving traces); DomainError
    where that band is negative, for x_T = y0 / T outside [d_lo, x_u].

    The policy runs by its checked_law, checked at the eighths of the start
    state (for two products, every pair of eighths), in a compiled kernel:
    forward for one product (a (lo, hi) law or a DP table), forward2 for a
    two-product model under its own re-solving policy, whose prices repeat
    the batch sum of model.price_of_rate.  checked_law raises for any other
    policy, and n > 2 products raise UnsupportedModelError.  The kernel runs
    one call per contiguous range of replications in kernels._map (see
    _forward); the results do not depend on the number of ranges.
    _replications refuses a count past the budget before any array.
    """
    T = _whole_at_least(T, 1, "T")
    n_reps = _replications(n_reps, _FORWARD_WORDS, T)
    _check_inventory(y0)
    seeds = rng.replication_seed(base_seed, np.arange(n_reps))
    if not isinstance(model, MultiDemandModel):
        return _forward(model, policy, T, y0, seeds, track_t_sharp, record=False)[0]
    if track_t_sharp:
        raise UnsupportedModelError("t_sharp tracking is defined for one product")
    if np.shape(y0) != (model.n,):
        raise DomainError(f"inventory vector must have shape ({model.n},)")
    if model.n != 2:
        raise UnsupportedModelError("batch re-solving is implemented for n = 2")
    y = np.full((n_reps, model.n), y0, dtype=float)
    pairs = np.stack(np.meshgrid(_EIGHTHS, _EIGHTHS, indexing="ij"), axis=-1).reshape(-1, 2)
    checked_law(policy, pairs * y[0], T, model)
    total, sum_xi = np.zeros(n_reps), np.zeros(n_reps)
    kernels._map(kernels._kernel().forward2, [
        (s.stop - s.start, T, seeds[s], model.g, model.H, model.box_hi, y[s], total[s],
         sum_xi[s]) for s in kernels._ranges(n_reps)])
    return BatchResult(total_revenue=total, sum_xi=sum_xi)


def _replications(n_reps, words: int, T: int) -> int:
    """n_reps as an int, before any array of it is made: DomainError unless a whole
    number >= 1, ResourceGuardError (admit) for words 8-byte words per replication
    or the n_reps * T replication-periods of a batch to T past the budget."""
    n_reps = _whole_at_least(n_reps, 1, "n_reps")
    admit(f"{n_reps} replications of {T} periods", 8 * words * n_reps, n_reps * T)
    return n_reps


def _noise_replications(T_list, n_reps) -> int:
    """_replications of a noise pass: seeds, two noise blocks and means per horizon."""
    return _replications(n_reps, 1 + 2 * len(set(T_list)) + len(T_list), max(T_list))


def _forward(model: DemandModel, policy, T: int, y0, keys: np.ndarray, track_t_sharp: bool,
             record: bool):
    """The forward kernel on a replication per stream key, all from y0.

    Returns the BatchResult and, with record, the (6, T, reps) record of
    price (inf while shut off), rate, noise, realized demand, inventory
    after and revenue per period, else None.  Without record the
    replications are split into contiguous ranges (kernels._ranges), one
    kernel call each in kernels._map; a replication's stream is keyed by
    itself, so the bits do not depend on the split.  With track_t_sharp,
    DomainError when the band gamma(model, y0 / T) is negative (x_T outside
    [d_lo, x_u]).
    """
    if np.ndim(y0) != 0:
        raise DomainError("one product's inventory must be a number")
    reps = keys.size
    y = np.full(reps, y0, dtype=float)
    law = checked_law(policy, y[0] * _EIGHTHS, T, model)
    if isinstance(law, ValueTable):
        # checked_law read row T of the table; the kernel reads rows <= T and
        # clamps the column to the array's own width
        lo = hi = 0.0
        actions = np.ascontiguousarray(law.actions, dtype=float)
        width = actions.shape[1]
    else:
        (lo, hi), actions, width = law, np.zeros(1), 0
    unit_sales = model.kind == KIND_BERNOULLI
    w = 0.0 if unit_sales else float(model.noise_half_width)
    total, sum_xi, harm = np.zeros(reps), np.zeros(reps), np.zeros(reps)
    t_sharp = np.full(reps, 2, dtype=int)
    gam = gamma(model, float(y0) / T) if track_t_sharp else 0.0
    if gam < 0:
        raise DomainError(f"the stopping band gamma = {gam:g} is negative: t_sharp needs "
                          f"x_T = y0 / T = {float(y0) / T:g} in [d_lo, x_u] = "
                          f"[{model.d_lo:g}, {model.x_u:g}]")
    trace = np.empty((6, T, reps) if record else 1)
    kernels._map(kernels._kernel().forward, [
        (s.stop - s.start, T, keys[s], lo, hi, actions, width, model.alpha, model.beta,
         w, unit_sales, y[s], total[s], sum_xi[s], track_t_sharp, gam, harm[s], t_sharp[s],
         record, trace) for s in ([slice(0, reps)] if record else kernels._ranges(reps))])
    return (BatchResult(total_revenue=total, sum_xi=sum_xi,
                        t_sharp=t_sharp if track_t_sharp else None),
            trace if record else None)


# -- stopping time ------------------------------------------------------------


def gamma(model: DemandModel, x_T: float) -> float:
    """Half-width of the safe band for the harmonic noise series."""
    slope = model.revenue_slope(x_T)
    curv = model.revenue_curvature()
    return min(x_T - model.d_lo, model.x_u - x_T, -slope / curv)


# -- regret estimation -------------------------------------------------------


@dataclass(frozen=True)
class RegretReport:
    """One (T, policy) cell of a benchmark run.

    Exact evaluations carry ci_half_width 0 and replications 0; Monte
    Carlo cells carry the half width of the normal-approximation CI.
    regret_vs_dp is None when no exact DP value is available, with the
    reason spelled out in dp_reason.
    """

    T: int
    policy: str
    value: float
    ci_half_width: float
    replications: int
    fluid_value: float
    dp_value: float | None
    regret_vs_dp: float | None
    regret_vs_fluid: float
    base_seed: int
    dp_reason: str | None = None


def parse_y0_rule(rule):
    """Turn "round(c*T)" with rational c into a callable T -> int, and a list
    of such texts, one per product, into a callable T -> list of ints."""
    if callable(rule):
        return rule
    if isinstance(rule, (list, tuple)):
        rules = [parse_y0_rule(str(r)) for r in rule]
        return lambda T: [r(T) for r in rules]
    text = str(rule).replace(" ", "")
    if not (text.startswith("round(") and text.endswith("*T)")):
        raise DomainError(f"cannot parse y0 rule {rule!r}; expected 'round(c*T)'")
    try:
        c = Fraction(text[len("round("):-len("*T)")])
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse y0 rule {rule!r}: {exc}") from exc
    return lambda T: int(round(c * T))


def fluid_value(model: DemandModel, T: int, y0: float) -> float:
    """Benchmark value T * r(min(y0/T, rate cap)), computed from the model; below
    d_lo it extends r past the demand interval (see solve_fluid_single)."""
    return fluid_value_at_rate(model, T, y0 / T)


def fluid_value_at_rate(model: DemandModel, T: int, x_T: float) -> float:
    """fluid_value at the start ratio x_T = y0 / T itself: T * r(min(x_T, rate cap))."""
    return T * float(model.revenue_rate_unchecked(min(x_T, model.rate_cap)))


def regret_points(model, T_list, y0_rule, policies, replications) -> list[tuple]:
    """The (T, y0 = rule(T)) points of a regret run of the named rows, with the
    rule parsed by parse_y0_rule: estimate_regret's one admission check, made
    before any pass, batch or solve.

    DomainError for a horizon that is not a whole number >= 1, a replication
    count that is not one (for every kind, though only additive rows read it),
    an unknown row name, a rule that does not give one number per horizon (n,
    one per product, as an int array, for a multi-product model), or a
    negative or non-finite y0 (or, for two products, a fractional one);
    UnsupportedModelError for a row that the model's kind lacks (REGRET_ROWS)
    or a multi-product model of other than two products; ResourceGuardError
    (admit) for an additive run's noise pass or longest batch, or a two-product
    lattice (multi_lattice), past the budget (exact_passes admits bernoulli runs).
    """
    T_list = [_whole_at_least(T, 1, "T") for T in T_list]
    _whole_at_least(replications, 1, "replications")
    multi = isinstance(model, MultiDemandModel)
    unknown = [name for name in policies if name not in set().union(*REGRET_ROWS.values())]
    if unknown:
        raise DomainError(f"unknown policies {unknown}")
    rule = parse_y0_rule(y0_rule)
    points = [(T, rule(T)) for T in T_list]
    if any(np.shape(y0) != ((model.n,) if multi else ()) for _, y0 in points):
        raise DomainError(f"y0_rule must be a list of {model.n} rules, one per product of the "
                          f"multi-product model, got {y0_rule!r}" if multi else
                          f"y0_rule {y0_rule!r} must give one number per horizon: a "
                          "one-product model takes a single rule")
    _check_inventory([y0 for _, y0 in points])
    rows = REGRET_ROWS[KIND_MULTI if multi else model.kind]
    other = [name for name in policies if name not in rows]
    if other:
        raise UnsupportedModelError(f"a {'multi-product' if multi else model.kind} model "
                                    f"supports the policies {list(rows)}, not {other}")
    if multi:
        multi_lattice(model, points)
        return [(T, np.asarray(y0, dtype=int)) for T, y0 in points]
    if model.kind == KIND_ADDITIVE and points:
        if {"static", "ho"} & set(policies):
            _noise_replications(T_list, replications)
        if "resolving" in policies:
            _replications(replications, _FORWARD_WORDS, max(T_list))
    return points


def estimate_regret(model, T_list, y0_rule, policies=("static", "resolving"),
                    replications: int = 10_000, base_seed: int = 0) -> list[RegretReport]:
    """Benchmark the given rows (REGRET_ROWS) against the exact DP and fluid values.

    regret_points admits the run before any work.  Bernoulli and two-product
    models are evaluated exactly (no Monte Carlo error; the replication count
    is ignored and CIs are zero): a bernoulli run by exact_passes, a
    two-product run by one multi_values pass, whose "resolving" row is the
    value of the model's re-solving policy.  Additive models run seeded Monte
    Carlo on one stream: replication i of every row draws from the stream
    keyed by rng.replication_seed(base_seed, i), as simulate_batch has it.
    Additive noise gives two rows in closed form per replication, from every
    horizon's noise means of one pass (ho_noise_means): "static" earns the
    censored revenue of the static policy's fixed rate (fixed_price_revenues),
    and "ho" that of each stream's fixed price best in hindsight
    (ho_revenues).  Only the "resolving" rows run a forward batch
    (simulate_batch).
    """
    points = regret_points(model, T_list, y0_rule, policies, replications)
    if isinstance(model, MultiDemandModel):
        values = multi_values(model, points, ["dp", *(p for p in policies if p != "dp")])
        fluids = [T * solve_fluid_multi(model, y0 / T).objective for T, y0 in points]
        return [_report(T, name, values[k][name], None, fluids[k], values[k]["dp"], base_seed,
                        None)
                for k, (T, y0) in enumerate(points) for name in policies]
    if model.kind == KIND_BERNOULLI:
        values = exact_passes([(y0 / T, T, y0) for T, y0 in points],
                              lambda x_T: (model, _build_policies(model, x_T, policies)))
        return [_report(T, name, values[k][name], None, fluid_value(model, T, y0),
                        values[k]["dp"], base_seed, None)
                for k, (T, y0) in enumerate(points) for name in policies]
    # the static rates refuse before the noise pass, as static_policy does
    rates = [static_policy(model, y0 / T).lo if "static" in policies else None
             for T, y0 in points]
    xi_bars = (ho_noise_means(model, [T for T, _ in points], base_seed, replications)
               if {"static", "ho"} & set(policies) else None)
    resolving, reports = resolving_policy(model), []
    for k, (T, y0) in enumerate(points):
        for name in policies:
            if name == "static":
                samples = fixed_price_revenues(model, T, y0, rates[k], xi_bars[k])
            elif name == "ho":
                samples = ho_revenues(model, T, y0, xi_bars[k])
            else:
                samples = simulate_batch(model, resolving, T, y0, base_seed,
                                         replications).total_revenue
            reports.append(_report(T, name, float(samples.mean()), samples,
                                   fluid_value(model, T, y0), None, base_seed,
                                   "dp-requires-bernoulli"))
    return reports


def _report(T, name, value, samples, fluid, dp, base_seed, dp_reason) -> RegretReport:
    """An exact row when samples is None, else a Monte Carlo row of samples, with a 95 % CI."""
    return RegretReport(
        T=T, policy=name, value=value,
        ci_half_width=0.0 if samples is None else ci_half_width(samples, 0.95),
        replications=0 if samples is None else samples.size,
        fluid_value=fluid, dp_value=dp, regret_vs_dp=None if dp is None else dp - value,
        regret_vs_fluid=fluid - value, base_seed=base_seed, dp_reason=dp_reason,
    )


def _build_policies(model: DemandModel, x_T: float, names) -> dict:
    """The static and resolving policies among names for a bernoulli pass: "dp"
    is the backward pass itself."""
    makers = {"static": lambda: static_policy(model, x_T),
              "resolving": lambda: resolving_policy(model)}
    return {name: makers[name]() for name in names if name in makers}


def ho_noise_means(model: DemandModel, T_list, base_seed: int, n_reps: int) -> list[np.ndarray]:
    """The mean noise xi_bar = (2 * (sum of T uniforms) / T - 1) * w of each
    replication's stream (as simulate_batch draws it), at each T of T_list:
    what the "static" and "ho" rows of an additive estimate_regret run, and
    ho_values, read.

    The sums come from the compiled noise_sum kernel, in counter order: one
    call per contiguous range of replications in kernels._map walks the
    counters once up to the largest T and keeps the sum at every horizon,
    with the bits of a pass that stops there.  UnsupportedModelError for
    bernoulli noise, which depends on the posted price.
    """
    if not T_list:  # the kernel needs a horizon
        return []
    if model.kind == KIND_BERNOULLI:
        raise UnsupportedModelError("ho benchmark needs additive i.i.d. noise")
    T_list = [_whole_at_least(T, 1, "T") for T in T_list]
    n_reps = _noise_replications(T_list, n_reps)
    horizons = np.array(sorted(set(T_list)), dtype=np.int64)
    w = float(model.noise_half_width)
    seeds = rng.replication_seed(base_seed, np.arange(n_reps))
    ranges = kernels._ranges(n_reps)
    blocks = [np.empty((horizons.size, s.stop - s.start)) for s in ranges]
    kernels._map(kernels._kernel().noise_sum, [
        (s.stop - s.start, horizons.size, horizons, seeds[s], block)
        for s, block in zip(ranges, blocks)])
    sums = dict(zip(horizons.tolist(), np.concatenate(blocks, axis=1)))
    return [(2.0 * sums[T] / T - 1.0) * w for T in T_list]


def fixed_price_revenues(model: DemandModel, T: int, y0, rate,
                         xi_bar: np.ndarray) -> np.ndarray:
    """The revenue of the fixed demand rate (one, or one per replication) on each
    replication of T periods from y0 units, given its mean noise xi_bar.

    Additive demand is never negative (w <= d_lo), so the rate sells min(y0,
    T (rate + xi_bar)) in all, whatever the order of the periods: the revenue is
    p(rate) min(y0, T (rate + xi_bar)), that of a forward batch up to rounding.
    """
    return model.price_of_rate(rate) * np.minimum(y0, T * (rate + xi_bar))


def ho_revenues(model: DemandModel, T: int, y0, xi_bar: np.ndarray) -> np.ndarray:
    """The revenue of the fixed price best in hindsight on each replication of
    T periods from y0 units, given its mean noise xi_bar.

    A rate d earns p(d) min(y0, T (d + xi_bar)) (fixed_price_revenues): T
    (r(d) + p(d) xi_bar), peaking at x_u - xi_bar / 2, up to the sell-out rate
    y0 / T - xi_bar, and falling p(d) y0 beyond it.
    """
    _check_inventory(y0)
    rate = np.clip(np.minimum(y0 / T - xi_bar, model.x_u - xi_bar / 2.0),
                   model.d_lo, model.d_hi)
    return fixed_price_revenues(model, T, y0, rate, xi_bar)


def ho_inner_values(model: DemandModel, T: int, x_T: float, base_seed: int,
                    n_reps: int) -> np.ndarray:
    """Clairvoyant values with the per-period expectation taken in closed form.

    Conditional on the realized mean noise xi_bar, the fixed clairvoyant
    price earns T * r(clip(x_T + xi_bar)) in expectation (inventory
    censoring ignored, as in the benchmark's defining bound).  The one-horizon
    call of ho_values.
    """
    return ho_values(model, [T], x_T, base_seed, n_reps)[0]


def ho_values(model: DemandModel, T_list, x_T: float, base_seed: int,
              n_reps: int) -> list[np.ndarray]:
    """ho_inner_values at each horizon of T_list, from one noise pass
    (ho_noise_means), without the censoring of the "ho" rows (ho_revenues)."""
    if not (math.isfinite(x_T) and x_T > 0):
        raise DomainError(f"need a finite inventory rate x_T > 0, got {x_T}")
    return [T * model.revenue_rate_unchecked(np.clip(x_T + xi_bar, model.d_lo, model.d_hi))
            for T, xi_bar in zip(T_list, ho_noise_means(model, T_list, base_seed, n_reps))]


# -- multi-product simulation -------------------------------------------------


@dataclass
class MultiSimTrace:
    T: int
    y0: np.ndarray
    seed: int
    tau_remaining: np.ndarray
    prices: np.ndarray         # (T, n)
    demand_rates: np.ndarray   # (T, n)
    xi: np.ndarray             # (T, n)
    sales: np.ndarray          # (T, n)
    inventory_after: np.ndarray
    revenue: np.ndarray

    @property
    def total_revenue(self) -> float:
        return float(self.revenue.sum())


def simulate_multi(model: MultiDemandModel, policy, T: int, y0, seed: int) -> MultiSimTrace:
    """Forward dynamics for the multi-product family (unit sales per product).

    The policy (None for the model's own) must re-solve this model: its
    rate_law() is the model, as checked_law requires of every multi-product
    loop; any other raises UnsupportedModelError, and admit a trace past the
    budget, before period 1.  Each period prices by its decide.  Product j
    sells a unit in period i when the uniform at counter i*n + j of the stream
    keyed by seed mod 2**64 lies below its rate.  A product's sale is censored
    at its inventory, so a fractional last unit sells (and earns) only that
    fraction.
    """
    T, n = _whole_at_least(T, 1, "T"), model.n
    # the uniforms and five values per product and period, the revenue and the index
    admit(f"a trace of {T} periods of {n} products", 8 * T * (2 + 6 * n), T)
    _check_inventory(y0)
    y0 = np.asarray(y0, dtype=float)
    policy = policy or MultiResolvingPolicy(model)
    if (policy.rate_law() if hasattr(policy, "rate_law") else None) is not model:
        raise UnsupportedModelError(
            f"{type(policy).__name__} does not re-solve this model: simulate_multi runs a "
            "policy whose rate_law() is the model itself")
    tau = np.arange(T, 0, -1)
    prices = np.zeros((T, n))
    rates = np.zeros((T, n))
    xi = np.zeros((T, n))
    sales = np.zeros((T, n))
    inventory = np.zeros((T, n))
    revenue = np.zeros(T)
    u = rng.uniforms(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
                     np.arange(T * n, dtype=np.uint64)).reshape(T, n)
    y = y0.copy()
    for i in range(T):
        t = T - i
        dec = policy.decide(y, t)
        sale = (u[i] < dec.demand_rate).astype(float)
        prices[i] = dec.price
        rates[i] = dec.demand_rate
        sales[i] = np.minimum(sale, y)
        xi[i] = sale - dec.demand_rate
        revenue[i] = float(dec.price @ sales[i])
        y = np.maximum(0.0, y - sale)
        inventory[i] = y
    return MultiSimTrace(T=T, y0=y0, seed=int(seed), tau_remaining=tau, prices=prices,
                         demand_rates=rates, xi=xi, sales=sales,
                         inventory_after=inventory, revenue=revenue)


def simulate_batch_multi(model: MultiDemandModel, T: int, y0, base_seed: int,
                         n_reps: int) -> BatchResult:
    """Vectorized re-solving replications for the multi-product model."""
    return simulate_batch(model, MultiResolvingPolicy(model), T, y0, base_seed, n_reps)


# -- theoretical constant ------------------------------------------------------


def constant_bound(model: DemandModel, x_T: float) -> float:
    """Theoretical constant upper-bounding re-solving regret vs the optimal policy.

    Valid for x_T strictly between the demand floor and the unconstrained
    optimum; combines the assumption constants with the stopping-time
    expectation bound E[T_sharp] <= 2 + 4 B^4 / gamma^4.
    """
    if not (model.d_lo < x_T < model.x_u):
        raise DomainError(
            f"constant bound needs x_T in ({model.d_lo}, {model.x_u}), got {x_T}")
    consts = model.assumption_constants()
    gam = gamma(model, x_T)
    curv = abs(model.revenue_curvature())
    B = consts.B_xi
    r_peak = model.revenue_rate(model.rate_cap)
    e_tsharp_minus_1 = 1.0 + 4.0 * B**4 / gam**4
    return (consts.M**2 * B**4 / (2.0 * consts.m)
            + 2.0 * (curv * consts.L * B) ** 2 / consts.m
            + 3.0 * curv * B**2
            + r_peak * e_tsharp_minus_1)
