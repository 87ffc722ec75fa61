"""Pricing policies and exact policy evaluation.

Policies are deterministic state feedbacks: given remaining inventory y and
remaining periods t they return a price (equivalently a demand rate).  For
the bernoulli family sales are unit sized, inventory is integer, and both
the optimal policy and the value of any state-feedback policy can be
computed exactly by backward induction over the (periods x inventory)
lattice, which removes all sampling error from benchmark tables.

Time is indexed by periods REMAINING throughout: t = T is the first
decision of the horizon and t = 1 the last.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .demand import KIND_BERNOULLI, DemandModel, MultiDemandModel
from .errors import DomainError, ResourceGuardError, UnsupportedModelError
from .fluid import box_qp2_batch, solve_fluid_multi

logger = logging.getLogger(__name__)

# size guards of solve_dp (table entries) and solve_dp_multi (T times lattice states)
DENSE_TABLE_MAX_ENTRIES = 64_000_000
MULTI_STATE_CAP = 10_000_000
# largest backward pass T * (y0 + 1) of exact_passes and exact_policy_values:
# 2^15 (3.4e8) fits, 2^16 not
EXACT_CELL_BUDGET = 2**30


@dataclass(frozen=True)
class PolicyDecision:
    """One period's decision: the price and demand rate vectors of MultiResolvingPolicy.decide."""

    price: np.ndarray
    demand_rate: np.ndarray


class _LawPolicy:
    """A policy given by one rate law: rates_batch(y, t) is law_rates(rate_law(), y, t).

    Here the law is (lo, hi), the rate clip(y / t, lo, hi) at y > 0 and 0 at
    y <= 0; DpPolicy and MultiResolvingPolicy carry the other kinds of law."""

    def __init__(self, model, lo, hi):
        self.model, self.lo, self.hi = model, lo, hi

    def rate_law(self):
        """(lo, hi) such that rates_batch(y, t) is clip(y / t, lo, hi) at every y > 0."""
        return self.lo, self.hi

    def rates_batch(self, y: np.ndarray, t: int) -> np.ndarray:
        return law_rates(self.rate_law(), y, t)


class StaticPolicy(_LawPolicy):
    """Stationary price at the fluid optimum for the initial inventory (lo = hi)."""

    def __init__(self, model: DemandModel, x_T: float):
        rate = min(max(x_T, model.d_lo), model.rate_cap)
        super().__init__(model, rate, rate)


class ResolvingPolicy(_LawPolicy):
    """Re-solves the fluid problem each period at the current normalized inventory.

    With one product the fluid solution is closed form, so the decision is
    f^{-1}(clip(y / t, d_lo, rate cap)), the cap being x_u kept inside the
    demand interval (see solve_fluid_single); right-hand sides below the
    demand floor are clamped to d_lo (the highest admissible price) until
    inventory hits zero, where the policy shuts off.
    """

    def __init__(self, model: DemandModel):
        super().__init__(model, model.d_lo, model.rate_cap)


def static_policy(model: DemandModel, x_T: float) -> StaticPolicy:
    if not (math.isfinite(x_T) and x_T > 0):
        raise DomainError(f"static policy needs a finite inventory rate x_T > 0, got {x_T}")
    return StaticPolicy(model, x_T)


def resolving_policy(model: DemandModel) -> ResolvingPolicy:
    return ResolvingPolicy(model)


# -- exact dynamic programming (bernoulli demand) ---------------------------


@dataclass
class ValueTable:
    """Dense optimal value and action tables over (remaining periods, inventory).

    values[t, y] is the optimal expected revenue-to-go with t periods and y
    units left; actions[t, y] the maximizing demand rate.  Row t = 0 and
    column y = 0 are identically zero.
    """

    model: DemandModel
    horizon: int
    max_inventory: int
    values: np.ndarray
    actions: np.ndarray

    def value(self, t: int, y: int) -> float:
        return float(self.values[t, y])

    def policy(self) -> "DpPolicy":
        return DpPolicy(self)


class DpPolicy(_LawPolicy):
    """State feedback replaying the actions of a solved value table: its law is the table."""

    def __init__(self, table: ValueTable):
        self.model, self.table = table.model, table

    def rate_law(self) -> ValueTable:
        """The table whose actions rates_batch replays (see law_rates)."""
        return self.table


def _require_bernoulli(model: DemandModel, what: str) -> None:
    if not isinstance(model, DemandModel) or model.kind != KIND_BERNOULLI:
        raise UnsupportedModelError(f"{what} requires bernoulli (unit-sale) demand")


def _whole_at_least(value, least: int, name: str) -> int:
    """value as an int; DomainError unless it is a whole number >= least."""
    if not (float(value).is_integer() and value >= least):
        raise DomainError(f"need whole numbers {name} >= {least}, got {name} = {value}")
    return int(value)


def _whole_point(T, y0) -> tuple[int, int]:
    """(T, y0) as ints; DomainError unless both are whole numbers, T >= 1 and y0 >= 0."""
    return _whole_at_least(T, 1, "T"), _whole_at_least(y0, 0, "y0")


def solve_dp(model: DemandModel, T: int, y0: int) -> ValueTable:
    """Dense value and action tables, (T+1)*(y0+1) each, from one backward kernel call.

    The call runs one optimal row of y0 + 1 cells over the whole lattice and
    records it, V(t, .), after every period t; actions[t, y] is the
    maximizing rate clip((alpha + beta*(V(t-1,y-1) - V(t-1,y)))/2, d_lo, d_hi)
    that the kernel's optimal row evaluates, with the same bits.
    """
    _require_bernoulli(model, "exact dynamic programming")
    T, y0 = _whole_point(T, y0)
    entries = (T + 1) * (y0 + 1)
    if entries > DENSE_TABLE_MAX_ENTRIES:
        raise ResourceGuardError(f"dense value table would hold {entries} entries "
                                 f"(> {DENSE_TABLE_MAX_ENTRIES}); use exact_values instead")
    values, actions = np.zeros((T + 1, y0 + 1)), np.zeros((T + 1, y0 + 1))
    kernels._kernel().backward(np.zeros(y0 + 1), None, y0 + 1, np.zeros(0), True, 0.0, 0.0,
                               None, 0, np.zeros(4), np.zeros(4, dtype=np.int64), model.alpha,
                               model.beta, model.d_lo, model.d_hi, 0, T, -T, y0, False,
                               values.ctypes.data)
    # the optimal row's rate, in its operation order, in place: no table-sized temporaries
    acts = actions[1:, 1:]
    np.subtract(values[:-1, :-1], values[:-1, 1:], out=acts)
    np.multiply(model.beta, acts, out=acts)
    np.add(model.alpha, acts, out=acts)
    np.divide(acts, 2.0, out=acts)
    np.clip(acts, model.d_lo, model.d_hi, out=acts)
    return ValueTable(model=model, horizon=T, max_inventory=y0, values=values, actions=actions)


def exact_values(model: DemandModel, points,
                 policies: dict[str, object] | None = None) -> list[dict[str, float]]:
    """{"dp": V, name: value, ...} at each (T, y0) point, from one backward pass per row.

    Time runs in periods remaining, so V and the value of any policy whose
    rates_batch(y_array, t) ignores the horizon do not depend on T: one pass
    to the largest T reads every point, with O(max y0) memory per row.
    Every policy runs by its checked_law, a (lo, hi) law or a DP table, in
    the compiled backward kernel over the cells the points read
    (KernelUnavailableError when the kernel cannot be built).  On long
    horizons V and each (lo, hi) row run on a band around the points' fluid
    paths, as a lower and an upper bound that must agree bit for bit, so
    every value has the full pass's bits (see _fused_pass); each row's final
    band width and retry count are logged at DEBUG.
    """
    _require_bernoulli(model, "exact policy evaluation")
    points = [_whole_point(T, y0) for T, y0 in points]
    if not points:
        raise DomainError("need at least one (T, y0) point")
    policies = dict(policies or {})
    ys = np.arange(max(y0 for _, y0 in points) + 1, dtype=float)
    laws = [checked_law(pol, ys, max(T for T, _ in points), model) for pol in policies.values()]
    rows = _fused_pass(model, points, laws, names=["dp", *policies])
    return [dict(zip(["dp", *policies], row)) for row in rows]


def checked_law(policy, y: np.ndarray, t: int, model):
    """The rate law that a compiled loop runs for policy on model, the same for
    every replication, in place of policy.rates_batch: policy.rate_law(), once
    it reproduces rates_batch at the states y with t and with 1 period left,
    with the bounds of a (lo, hi) law as Python floats.

    The one admission rule of the compiled loops.  UnsupportedModelError for
    a policy with no law, one whose rates_batch departs from its law (a
    subclass that overrides only rates_batch), or a two-product law other
    than model itself.  DomainError, before any rate is read, for a DP table
    that does not cover t periods from the whole number of units max(y).
    """
    law = policy.rate_law() if hasattr(policy, "rate_law") else None
    if isinstance(law, ValueTable):
        top = float(np.max(y))
        if not (t <= law.horizon and top <= law.max_inventory and top.is_integer()):
            raise DomainError(f"a DP table of horizon {law.horizon} and max inventory "
                              f"{law.max_inventory} cannot run {t} periods from "
                              f"{top} units (a whole number is needed)")
    multi = isinstance(law, MultiDemandModel) or isinstance(model, MultiDemandModel)
    if (law is None or (multi and law is not model)
            or any(not np.array_equal(policy.rates_batch(y, left), law_rates(law, y, left))
                   for left in {t, 1})):
        raise UnsupportedModelError(
            f"{type(policy).__name__} has no rate law the compiled loops can run: a "
            "rate_law() that its rates_batch reproduces (for two products, the model's own "
            "re-solving policy)")
    return (law if isinstance(law, (ValueTable, MultiDemandModel))
            else tuple(np.asarray(bound).item() for bound in law))


def law_rates(law, y: np.ndarray, t: int) -> np.ndarray:
    """The rates of a rate law at the states y with t periods left.

    A one-product law (lo, hi) gives clip(y / t, lo, hi) where y > 0 and 0
    elsewhere; a ValueTable gives its action actions[t, min(int(y),
    max_inventory)] where int(y) > 0 and 0 elsewhere.  A two-product law is
    a MultiDemandModel: each row of the (N, 2) states y gets the maximizer
    of its fluid objective over the box [0, min(box_hi, y / t)], found by
    box_qp2_batch.
    """
    y = np.asarray(y, dtype=float)
    if isinstance(law, ValueTable):
        units = y.astype(int)
        return np.where(units > 0, law.actions[t, np.clip(units, 0, law.max_inventory)], 0.0)
    if isinstance(law, MultiDemandModel):
        if law.n != 2:
            raise UnsupportedModelError("batch re-solving is implemented for n = 2")
        ub = np.minimum(law.box_hi, y / t)
        H, g = law.H, law.g
        x1, x2, _ = box_qp2_batch(H[0, 0], H[1, 1], H[0, 1], g[0], g[1], ub[:, 0], ub[:, 1])
        return np.stack([x1, x2], axis=1)
    lo, hi = law
    return np.where(y > 0, np.clip(y / t, lo, hi), 0.0)


# the longest pass on bands: the relative rounding error of a pass grows about as
# 3 * T * 2^-53 (3.5e-10 at 2^20), which must stay below the SLACK of 1e-9 by which
# the kernel raises every upper edge bound
_BAND_MAX_T = 2**20


def _start_half_width(T: int, bridge: bool) -> float:
    """Half width of a row's first band on a pass to horizon T: about 8 standard
    deviations of the sales of T periods, which are at most sqrt(T) / 2; half that
    for a bridge, a rate y / t inside its clip at every point, which corrects its
    own drift, so that its spread d (1 - d) t (T - t) / T peaks at T / 16."""
    return (2.0 if bridge else 4.0) * math.sqrt(T) + 2.0


def _fused_pass(model: DemandModel, points, laws, names=()) -> list[list[float]]:
    """Every row's value at each point (row 0 is V, row 1 + i runs laws[i]).

    Each row of an attempt (see below) is one _pass, a kernel call per
    distinct horizon on cells of its own; no row reads another, so the rows of
    an attempt run at once, one per thread of kernels._map, in row order.

    A ValueTable law is a table row, a (lo, hi) law a clipped row.  Between
    two horizons the points still to be read are fixed, and so is their
    cone: at period t point (T, y) reads only y - (T - t) .. y.  When every
    policy rate is a (lo, hi) law constant for y >= t (rate cap <= 1, or a
    constant rate), V(t, y) = V(t, t) there, and the point is read at min(y0, T).

    V and every (lo, hi) law within [d_lo, d_hi] start on a band: the cells
    within a half width h = _start_half_width(max T, bridge) of the fluid paths
    y0 - (T - t) * clip(y0 / T, lo, hi) of the points, with (d_lo, rate cap)
    for V; h is 2 sqrt(T) + 2 for a bridge row, lo < y0 / T < hi at every
    point, and 4 sqrt(T) + 2 for V and every other row.  Such a row runs as a
    lower and an upper copy in one kernel call, whose edge bounds (edge_bound in
    _kernels.c) hold them below and above the full pass.  It is certified when
    the copies agree bit for bit at every point; else it alone runs again at
    twice the width.  A row whose band would cover half the cone's cells or
    more, and every table row, runs the whole cone once, as one exact copy.
    names label the rows in the DEBUG log, each with its final band, its
    retries, and the cells (_band_cells per copy, or _cone_cells) and kernel
    seconds of all its attempts.
    """
    tables = [np.ascontiguousarray(law.actions, dtype=float) if isinstance(law, ValueTable)
              else None for law in laws]
    # each row's (lo, hi); V's is the range of its fluid rate, which centres its band
    ranges = [(model.d_lo, model.rate_cap)] + [(0.0, 0.0) if table is not None else law
                                               for table, law in zip(tables, laws)]
    triangle = (all(table is None for table in tables)
                and all(hi <= max(lo, 1.0) for lo, hi in ranges[1:]))
    reads = [min(y0, T) if triangle else y0 for T, y0 in points]
    segments, done = [], 0
    for horizon in sorted({T for T, _ in points}):
        live = [k for k, (T, _) in enumerate(points) if T >= horizon]
        segments.append((done, horizon, min(reads[k] - points[k][0] for k in live),
                         max(reads[k] for k in live), live))
        done = horizon
    # the edge bounds need rates in [d_lo, d_hi] within [0, 1] and prices >= 0
    sound = (0.0 <= model.d_lo and model.d_hi <= min(1.0, model.alpha)
             and done <= _BAND_MAX_T)
    half = [_start_half_width(done, 0 < j and all(lo < y0 / T < hi for T, y0 in points))
            if sound and (j == 0 or (tables[j - 1] is None
                                     and model.d_lo <= lo <= hi <= model.d_hi))
            else math.inf for j, (lo, hi) in enumerate(ranges)]
    cone_cells = [_cone_cells(segment, triangle) for segment in segments]
    out = np.empty((len(points), len(ranges)))
    retries, pending = [0] * len(ranges), list(range(len(ranges)))
    cells, seconds = [0.0] * len(ranges), [0.0] * len(ranges)
    while pending:
        bands = {}
        for j in pending:
            if half[j] < math.inf:
                lines = [_band(segment, ranges[j], half[j], points) for segment in segments]
                band = sum(min(_band_cells(segment, line), cone)
                           for segment, line, cone in zip(segments, lines, cone_cells))
                if 2 * band < sum(cone_cells):
                    bands[j] = lines
                    cells[j] += 2 * band  # the lower and the upper copy
                else:
                    half[j] = math.inf
            if half[j] == math.inf:
                cells[j] += sum(cone_cells)
        runs = dict(zip(pending, kernels._map(
            functools.partial(_pass, model, points, reads, segments, triangle),
            [(j == 0, tables[j - 1] if j else None, ranges[j], bands.get(j)) for j in pending])))
        failed = []
        for j in pending:
            got, span, upper, seconds_j = runs[j]
            seconds[j] += seconds_j
            if upper is not None and not (span[0] >= 0 and got.tobytes() == upper.tobytes()):
                half[j] *= 2
                retries[j] += 1
                failed.append(j)
            else:
                out[:, j] = got
        pending = failed
    for j, name in enumerate(names):
        logger.debug("exact pass row %s: %s, %d retries, %d cells in %.6f s (%.3g ns per cell)",
                     name,
                     "whole cone" if half[j] == math.inf else f"band half width {half[j]:g}",
                     retries[j], cells[j], seconds[j], 1e9 * seconds[j] / max(cells[j], 1))
    return out.tolist()


def _band(segment, rates, half, points) -> tuple[float, float, float, float]:
    """(c0, s0, c1, s1): over the segment's periods t, the band c0 + s0 * t ..
    c1 + s1 * t holds the fluid paths of its live points, and half beyond.

    The chord of the lowest path lies below it (a minimum of lines is concave),
    the chord of the highest, cut at 0, above it (a maximum is convex)."""
    t_from, t_to, _, _, live = segment
    lo, hi = rates
    ends = (t_from + 1, t_to)
    paths = [[y0 - (T - t) * min(max(y0 / T, lo), hi) for t in ends]
             for T, y0 in (points[k] for k in live)]
    low = [min(path[i] for path in paths) - half for i in (0, 1)]
    high = [max(max(path[i], 0.0) for path in paths) + half for i in (0, 1)]
    s0, s1 = ((edge[1] - edge[0]) / max(ends[1] - ends[0], 1) for edge in (low, high))
    return low[0] - s0 * ends[0], s0, high[0] - s1 * ends[0], s1


def _cone_cells(segment, triangle) -> int:
    """The cells the cone has over the segment's periods t: sum of
    min(t, y_hi) (y_hi without triangle) - max(1, cone + t) + 1."""
    t_from, t_to, cone, y_hi, _ = segment
    a, b = t_from + 1, t_to
    n = b - a + 1
    tops = _sum_min(a, b, y_hi) if triangle else n * y_hi
    # max(1, cone + t) = cone + t + 1 - min(cone + t, 1)
    bottoms = _sum_min(a, b, b) + (cone + 1) * n - _sum_min(a + cone, b + cone, 1)
    return tops - bottoms + n


def _sum_min(a: int, b: int, k: int) -> int:
    """The sum of min(t, k) over the integers t = a .. b."""
    m = min(b, max(k, a - 1))  # the last t below k
    return (a + m) * (m - a + 1) // 2 + k * (b - m)


def _band_cells(segment, line) -> float:
    """About the cells the band line covers over the segment's periods,
    uncut by the cone: its mean width, plus the floor and ceil, each period."""
    t_from, t_to, _, _, _ = segment
    c0, s0, c1, s1 = line
    return (t_to - t_from) * (c1 - c0 + (s1 - s0) * (t_from + 1 + t_to) / 2 + 2)


def _pass(model, points, reads, segments, triangle, optimal, table, rates, lines):
    """One row's pass: the kernel row of cells 0 .. max(reads), V when optimal,
    else run by the DP table or the (lo, hi) law rates; with band lines (one per
    segment), a lower and an upper copy.  Its values at the points (the lower
    copy's), its last band (-1 where the band ran out), the upper copy's
    values at the points (None without lines) and the seconds in the kernel."""
    width = max(reads) + 1
    rows, ys = np.zeros((2 if lines else 1, width)), np.arange(width, dtype=float)
    # the band, then the run of cells where both copies hold the same bits: all, at 0
    span = np.array([0, width, 0, width - 1], dtype=np.int64)
    got = np.empty((len(rows), len(points)))
    pointer, stride = (None, 0) if table is None else (table.ctypes.data, table.shape[1])
    backward, seconds = kernels._kernel().backward, 0.0
    for s, (t_from, t_to, cone, y_hi, live) in enumerate(segments):
        band = np.array(lines[s] if lines else (0.0,) * 4)
        start = time.perf_counter()
        backward(rows[0], rows[1].ctypes.data if lines else None, width, ys, optimal, *rates,
               pointer, stride, band, span, model.alpha, model.beta, model.d_lo, model.d_hi,
               t_from, t_to, cone, y_hi, triangle, None)
        seconds += time.perf_counter() - start
        for k in live:
            if points[k][0] == t_to:
                got[:, k] = rows[:, reads[k]]
    return got[0], span, got[1] if lines else None, seconds


def _check_budget(lattice: int) -> None:
    if lattice > EXACT_CELL_BUDGET:
        raise ResourceGuardError(f"backward pass over {lattice} lattice cells "
                                 f"exceeds the budget of {EXACT_CELL_BUDGET}")


def exact_passes(cells, setup) -> list[dict[str, float]]:
    """exact_values at cells (key, T, y0): one pass per key, whose setup(key) is
    (model, policies); all passes are checked against the budget before any runs."""
    if not cells:
        return []
    _check_budget(max(T for _, T, _ in cells) * (max(y0 for _, _, y0 in cells) + 1))
    found = {}
    for key in dict.fromkeys(key for key, _, _ in cells):
        points = [(T, y0) for k, T, y0 in cells if k == key]
        model, policies = setup(key)
        found.update(zip(((key, *p) for p in points), exact_values(model, points, policies)))
    return [found[cell] for cell in cells]


def exact_policy_values(model: DemandModel, T: int, y0: int,
                        policies: dict[str, object] | None = None) -> dict[str, float]:
    """exact_values at the single point (T, y0), within EXACT_CELL_BUDGET."""
    _check_budget(T * (y0 + 1))
    return exact_values(model, [(T, y0)], policies)[0]


def dp_value(model: DemandModel, T: int, y0: int) -> float:
    """V(T, y0) with O(y0) memory."""
    return exact_policy_values(model, T, y0)["dp"]


# -- multiple products -------------------------------------------------------


class MultiResolvingPolicy(_LawPolicy):
    """Re-solving heuristic for the multi-product model: its law is the model itself.

    decide re-solves one state with solve_fluid_multi, for any number of products."""

    def __init__(self, model: MultiDemandModel):
        self.model = model

    def rate_law(self) -> MultiDemandModel:
        """The model whose fluid problem rates_batch re-solves (see law_rates)."""
        return self.model

    def decide(self, y: np.ndarray, t: int) -> PolicyDecision:
        y = np.asarray(y, dtype=float)
        rates = solve_fluid_multi(self.model, y / t).x_c
        return PolicyDecision(price=self.model.price_of_rate(rates), demand_rate=rates)


def solve_dp_multi(model: MultiDemandModel, T: int, y0) -> float:
    """Exact optimal value for two products with per-product unit sales.

    Backward induction over the integer inventory lattice, as one call of
    the compiled backward2 kernel.  The one-step objective in the
    demand-rate pair is a quadratic whose diagonal curvature comes from H
    (strictly negative), so its box-constrained maximum is found exactly by
    enumerating the interior and clipped-edge stationary points.
    """
    if model.n != 2:
        raise UnsupportedModelError("exact multi-product DP is implemented for n = 2 only")
    if np.shape(y0) != (2,):
        raise DomainError("need y0 a nonnegative integer pair")
    T = _whole_at_least(T, 1, "T")
    y1, y2 = (_whole_at_least(y, 0, "y0") for y in y0)
    m1, m2 = y1 + 1, y2 + 1
    if T * m1 * m2 > MULTI_STATE_CAP:
        raise ResourceGuardError(f"state space {T * m1 * m2} exceeds cap {MULTI_STATE_CAP}")
    V = np.zeros((m1, m2))
    kernels._kernel().backward2(V, m1, m2, T, model.g, model.H, model.box_hi)
    return float(V[y1, y2])
