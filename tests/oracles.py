"""Python and numpy references of the compiled loops, the package's only engines.

Each function repeats its kernel in _kernels.c operation by operation, so the
tests compare the two bit for bit: backward and band_copy (backward, over
the whole lattice and as one bound copy of a band), simulate and
simulate_batch (forward, forward2), noise_sum (noise_sum), backward_multi
and resolving_multi (backward2's V and W rows) and box_qp_max (box_qp).
harmonic_series is the reference of forward's stopping-time tracker, from
which simulate fills SimTrace.t_sharp.
_box_qp_max is the numpy active set that box_qp replaced, on LAPACK solves:
it agrees with box_qp to rounding, not bit for bit.  simulate_multi is
sim.simulate_multi with one uniform draw per period.  uniform_block and
harmonic_identity_check are test helpers with no caller in the package.
"""

import math

import numpy as np

from fluidpricing import rng
from fluidpricing.demand import KIND_BERNOULLI, MultiDemandModel
from fluidpricing.errors import DomainError, SolverError
from fluidpricing.fluid import ACTIVE_TOL, DUAL_TOL, box_qp2_batch, solve_fluid_multi
from fluidpricing.policies import ValueTable
from fluidpricing.sim import BatchResult, MultiSimTrace, SimTrace, gamma

# KKT_TOL of box_qp in _kernels.c
_KKT_TOL = 1e-12
# SLACK of backward in _kernels.c, by which an upper copy raises its edge bounds
_SLACK = 1.0 + 1e-9


def decide(model, policy, y: float, t: int):
    """One state's (price, rate) in Python floats, None when y <= 0 (shut off).

    The rate is min(max(y / t, lo), hi) for a (lo, hi) law and the action
    actions[t, int(y)] for a DP table, priced by model.inverse_demand.
    """
    if y <= 0:
        return None
    law = policy.rate_law()
    if isinstance(law, ValueTable):
        rate = float(law.actions[t, int(y)])
    else:
        lo, hi = law
        rate = min(max(y / t, lo), hi)
    return model.inverse_demand(rate), rate


def simulate(model, policy, T: int, y0, seed: int) -> SimTrace:
    """One trace, period by period in Python floats on the stream keyed by seed mod 2**64.

    The reference of sim.simulate, one replication of the forward kernel;
    t_sharp is read off harmonic_series in the band gamma(model, y0 / T),
    None where that band is negative.
    """
    u = uniform_block(seed, 0, T)
    is_bernoulli = model.kind == KIND_BERNOULLI
    w = 0.0 if is_bernoulli else float(model.noise_half_width)
    price, rate, xi, realized, inventory, revenue = (np.empty(T) for _ in range(6))
    y = float(y0)
    for i in range(T):
        t = T - i
        dec = decide(model, policy, y, t)
        if dec is None:
            price[i], rate[i], xi[i], realized[i], revenue[i] = np.inf, 0.0, 0.0, 0.0, 0.0
            inventory[i] = y
            continue
        p, d = dec
        if is_bernoulli:
            sale = 1.0 if u[i] < d else 0.0
            xi[i] = sale - d
            realized[i] = sale
        else:
            xi[i] = (2.0 * u[i] - 1.0) * w
            realized[i] = d + xi[i]
        sold = min(realized[i], y)
        price[i], rate[i] = p, d
        revenue[i] = p * sold
        y = max(0.0, y - realized[i])
        inventory[i] = y
    xi_bar, gam = harmonic_series(xi, T), gamma(model, float(y0) / T)
    # the first period, scanning chronologically, whose noise leaves the band; floored at 2
    t_sharp = (next((t for t in range(T, 1, -1) if abs(xi_bar[t - 1]) > gam), 2)
               if gam >= 0 else None)
    return SimTrace(T=T, y0=float(y0), seed=int(seed), tau_remaining=np.arange(T, 0, -1),
                    price=price, demand_rate=rate, xi=xi, realized_demand=realized,
                    inventory_after=inventory, revenue=revenue, t_sharp=t_sharp)


def harmonic_series(xi: np.ndarray, T: int) -> np.ndarray:
    """Partial sums xi_bar[t] = sum over tau > t of xi_tau / (tau - 1).

    ``xi`` is chronological (first entry is the period with T remaining).
    Returns an array indexed by remaining periods t = 0..T; entry T is 0,
    entry 0 is NaN (the series is defined down to t = 1).
    """
    out = np.full(T + 1, np.nan)
    out[T] = 0.0
    acc = 0.0
    for i in range(T):
        t = T - i
        if t >= 2:
            acc += xi[i] / (t - 1)
            out[t - 1] = acc
    return out


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """``count`` consecutive uniforms of one stream, beginning at ``start``."""
    return rng.uniforms(np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                        np.arange(start, start + count, dtype=np.uint64))


def harmonic_identity_check(t_sharp: int, delta_seq, xi_r_seq, xi_star_seq) -> float:
    """Residual of the telescoping identity of harmonic correction sums.

    Sequences are indexed tau = T .. t_sharp (chronological order, first
    entry is tau = T).  With D = delta and e = xi_r - xi_star, the sum of
    [D_tau - Dbar_{->tau} + ebar_{->tau} - e_tau] over tau = t_sharp..T
    minus (t_sharp - 1) * (Dbar_{->t_sharp-1} - ebar_{->t_sharp-1})
    vanishes identically; the return value is its floating-point residual.
    """
    delta = np.asarray(delta_seq, dtype=float)
    xi_r = np.asarray(xi_r_seq, dtype=float)
    xi_star = np.asarray(xi_star_seq, dtype=float)
    if not (delta.shape == xi_r.shape == xi_star.shape):
        raise DomainError("sequences must share one length")
    n = delta.size
    T = t_sharp + n - 1
    e = xi_r - xi_star
    taus = np.arange(T, t_sharp - 1, -1)

    def tail_sums(a):
        # hbar[j] = sum_{k<j} a_k/(tau_k - 1) = harmonic sum over tau > tau_j
        contrib = a / (taus - 1.0)
        hbar = np.concatenate([[0.0], np.cumsum(contrib[:-1])])
        final = hbar[-1] + contrib[-1]  # accumulated through tau = t_sharp
        return hbar, final

    dbar, dbar_final = tail_sums(delta)
    ebar, ebar_final = tail_sums(e)
    total = float(np.sum(delta - dbar + ebar - e))
    total -= (t_sharp - 1) * (dbar_final - ebar_final)
    return total


def simulate_batch(model, policy, T: int, y0, base_seed: int, n_reps: int,
                   track_t_sharp: bool = False) -> BatchResult:
    """n_reps replications in lockstep, one numpy step per period, rates from
    policy.rates_batch.  The reference of the forward and forward2 kernels
    (see sim.simulate_batch for the streams and the dynamics).
    """
    multi = isinstance(model, MultiDemandModel)
    n = model.n if multi else 1
    unit_sales = multi or model.kind == KIND_BERNOULLI
    w = 0.0 if unit_sales else float(model.noise_half_width)
    seeds = rng.replication_seed(base_seed, np.arange(n_reps))
    keys, products = (seeds[:, None], np.arange(n)) if multi else (seeds, 0)
    y = np.full((n_reps, *np.shape(y0)), y0, dtype=float)
    total, sum_xi, harm = np.zeros(n_reps), np.zeros(n_reps), np.zeros(n_reps)
    t_sharp = np.full(n_reps, 2, dtype=int)
    gam = gamma(model, float(y0) / T) if track_t_sharp else 0.0
    undecided = np.ones(n_reps, dtype=bool)
    for i in range(T):
        t = T - i
        u = rng.uniforms(keys, i * n + products)
        active = y > 0
        rates = np.where(active, policy.rates_batch(y, t), 0.0)
        prices = np.where(active, model.price_of_rate(rates), 0.0)
        if unit_sales:
            realized = (u < rates).astype(float)
            xi = realized - rates
        else:
            xi = (2.0 * u - 1.0) * w
            realized = rates + xi
        xi, realized = np.where(active, xi, 0.0), np.where(active, realized, 0.0)
        total += _per_rep(prices * np.minimum(realized, y))
        sum_xi += _per_rep(xi)
        y = np.maximum(0.0, y - realized)
        if track_t_sharp and t >= 2:
            harm += xi / (t - 1)
            exited = undecided & (np.abs(harm) > gam)
            t_sharp[exited] = t
            undecided &= ~exited
    return BatchResult(total_revenue=total, sum_xi=sum_xi,
                       t_sharp=t_sharp if track_t_sharp else None)


def _per_rep(a: np.ndarray) -> np.ndarray:
    # sum over products (a matmul: sum(axis=1) is ~10x slower on narrow rows);
    # one product's array is already per replication
    return a if a.ndim == 1 else a @ np.ones(a.shape[1])


def backward(model, T: int, y_max: int, policies=()):
    """Yield (t, values, rates) for t = 1..T, both arrays updated in place.

    Row 0 is V(t, y), whose rate clip((alpha + beta*(V(t-1,y-1) - V(t-1,y)))/2,
    d_lo, d_hi) maximizes the concave one-step objective; row 1 + i is the
    value of policies[i], at the rates of its rates_batch.  Every row gets
    r(d) + d*W(t-1,y-1) + (1-d)*W(t-1,y).  The reference of the backward
    kernel, over the whole lattice.
    """
    alpha, beta, d_lo, d_hi = model.alpha, model.beta, model.d_lo, model.d_hi
    values = np.zeros((1 + len(policies), y_max + 1))
    rates = np.empty((1 + len(policies), y_max))
    acc, tmp = np.empty_like(rates), np.empty_like(rates)
    below, here, d = values[:, :-1], values[:, 1:], rates[0]
    y_pos = np.arange(1, y_max + 1)
    for t in range(1, T + 1):
        np.clip((alpha + beta * (below[0] - here[0])) / 2.0, d_lo, d_hi, out=d)
        for row, pol in enumerate(policies, 1):
            rates[row] = pol.rates_batch(y_pos, t)
        # d * (alpha - d) / beta + d * W[y-1] + (1 - d) * W[y], in that order
        np.subtract(alpha, rates, out=acc)
        np.multiply(rates, acc, out=acc)
        np.divide(acc, beta, out=acc)
        np.multiply(rates, below, out=tmp)
        np.add(acc, tmp, out=acc)
        np.subtract(1.0, rates, out=tmp)
        np.multiply(tmp, here, out=tmp)
        np.add(acc, tmp, out=here)
        yield t, values, rates


def band_copy(model, T: int, width: int, upper: bool, rates, band, cone: int,
              y_hi: int, triangle: bool):
    """Yield (t, row, span) for t = 1..T: one bound copy of the banded backward
    kernel, computed on its own, with row (width cells) updated in place.

    rates is None for V, else the (lo, hi) law clip(y / t, lo, hi).  At
    period t the copy updates the cone's cells [max(1, cone + t), t or y_hi]
    within floor(c0 + s0 t) .. ceil(c1 + s1 t) (band = (c0, s0, c1, s1)), kept
    within span[0] .. span[1] + 1 of the previous band; span becomes the band,
    or [-1, -1] for good once no cell is left.  Beside the band it writes 0
    (the lower copy) or, for the upper copy, SLACK times V at the band's
    bottom (y p_hi for a policy) below and the fluid bound above (for V the
    smaller of it and the band's top plus p_hi).  With triangle, the cell
    t + 1 gets the cell t when the band reaches the cone's top t.
    """
    alpha, beta, d_lo, d_hi = model.alpha, model.beta, model.d_lo, model.d_hi
    p_hi = (alpha - d_lo) / beta
    cap = min(max(alpha / 2.0, d_lo), d_hi)
    row, ys, span = np.zeros(width), np.arange(width, dtype=float), [0, width]

    def fluid(t, y):
        x = y / t if y / t < cap else cap
        return t * (x * p_hi if x <= d_lo else x * (alpha - x) / beta)

    def edge(t, y, a, b):
        if not upper:
            return 0.0
        if y < a:
            return _SLACK * (row[a] if rates is None else y * p_hi)
        bound = fluid(t, y)
        top = row[b] + p_hi
        return _SLACK * (top if rates is None and top < bound else bound)

    for t in range(1, T + 1):
        first, last = max(cone + t, 1), t if triangle and t < y_hi else y_hi
        if span[0] >= 0:
            low = math.floor(band[0] + band[1] * t)
            high = math.ceil(band[2] + band[3] * t)
            a = max(first if low < first else last if low > last else low, span[0])
            b = min(last if high > last else a if high < a else high, span[1] + 1)
            span = [a, b] if a <= b else [-1, -1]
        if span[0] >= 0:
            below, here = row[a - 1:b], row[a:b + 1]
            if rates is None:
                d = np.clip((alpha + beta * (below - here)) / 2.0, d_lo, d_hi)
            else:
                d = np.clip(ys[a:b + 1] / t, *rates)
            row[a:b + 1] = d * (alpha - d) / beta + d * below + (1.0 - d) * here
            if a > first:
                row[a - 1] = edge(t, a - 1, a, b)
            if b < last:
                row[b + 1] = edge(t, b + 1, a, b)
            if triangle and t < y_hi and b == last:
                row[t + 1] = row[t]
        yield t, row, span


def backward_multi(model, T: int, V: np.ndarray) -> None:
    """T periods of the two-product Bellman recursion on the lattice V, in place.

    V[y1, y2] gains the box QP maximum of the one-step objective, whose
    linear and cross terms come from the values after a unit sale of
    product 1 (b), of product 2 (cc) and of both (dd).  The reference of
    the backward2 kernel.
    """
    m1, m2 = V.shape
    H, g = model.H, model.g
    ub1 = np.where(np.arange(m1) >= 1, model.box_hi[0], 0.0)[:, None] * np.ones((1, m2))
    ub2 = np.where(np.arange(m2) >= 1, model.box_hi[1], 0.0)[None, :] * np.ones((m1, 1))
    for _ in range(T):
        b = np.zeros_like(V)
        b[1:, :] = V[:-1, :]  # after a unit sale of product 1
        cc = np.zeros_like(V)
        cc[:, 1:] = V[:, :-1]
        dd = np.zeros_like(V)
        dd[1:, 1:] = V[:-1, :-1]
        w = V - b - cc + dd
        q1 = g[0] + b - V
        q2 = g[1] + cc - V
        V += box_qp2_batch(H[0, 0], H[1, 1], H[0, 1] + w, q1, q2, ub1, ub2)[2]


def resolving_multi(model, T: int, V: np.ndarray) -> None:
    """T periods of the value recursion of the model's own re-solving policy on
    the two-product lattice V, in place.

    With t periods left, state (y1, y2) takes forward2's rates: the fluid
    re-solve box_qp2_batch(H, g) on ub = min(box_hi, y / t), as law_rates has
    it.  V[y1, y2] gains backward_multi's one-step objective at those rates,
    not its maximum.  The reference of the backward2 kernel's W row.
    """
    m1, m2 = V.shape
    H, g = model.H, model.g
    y1, y2 = np.meshgrid(np.arange(m1, dtype=float), np.arange(m2, dtype=float), indexing="ij")
    for t in range(1, T + 1):
        x1, x2, _ = box_qp2_batch(H[0, 0], H[1, 1], H[0, 1], g[0], g[1],
                                  np.minimum(model.box_hi[0], y1 / t),
                                  np.minimum(model.box_hi[1], y2 / t))
        b, cc, dd = np.zeros_like(V), np.zeros_like(V), np.zeros_like(V)
        b[1:, :] = V[:-1, :]  # after a unit sale of product 1, of product 2 and of both
        cc[:, 1:] = V[:, :-1]
        dd[1:, 1:] = V[:-1, :-1]
        a12 = H[0, 1] + (V - b - cc + dd)
        q1 = g[0] + b - V
        q2 = g[1] + cc - V
        V += q1 * x1 + q2 * x2 + 0.5 * (H[0, 0] * x1 * x1 + H[1, 1] * x2 * x2) + a12 * x1 * x2


def noise_sum(seeds: np.ndarray, T: int) -> np.ndarray:
    """Per stream, the sum of the uniforms at counters 0 .. T - 1, added one at a
    time in counter order (accumulate is sequential).  The reference of the noise_sum
    kernel."""
    draws = rng.uniforms(seeds[:, None], np.arange(T)[None, :])
    return np.add.accumulate(draws, axis=1)[:, -1]


def box_qp_max(H: np.ndarray, g: np.ndarray, lb: np.ndarray, ub: np.ndarray):
    """(x, grad, value, changes): the maximizer x of g.x + x.H.x/2 over lb <= x <= ub,
    the gradient and the value there, and the count of working-set changes, in
    Python floats in the operation order of the box_qp kernel (see its comment in
    _kernels.c); SolverError where the kernel reports a status."""
    n = len(g)
    H = [[float(v) for v in row] for row in H]
    g, lb = [float(v) for v in g], [float(v) for v in lb]
    hi = [u if u > lo else lo for u, lo in zip((float(v) for v in ub), lb)]
    budget = 2**n + 10 if n < 63 else 2**63 - 1

    def clip(v, lo, up):
        v = v if v > lo else lo
        return v if v < up else up

    def solve_free(free, x_eq):
        rows = [i for i in range(n) if free[i]]
        A = [[H[i][j] for j in rows] for i in rows]
        b = []
        for i in rows:
            acc = 0.0
            for j in range(n):
                if not free[j]:
                    acc += H[i][j] * x_eq[j]
            b.append(-(g[i] + acc))
        m = len(rows)
        for c in range(m):
            p = c
            for r in range(c + 1, m):
                if abs(A[r][c]) > abs(A[p][c]):
                    p = r
            if A[p][c] == 0.0:
                raise SolverError("singular working-set system")
            A[c], A[p], b[c], b[p] = A[p], A[c], b[p], b[c]
            for r in range(c + 1, m):
                f = A[r][c] / A[c][c]
                for k in range(c + 1, m):
                    A[r][k] -= f * A[c][k]
                b[r] -= f * b[c]
        for r in range(m - 1, -1, -1):
            acc = b[r]
            for k in range(r + 1, m):
                acc -= A[r][k] * b[k]
            b[r] = acc / A[r][r]
        for i, v in zip(rows, b):
            x_eq[i] = v

    newton = [0.0] * n
    solve_free([True] * n, newton)
    x = [clip(v, lo, up) for v, lo, up in zip(newton, lb, hi)]
    pinned = [up == lo for lo, up in zip(lb, hi)]
    at_lo = [not pin and v <= lo + ACTIVE_TOL for v, lo, pin in zip(x, lb, pinned)]
    at_up = [not pin and v >= up - ACTIVE_TOL for v, up, pin in zip(x, hi, pinned)]
    changes = 0
    while True:
        free = [not (pinned[k] or at_lo[k] or at_up[k]) for k in range(n)]
        x_eq = [hi[k] if at_up[k] else lb[k] if at_lo[k] else x[k] for k in range(n)]
        solve_free(free, x_eq)
        step = [a - v for a, v in zip(x_eq, x)]
        if max((abs(v) for v in step), default=0.0) <= _KKT_TOL:
            worst, release = -DUAL_TOL, None
            for k in range(n):
                if not (at_lo[k] or at_up[k]):
                    continue
                acc = 0.0
                for j in range(n):
                    acc += H[k][j] * x[j]
                grad = g[k] + acc
                if at_up[k] and grad < worst:
                    worst, release = grad, (at_up, k)
                elif at_lo[k] and -grad < worst:
                    worst, release = -grad, (at_lo, k)
            if release is None:
                x = [clip(v, lo, up) for v, lo, up in zip(x, lb, hi)]
                grad, gx, xhx = [], 0.0, 0.0
                for k in range(n):
                    acc = 0.0
                    for j in range(n):
                        acc += H[k][j] * x[j]
                    grad.append(g[k] + acc)
                    gx += g[k] * x[k]
                    xhx += x[k] * acc
                return np.array(x), np.array(grad), gx + 0.5 * xhx, changes
            flags, k = release
            flags[k] = False
        else:
            alpha, block = 1.0, None
            for k in range(n):
                if not free[k]:
                    continue
                if step[k] > _KKT_TOL and x[k] + step[k] > hi[k]:
                    a = (hi[k] - x[k]) / step[k]
                    if a < alpha:
                        alpha, block = a, (at_up, k, hi[k])
                elif step[k] < -_KKT_TOL and x[k] + step[k] < lb[k]:
                    a = (lb[k] - x[k]) / step[k]
                    if a < alpha:
                        alpha, block = a, (at_lo, k, lb[k])
            x = [v + alpha * d for v, d in zip(x, step)]
            if block is None:
                continue
            flags, k, bound = block
            flags[k] = True
            x[k] = bound
        changes += 1
        if changes > budget:
            raise SolverError(f"active-set iteration exceeded {budget} working-set changes")


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, b), with a singular A a SolverError."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular working-set system ({exc}); is H negative definite?") from exc


def _box_qp_max(H: np.ndarray, g: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                fixed: np.ndarray | None = None) -> np.ndarray:
    """Maximize g.x + x.H.x/2 over lb <= x <= ub, H negative definite.

    ``fixed`` marks coordinates pinned at their (equal) bounds from the
    start; they are never released.  Primal active-set iteration with a
    working-set change budget of 2**n + 10.  The numpy solver of
    fluid.solve_fluid_multi before the box_qp kernel.
    """
    n = g.shape[0]
    if fixed is None:
        fixed = np.zeros(n, dtype=bool)
    ub = np.maximum(ub, lb)  # guard FP dust in callers

    # start at the clipped Newton point, feasible by construction
    x = np.clip(_solve(-H, g), lb, ub)
    at_lo = ~fixed & (x <= lb + ACTIVE_TOL)
    at_up = ~fixed & (x >= ub - ACTIVE_TOL)
    budget = 2**n + 10
    changes = 0
    while True:
        free = ~(fixed | at_lo | at_up)
        x_eq = x.copy()
        x_eq[at_lo & ~fixed] = lb[at_lo & ~fixed]
        x_eq[at_up & ~fixed] = ub[at_up & ~fixed]
        if free.any():
            rhs = -(g[free] + H[np.ix_(free, ~free)] @ x_eq[~free])
            x_eq[free] = _solve(H[np.ix_(free, free)], rhs)
        step = x_eq - x
        if np.abs(step).max(initial=0.0) <= _KKT_TOL:
            # working-set optimum reached: check duals
            grad = g + H @ x
            release = None
            worst = -DUAL_TOL
            for k in range(n):
                if fixed[k]:
                    continue
                if at_up[k] and grad[k] < worst:
                    worst, release = grad[k], (k, "up")
                elif at_lo[k] and -grad[k] < worst:
                    worst, release = -grad[k], (k, "lo")
            if release is None:
                return np.clip(x, lb, ub)
            k, side = release
            (at_up if side == "up" else at_lo)[k] = False
            changes += 1
        else:
            # ratio test toward the equality solution
            alpha = 1.0
            blocker = None
            for k in np.nonzero(free)[0]:
                if step[k] > _KKT_TOL and x[k] + step[k] > ub[k]:
                    a = (ub[k] - x[k]) / step[k]
                    if a < alpha:
                        alpha, blocker = a, (k, "up")
                elif step[k] < -_KKT_TOL and x[k] + step[k] < lb[k]:
                    a = (lb[k] - x[k]) / step[k]
                    if a < alpha:
                        alpha, blocker = a, (k, "lo")
            x = x + alpha * step
            if blocker is not None:
                k, side = blocker
                (at_up if side == "up" else at_lo)[k] = True
                x[k] = ub[k] if side == "up" else lb[k]
                changes += 1
        if changes > budget:
            raise SolverError(
                f"active-set iteration exceeded {budget} working-set changes; "
                "is the Hessian negative definite?"
            )


def simulate_multi(model, T: int, y0, seed: int) -> MultiSimTrace:
    """The model's re-solving trace, period by period, drawing each period's n
    uniforms with one rng.uniforms call at counters i*n .. i*n + n - 1 of the
    stream keyed by seed mod 2**64.  The reference of sim.simulate_multi, which
    draws all T*n of them at once."""
    n = model.n
    y = np.asarray(y0, dtype=float).copy()
    prices, rates, xi, sales, inventory = (np.zeros((T, n)) for _ in range(5))
    revenue = np.zeros(T)
    for i in range(T):
        rate = solve_fluid_multi(model, y / (T - i)).x_c
        price = model.price_of_rate(rate)
        u = uniform_block(seed, i * n, n)
        sale = (u < rate).astype(float)
        prices[i], rates[i] = price, rate
        sales[i] = np.minimum(sale, y)
        xi[i] = sale - rate
        revenue[i] = float(price @ sales[i])
        y = np.maximum(0.0, y - sale)
        inventory[i] = y
    return MultiSimTrace(T=T, y0=np.asarray(y0, dtype=float), seed=int(seed),
                         tau_remaining=np.arange(T, 0, -1), prices=prices, demand_rates=rates,
                         xi=xi, sales=sales, inventory_after=inventory, revenue=revenue)
