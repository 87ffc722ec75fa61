"""Python and numpy references of the compiled loops, the package's only engines.

Each function repeats its kernel in _kernels.c operation by operation, so the
tests compare the two bit for bit: backward (backward), simulate and
simulate_batch (forward, forward2), noise_sum (noise_sum) and backward_multi
(backward2).  harmonic_series is the reference of forward's stopping-time
tracker, from which simulate fills SimTrace.t_sharp.  uniform_block and
harmonic_identity_check are test helpers with no caller in the package.
"""

import numpy as np

from fluidpricing import rng
from fluidpricing.demand import KIND_BERNOULLI, MultiDemandModel
from fluidpricing.errors import DomainError
from fluidpricing.fluid import box_qp2_batch
from fluidpricing.policies import ValueTable
from fluidpricing.sim import BatchResult, SimTrace, gamma


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


def noise_sum(seeds: np.ndarray, T: int) -> np.ndarray:
    """Per stream, the sum of the uniforms at counters 0 .. T - 1, added one at a
    time in counter order (accumulate is sequential).  The reference of the noise_sum
    kernel."""
    draws = rng.uniforms(seeds[:, None], np.arange(T)[None, :])
    return np.add.accumulate(draws, axis=1)[:, -1]
