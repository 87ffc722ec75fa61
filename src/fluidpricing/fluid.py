"""Fluid relaxation solvers for single and multiple products.

The fluid problem maximizes the mean revenue rate subject to the demand
rate staying below the current normalized inventory (and inside the model
domain).  For one product the solution is the closed-form min rule; for
several products it is a box-constrained strictly concave quadratic
program solved by a primal active-set method, the compiled box_qp.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .demand import DemandModel, MultiDemandModel
from .errors import DegeneracyWarning, DomainError, SolverError

# the tolerances of the compiled box_qp, ACTIVE_TOL and DUAL_TOL in _kernels.c
ACTIVE_TOL = 1e-10
DUAL_TOL = 1e-10
# box_qp's status in info[0] (BOX_QP_SINGULAR and BOX_QP_BUDGET in _kernels.c)
_BOX_QP_SINGULAR, _BOX_QP_BUDGET = 1, 2


@dataclass
class FluidSolution:
    """Constrained optimum of the fluid problem.

    ``lam`` holds the duals of the inventory constraints, embedded on the
    full index range (zero off the active set).  ``active_set`` lists the
    inventory-constrained products.  ``clamped`` marks a single-product
    right-hand side below the demand floor that was lifted to d_lo;
    ``degenerate`` marks an active constraint whose dual is (near) zero,
    i.e. boundary inventory.  ``changes`` counts the working-set changes
    (bounds released or blocking a step) of the multi-product active-set
    method, 0 for the closed form; to_dict leaves it out.
    """

    x_c: np.ndarray
    lam: np.ndarray
    active_set: list[int]
    objective: float
    clamped: bool = False
    degenerate: bool = False
    changes: int = 0

    def to_dict(self) -> dict:
        return {
            "x_c": self.x_c.tolist(),
            "lambda": self.lam.tolist(),
            "active_set": self.active_set,
            "objective": self.objective,
        }


def solve_fluid_single(model: DemandModel, x: float) -> FluidSolution:
    """Closed-form fluid solution for one product: x_c = min(x, rate cap).

    The rate cap is the revenue maximizer x_u kept inside the demand
    interval [d_lo, d_hi].  Right-hand sides below the demand floor d_lo
    arise when inventory is nearly depleted; they are clamped up to d_lo
    and flagged, matching the simulator's shut-off-at-zero convention.
    """
    if not x >= 0:  # also rejects NaN
        raise DomainError(f"normalized inventory must be nonnegative, got {x}")
    clamped = x < model.d_lo
    x_c = min(max(x, model.d_lo), model.rate_cap)
    active = x <= model.rate_cap + ACTIVE_TOL
    # a dual is >= 0: below a cap at d_lo (x_u < d_lo) the slope is negative
    lam = max(model.revenue_slope(x_c), 0.0) if active else 0.0
    degenerate = active and lam <= DUAL_TOL
    if degenerate:
        warnings.warn(
            f"inventory constraint active with near-zero dual at x={x} (boundary inventory)",
            DegeneracyWarning,
            stacklevel=2,
        )
    return FluidSolution(
        x_c=np.array([x_c]),
        lam=np.array([lam if active else 0.0]),
        active_set=[0] if active else [],
        objective=model.revenue_rate(x_c),
        clamped=clamped,
        degenerate=degenerate,
    )


def solve_fluid_multi(model: MultiDemandModel, x: np.ndarray) -> FluidSolution:
    """Maximize r over the box [0, min(box_hi, x)] by the compiled active-set method.

    Starts from the clipped unconstrained Newton point and alternates
    equality-constrained solves on the working set with ratio steps onto
    blocking bounds, releasing the most negative dual until the KKT
    conditions hold (see _box_qp).  Strict concavity makes every
    working-set system nonsingular, so failure to converge signals a bad
    model.
    """
    rhs = np.asarray(x, dtype=float)
    if rhs.shape != (model.n,):
        raise DomainError(f"inventory vector must have shape ({model.n},)")
    if not (rhs >= 0).all():  # also rejects NaN, on which the active set never settles
        raise DomainError("normalized inventory must be nonnegative componentwise")
    x_c, grad, objective, changes = _box_qp(model, np.zeros(model.n),
                                            np.minimum(model.box_hi, rhs))
    active = np.abs(x_c - rhs) <= ACTIVE_TOL
    lam = np.where(active, np.maximum(grad, 0.0), 0.0)
    active_set = active.nonzero()[0].tolist()
    degenerate = any(lam[k] <= DUAL_TOL for k in active_set)
    if degenerate:
        warnings.warn(
            "active inventory constraint with near-zero dual (boundary inventory region)",
            DegeneracyWarning,
            stacklevel=2,
        )
    return FluidSolution(
        x_c=x_c,
        lam=lam,
        active_set=active_set,
        objective=objective,
        degenerate=degenerate,
        changes=changes,
    )


def active_partition(model: MultiDemandModel, x: np.ndarray) -> tuple[list[int], list[int]]:
    """Split products into inventory-constrained (I) and unconstrained (U)."""
    sol = solve_fluid_multi(model, x)
    I = sol.active_set
    U = [k for k in range(model.n) if k not in I]
    return I, U


def _box_qp(model: MultiDemandModel, lb: np.ndarray, ub: np.ndarray):
    """Maximize r(x) = g.x + x.H.x/2 of the model over lb <= x <= ub, H negative definite.

    One call of the compiled box_qp (KernelUnavailableError when the
    kernels cannot be built): a primal active-set method from the clipped
    Newton point, with a coordinate whose bounds are equal pinned there.
    Returns the maximizer x, the gradient g + H x and the value r(x) there,
    and the count of working-set changes; SolverError for a singular
    working-set system or more than 2**n + 10 changes.
    """
    n = model.n
    x, work, info = np.empty(n), (ctypes.c_double * (n * (n + 4)))(), (ctypes.c_int64 * 2)()
    kernels._kernel().box_qp(n, model.H.ctypes.data, model.g.ctypes.data, _at(lb), _at(ub),
                             _at(x), work, (ctypes.c_int64 * n)(), info)
    if info[0] == _BOX_QP_SINGULAR:
        raise SolverError("singular working-set system; is H negative definite?")
    if info[0] == _BOX_QP_BUDGET:
        raise SolverError(f"active-set iteration exceeded 2**{n} + 10 working-set changes; "
                          "is the Hessian negative definite?")
    return x, np.frombuffer(work, count=n), work[n], info[1]


def _at(a: np.ndarray):
    """A pointer to the data of a writable, contiguous float64 array for a ctypes
    call, at about a third of the cost of a.ctypes.data."""
    return ctypes.byref(ctypes.c_double.from_buffer(a))


def box_qp2_batch(a11, a22, a12, q1, q2, ub1, ub2):
    """Exact elementwise maximization of a two-variable quadratic over boxes.

    Maximizes q1*x1 + q2*x2 + (a11*x1^2 + a22*x2^2)/2 + a12*x1*x2 over
    0 <= x_k <= ub_k, with all arguments broadcasting elementwise.  The
    diagonal curvatures a11, a22 must be negative: then every edge
    restriction is strictly concave, so the maximum is attained either at
    the interior stationary point (when the quadratic is concave) or at a
    clipped edge-stationary point, and enumerating those five candidates
    is exact.  Returns (x1, x2, objective).
    """
    a11, a22, a12, q1, q2, ub1, ub2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a11, a22, a12, q1, q2, ub1, ub2))
    )

    def value(x1, x2):
        return q1 * x1 + q2 * x2 + 0.5 * (a11 * x1 * x1 + a22 * x2 * x2) + a12 * x1 * x2

    # clipped stationary points of the four edges
    cands = []
    for v1 in (np.zeros_like(ub1), ub1):
        x2 = np.clip(-(q2 + a12 * v1) / a22, 0.0, ub2)
        cands.append((v1, x2, value(v1, x2)))
    for v2 in (np.zeros_like(ub2), ub2):
        x1 = np.clip(-(q1 + a12 * v2) / a11, 0.0, ub1)
        cands.append((x1, v2, value(x1, v2)))
    # interior stationary point, valid where the quadratic is concave
    det = a11 * a22 - a12 * a12
    with np.errstate(divide="ignore", invalid="ignore"):
        xi1 = (-a22 * q1 + a12 * q2) / det
        xi2 = (a12 * q1 - a11 * q2) / det
    ok = (det > 0) & (xi1 >= 0) & (xi1 <= ub1) & (xi2 >= 0) & (xi2 <= ub2)
    xi1 = np.where(ok, xi1, 0.0)
    xi2 = np.where(ok, xi2, 0.0)
    cands.append((xi1, xi2, np.where(ok, value(xi1, xi2), -np.inf)))

    best_x1, best_x2, best_v = cands[0]
    for x1, x2, v in cands[1:]:
        take = v > best_v
        best_x1 = np.where(take, x1, best_x1)
        best_x2 = np.where(take, x2, best_x2)
        best_v = np.where(take, v, best_v)
    return best_x1, best_x2, best_v


@dataclass
class PartialOptimum:
    """Revenue maximized over the unconstrained products with the constrained block pinned.

    ``grad`` is the envelope gradient (the revenue gradient restricted to
    the pinned block at the full solution); ``hess`` the Schur complement
    of the free block in the Hessian; ``lipschitz_z`` a bound on how fast
    the full solution moves per unit change of the pinned sub-vector.
    """

    z: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray
    full_solution: np.ndarray
    lipschitz_z: float


def partial_optimum(model: MultiDemandModel, I: list[int], z) -> PartialOptimum:
    """Maximize r over x in the domain box with x[I] pinned at z."""
    I = sorted(int(k) for k in I)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (len(I),):
        raise DomainError(f"z must have one entry per pinned index, expected {len(I)}")
    if np.any(z < -ACTIVE_TOL) or np.any(z > model.box_hi[I] + ACTIVE_TOL):
        raise DomainError("z outside the projection of the domain box")

    n = model.n
    U = [k for k in range(n) if k not in I]
    lb = np.zeros(n)
    ub = model.box_hi.copy()
    lb[I] = ub[I] = np.clip(z, 0.0, model.box_hi[I])  # pinned: equal bounds
    x_star, grad_full, value, _ = _box_qp(model, lb, ub)
    grad = grad_full[I]
    # Schur complement over the free (interior) part of the unpinned block
    free_U = [k for k in U if lb[k] + ACTIVE_TOL < x_star[k] < ub[k] - ACTIVE_TOL]
    H = model.H
    H_II = H[np.ix_(I, I)]
    if free_U:
        H_IF = H[np.ix_(I, free_U)]
        H_FF = H[np.ix_(free_U, free_U)]
        J_u = -np.linalg.solve(H_FF, H_IF.T)  # d x_U* / d z
        hess = H_II + H_IF @ J_u
        lip = float(np.sqrt(np.linalg.eigvalsh(np.eye(len(I)) + J_u.T @ J_u).max())) if I else 1.0
    else:
        hess = H_II
        lip = 1.0
    return PartialOptimum(
        z=z,
        value=value,
        grad=grad,
        hess=hess,
        full_solution=x_star,
        lipschitz_z=lip,
    )
