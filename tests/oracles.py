"""Numpy references for compiled loops that have no numpy engine in the package.

Each function repeats its kernel in _kernels.c operation by operation, so the
tests compare the two bit for bit.
"""

import numpy as np

from fluidpricing import rng
from fluidpricing.fluid import box_qp2_batch


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


def noise_sum(seeds: np.ndarray, T: int, chunk: int) -> np.ndarray:
    """Per stream, the sum of the uniforms at counters 0 .. T - 1, each block of
    chunk counters summed by numpy as one row.  The reference of the noise_sum kernel."""
    acc = np.zeros(seeds.size)
    for start in range(0, T, chunk):
        counters = np.arange(start, min(start + chunk, T))
        acc += rng.uniforms(seeds[:, None], counters[None, :]).sum(axis=1)
    return acc
