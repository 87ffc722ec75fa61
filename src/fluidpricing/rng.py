"""Counter-based random number generation for reproducible simulation.

The generator is stateless: draw ``i`` of a stream keyed by ``seed`` is a
hash of ``(seed, i)``, so replications are reproducible and order
independent under parallel execution.  The hash is the splitmix64
finalizer applied to ``seed + (i + 1) * GOLDEN``, which is exactly the
splitmix64 output sequence for that seed.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4B9FE)
_MIX_B = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
# 2**-53, scales a 53-bit word onto [0, 1)
_INV53 = 1.0 / 9007199254740992.0


def mix64(z: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer; accepts scalars or uint64 arrays, wraps mod 2**64."""
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def replication_seed(base_seed: int, index: int | np.ndarray) -> np.ndarray:
    """Derive the per-replication stream key: base_seed XOR splitmix64(index)."""
    base = np.uint64(base_seed & _MASK)
    with np.errstate(over="ignore"):
        return base ^ mix64(np.asarray(index, dtype=np.uint64) + _GOLDEN)


def uniforms(seed: int | np.ndarray, counter: int | np.ndarray) -> np.ndarray:
    """Uniform(0,1) draw(s) at the given counter position(s) of each stream.

    ``seed`` and ``counter`` broadcast against each other, so one call can
    advance many replications in lockstep.
    """
    with np.errstate(over="ignore"):
        state = np.asarray(seed, dtype=np.uint64) + (
            np.asarray(counter, dtype=np.uint64) + np.uint64(1)
        ) * _GOLDEN
        word = mix64(state)
    return (word >> np.uint64(11)).astype(np.float64) * _INV53

