"""Counter-based random numbers for reproducible Monte Carlo.

Every random decision in a trajectory run is addressed by
(master_seed, repetition index, stream id).  The generator is a stateless
splitmix64 hash, so a repetition's draw on a stream does not depend on
which other repetitions are drawn in the same call.
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)
_U53 = np.float64(1.0 / (1 << 53))


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def uniforms(master_seed: int, reps: np.ndarray, stream: int) -> np.ndarray:
    """Uniform [0, 1) draws, one per repetition index, for a named stream."""
    with np.errstate(over="ignore"):
        key = (np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA) * _M1
        key = key ^ (np.uint64(stream) * _STREAM_SALT)
        x = np.asarray(reps, dtype=np.uint64) * _GAMMA + key
        bits = _mix(_mix(x))
    return (bits >> np.uint64(11)).astype(np.float64) * _U53


def choose(probs, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF branch index for each uniform draw in u.

    probs need not be normalised; a draw at the top of the last bin is
    clamped to the last branch.
    """
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return np.minimum(np.searchsorted(cum, u, "right"), len(cum) - 1)
