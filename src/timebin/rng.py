"""Counter-based random numbers for reproducible Monte Carlo.

Every random decision in a trajectory run is addressed by
(master_seed, repetition index, stream id).  The generator is a stateless
splitmix64 hash, so a repetition's draw on a stream does not depend on
which other repetitions are drawn in the same call.  Stream ids come from
one table of disjoint namespaces (`STREAMS`, `stream`).
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError

# namespace -> (base, width): a decision draws on stream base + offset with
# 0 <= offset < width, and no two namespaces share an id
STREAMS = {
    "fringe.photon": (41, 1),                    # classical fringe scan detector
    "emitter.step": (100, 6_900),                # + sequence step: Kraus branch
    "emitter.blink": (7_001, 1),                 # per blink block: emitter off
    "detection.pattern": (20_000, 1),            # click row of the pure state
    "detection.readout": (21_000, 1),            # spin readout click
    "detection.readout_leak": (21_500, 1),       # background light in readout
    "detection.leak": (22_000, 2_000),           # + photonic window: background click
    "detection.leak_detector": (24_000, 2_000),  # + photonic window: its detector
    "detection.tag": (26_000, 2_000),            # + 8 * cell + ordinal: tag time
    "detection.flagged": (28_000, 3_000),        # + flag column: its route
    "detection.background_tag": (31_000, 4_998),  # + photonic window: tag time
    "detection.readout_tag_detector": (35_998, 1),
    "detection.readout_tag": (35_999, 1),
}

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)
_U53 = np.float64(1.0 / (1 << 53))


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def stream(name: str, offset: int = 0) -> int:
    """Stream id of one decision: offset within namespace name of STREAMS."""
    base, width = STREAMS[name]
    if not 0 <= offset < width:
        raise ContractError(f"stream {name}: offset {offset} outside [0, {width})")
    return base + offset


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
