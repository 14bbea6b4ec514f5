"""Counter-based random numbers for reproducible Monte Carlo.

Every random decision in a trajectory run is addressed by
(master_seed, repetition index, stream id).  The generator is a stateless
splitmix64 hash, so a repetition's draw on a stream does not depend on
which other repetitions are drawn in the same call.  That also lets
`uniforms` evaluate the hash in place, on cache-sized blocks of
repetitions, with the same bits as evaluating it over the whole array at
once.  Stream ids come from one table of disjoint namespaces (`STREAMS`,
`stream`).
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
    "detection.slot": (20_000, 1_000),           # + photon slot: its alphabet branch
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
# draws per block of `uniforms`: its two uint64 buffers stay in L2 cache
_BLOCK = 16_384


def _mix_into(x: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64's finaliser mix on x, in place; scratch has x's shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mult
    np.right_shift(x, 31, out=scratch)
    x ^= scratch


def stream(name: str, offset: int = 0) -> int:
    """Stream id of one decision: offset within namespace name of STREAMS."""
    base, width = STREAMS[name]
    if not 0 <= offset < width:
        raise ContractError(f"stream {name}: offset {offset} outside [0, {width})")
    return base + offset


def uniforms(master_seed: int, reps: np.ndarray, stream: int) -> np.ndarray:
    """Uniform [0, 1) draws, one per repetition index, for a named stream.

    The top 53 bits of mix(mix(r gamma + key)), splitmix64's finaliser mix
    applied twice, over 2^53.  It is evaluated in place, block by block, in
    two block-sized buffers: no temporary as long as reps, and the same
    bits.
    """
    with np.errstate(over="ignore"):
        key = (np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA) * _M1
        key = key ^ (np.uint64(stream) * _STREAM_SALT)
    reps = np.asarray(reps, dtype=np.uint64)
    out = np.empty(reps.shape, dtype=np.float64)
    size = min(reps.size, _BLOCK)
    x = np.empty(size, dtype=np.uint64)
    t = np.empty(size, dtype=np.uint64)
    for lo in range(0, reps.size, _BLOCK):
        r = reps[lo:lo + _BLOCK]
        b, s = x[:r.size], t[:r.size]
        np.multiply(r, _GAMMA, out=b)
        b += key
        _mix_into(b, s)
        _mix_into(b, s)
        b >>= 11
        chunk = out[lo:lo + r.size]
        chunk[...] = b
        chunk *= _U53
    return out


def cdf(probs) -> np.ndarray:
    """Cumulative sums of probs divided by their total: the last entry is
    exactly 1, above every draw of `uniforms`."""
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return cum


def choose(probs, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF branch index for each uniform draw in u: the number of
    entries of cdf(probs) at or below it.

    probs need not be normalised; a draw at the top of the last bin is
    clamped to the last branch.
    """
    cum = cdf(probs)
    return np.minimum(np.searchsorted(cum, u, "right"), len(cum) - 1)
