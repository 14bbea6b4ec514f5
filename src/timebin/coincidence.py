"""Time-tag and coincidence analysis.

Operates on `TagArrays` columns of (detector, time, repetition) clicks,
whether they came from the trajectory simulator or from an external CSV,
and implements fluorescence histograms, window gating, the pulsed
autocorrelation g2(0), and the two-photon interference (HOM) estimators
with their corrections.  Each analysis is one set of sums that takes tags
a block of whole repetitions at a time (`Histogram`, `G2Counts`,
`HomPairs`), fed by `simulate` as it runs and by `read_timetags` as it
reads a file; `build_histogram`, `g2_zero` and `hom_counts_from_tags`
apply them to whole tag arrays.
"""
from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, ParseError, UndefinedEstimateError
from .interferometer import Detector, Window

# window codes; WINDOWS[code] is the Window.  _analysis_view's tag code is
# 4 * slot + window code (the readout window is slot 0), -1 between windows
WINDOWS = (Window.EARLY, Window.MIDDLE, Window.LATE, Window.READOUT)
EARLY, MIDDLE, LATE, READOUT = range(4)
# detector codes of TagArrays.detector; DETECTORS[code] is the Detector
DETECTORS = (Detector.D1, Detector.D2)
_EXPORT_CHUNK = 65_536
# tags per block of the order check and the HOM pairing: their temporaries
# are a few of these blocks' size, not the size of all the tags
SCAN_BLOCK = 1 << 17
# the longest repetition offset g2_zero's long-delay mean averages over
G2_MAX_DELAY_REPS = 50
# the most bins build_histogram makes (80 MB of int64 counts)
MAX_HISTOGRAM_BINS = 10**7
_MAX_REPETITION = 2**63 - 1
# bits of tag_order's packed sort key
_KEY_BITS = 63


def click_cell(slot, window, detector):
    """Cell of a photonic click: (slot * 3 + window) * 2 + detector, for an
    EARLY/MIDDLE/LATE window code and a detector code; works on arrays."""
    return (slot * 3 + window) * 2 + detector


def cell_click(cell: int) -> tuple[int, Window, Detector]:
    """The (slot, Window, Detector) click of a cell."""
    return cell // 6, WINDOWS[cell // 2 % 3], DETECTORS[cell % 2]


def distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 2-D uint8 matrix: (first row of each group,
    group index of every row), groups in lexicographic order of the rows.

    One stable sort per column (`np.lexsort`, first column most
    significant) is far faster than np.unique(axis=0), or than sorting the
    rows as void values, on the narrow count matrices used here.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    # rows without columns (no photon slot) are all equal
    order = np.lexsort(matrix.T[::-1]) if matrix.shape[1] else np.arange(len(matrix))
    ordered = matrix[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def first_seen_groups(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`distinct_rows` with the groups numbered in order of first appearance."""
    first, inverse = distinct_rows(matrix)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


@dataclass(frozen=True)
class WindowConfig:
    """Detection-window timing within one repetition.

    Photonic windows repeat every slot_spacing ns for multi-photon
    sequences; the spin readout window sits after the last photonic window.
    """

    early_start: float = 30.0
    middle_start: float = 41.8
    late_start: float = 53.6
    width: float = 2.0
    readout_start: float = 60.0
    readout_width: float = 50.0
    n_slots: int = 1
    slot_spacing: float = 28.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ContractError(f"window {f.name} must be finite, "
                                    f"not {getattr(self, f.name)}")
        if self.n_slots < 1:
            raise ContractError("a window configuration needs at least one slot")
        spans = [(self.window_start(s, w), self.window_start(s, w) + self.width)
                 for s in range(self.n_slots)
                 for w in (Window.EARLY, Window.MIDDLE, Window.LATE)]
        spans.append((self.readout_start, self.readout_start + self.readout_width))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1 - 1e-9:
                raise ContractError(f"windows overlap: [{a0},{a1}) and [{b0},{b1})")

    @property
    def bin_separation(self) -> float:
        return self.middle_start - self.early_start

    def window_start(self, slot: int, window: Window) -> float:
        base = {Window.EARLY: self.early_start, Window.MIDDLE: self.middle_start,
                Window.LATE: self.late_start}[window]
        return base + slot * self.slot_spacing

    def _hits(self, times):
        """(slot, window code, mask of the times inside) of each window, in
        the reverse of their precedence (the readout window, then each
        slot's early, middle and late windows): assigned in this order, the
        first window of that precedence holding a time wins."""
        spans = [(0, READOUT, self.readout_start, self.readout_width)]
        spans += [(s, c, self.window_start(s, WINDOWS[c]), self.width)
                  for s in range(self.n_slots) for c in (EARLY, MIDDLE, LATE)]
        for s, c, start, width in reversed(spans):
            yield s, c, (start <= times) & (times < start + width)

    @classmethod
    def for_sequence(cls, n_slots: int, t_inf: float = 11.8,
                     slot_spacing: float = 28.0) -> "WindowConfig":
        readout_start = 30.0 + 2 * t_inf + slot_spacing * (n_slots - 1) + 6.0
        return cls(early_start=30.0, middle_start=30.0 + t_inf,
                   late_start=30.0 + 2 * t_inf, readout_start=readout_start,
                   n_slots=n_slots, slot_spacing=slot_spacing)


@dataclass(frozen=True)
class HomCounts:
    """Coincidences in the side / center / side windows of the same-repetition
    delay histogram."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        if min(self.n1, self.n2, self.n3) < 0:
            raise ContractError("coincidence counts must be non-negative")


# ---------------------------------------------------------------------------
# tag arrays
# ---------------------------------------------------------------------------


@dataclass
class TagArrays:
    """Time tags as columns; the input of every analysis function here.

    `RunClicks.to_tags`, `sorted_tags` and `ingest_timetags` return tags
    in (repetition, time, detector) order and mark them so (`_ordered`),
    and the g2, HOM and witness analyses rely on that order (tags in
    another order are analysed as a sorted copy).  The first analysis of
    tags in order caches that they are and their (slot, window) codes on
    them, so their columns must not be changed in place afterwards.
    """

    detector: np.ndarray   # 0 = D1, 1 = D2
    time: np.ndarray
    repetition: np.ndarray
    # whether the tags are known to be in order, set by their producer or by
    # _analysis_view's check
    _ordered: bool = field(default=False, init=False, repr=False, compare=False)
    # (slot, window) codes per WindowConfig, set by _analysis_view
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.time)


def tag_order(det, time, rep) -> np.ndarray:
    """The permutation `np.lexsort((det, time, rep))` gives: tags by
    repetition, then time, then detector, equal keys in input order.

    Each tag gets one int64 key packing its repetition, the dense rank of
    its time and its detector (int8 codes), each offset to start at 0, and
    below them its index: the keys all differ, so one unstable sort of them
    is the stable order.  The repetitions are ranked too when their span
    leaves too few bits.  A key without room for the index has one stable
    argsort, and one without room even for ranks (over about 2^27 tags)
    two.
    """
    n = len(time)
    if n == 0:
        return np.zeros(0, np.intp)
    key, time_bits = _dense_rank(time)
    det_low = int(det.min())
    det_bits = (int(det.max()) - det_low).bit_length()
    key <<= det_bits
    key += det
    key -= det_low
    low_bits = time_bits + det_bits
    index_bits = (n - 1).bit_length()
    rep_low = int(rep.min())
    rep_bits = (int(rep.max()) - rep_low).bit_length()
    if rep_bits + low_bits + index_bits <= _KEY_BITS:
        # wraps to the exact difference, which fits
        rep_key = rep - np.int64(rep_low)
    else:
        rep_key, rep_bits = _dense_rank(rep)
    if rep_bits + low_bits > _KEY_BITS:
        order = np.argsort(key, kind="stable")
        return order[np.argsort(rep_key[order], kind="stable")]
    rep_key <<= low_bits
    rep_key |= key
    del key
    if rep_bits + low_bits + index_bits > _KEY_BITS:
        return np.argsort(rep_key, kind="stable")
    rep_key <<= index_bits
    rep_key |= np.arange(n)
    rep_key.sort()
    rep_key &= (1 << index_bits) - 1
    return rep_key


def sorted_tags(det, time, rep) -> TagArrays:
    """The tags of the columns det, time and rep in (repetition, time,
    detector) order (`tag_order`)."""
    order = tag_order(det, time, rep)
    return _ordered(det[order], time[order], rep[order])


def _dense_rank(values) -> tuple[np.ndarray, int]:
    """(the int64 rank of each of 8-byte values among the distinct ones, the
    bits of the largest rank).  Equal values share a rank, as do -0.0 and
    0.0, and all NaNs, which rank last as they sort."""
    order = np.argsort(values)
    ordered = values[order]
    step = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        step[np.searchsorted(ordered, np.nan):] = False
    # the sorted ranks overwrite the sorted values
    ranked = ordered.view(np.int64)
    ranked[0] = 0
    np.cumsum(step, out=ranked[1:])
    del step
    rank = np.empty(len(values), np.int64)
    rank[order] = ranked
    return rank, int(ranked[-1]).bit_length()


def _in_order(tags: TagArrays) -> bool:
    """Whether tags are in (repetition, time, detector) order, equal keys
    in any order; tag_order is stable, so it would leave them as they are.

    Each block of SCAN_BLOCK tags is compared with the tag after it too,
    so every neighbouring pair is checked once, a block at a time.
    """
    for lo in range(0, len(tags) - 1, SCAN_BLOCK):
        at = slice(lo, lo + SCAN_BLOCK + 1)
        d_rep = np.diff(tags.repetition[at])
        d_time = np.diff(tags.time[at])
        d_det = np.diff(tags.detector[at])
        if np.any((d_rep < 0) | ((d_rep == 0) & (
                (d_time < 0) | ((d_time == 0) & (d_det < 0))))):
            return False
    return True


def _repetition_blocks(rep: np.ndarray) -> list[tuple[int, int]]:
    """(start, end) of consecutive blocks of sorted tags, each about
    SCAN_BLOCK tags long and starting where a repetition starts, so no
    repetition's tags are split between two blocks."""
    edges = [0, *np.searchsorted(rep, rep[SCAN_BLOCK::SCAN_BLOCK]).tolist(), len(rep)]
    # a repetition of more than SCAN_BLOCK tags leaves empty blocks
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _analysis_view(tags: TagArrays, windows: WindowConfig
                   ) -> tuple[TagArrays, np.ndarray]:
    """The tags in (repetition, time, detector) order and the code of each:
    4 * slot + window code (code >> 2 is the slot, WINDOWS[code & 3] the
    Window), -1 between windows.  The readout window is slot 0, so its code
    is READOUT, as is -1 & 3: `code & 3` pools the slots and leaves
    between-window tags with the readout ones.  Codes are int8 up to 32
    slots and wider beyond (a manifest may name more); widen them before
    arithmetic that could overflow.

    Tags already in that order are used as they are and classified once
    per WindowConfig, SCAN_BLOCK tags at a time: the codes are cached on
    them.  Tags a producer marked as ordered are not checked again.  Tags
    in another order are sorted into a new TagArrays, so the caller's
    arrays are never changed.
    """
    code = tags._codes.get(windows)
    if code is None:
        if not tags._ordered:
            if _in_order(tags):
                tags._ordered = True
            else:
                tags = sorted_tags(tags.detector, tags.time, tags.repetition)
        # every difference 4 * slot + c - code below fits this type too
        code = np.full(len(tags), -1, np.min_scalar_type(-4 * windows.n_slots))
        for lo in range(0, len(tags), SCAN_BLOCK):
            part = code[lo:lo + SCAN_BLOCK]
            for s, c, hit in windows._hits(tags.time[lo:lo + SCAN_BLOCK]):
                # code = 4 * s + c where hit, in arithmetic: faster than a
                # masked store
                part += hit.view(np.int8) * (4 * s + c - part)
        tags._codes[windows] = code
    return tags, code


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def build_histogram(tags: TagArrays, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts per time bin summed over both detectors (`Histogram` of all
    the tags at once).

    Returns (bin_starts, counts); bin k covers [k*w, (k+1)*w).  A bin
    width that is not finite and positive, or one that would need more
    than MAX_HISTOGRAM_BINS bins, raises ContractError before any array is
    made.
    """
    histogram = Histogram(bin_width)
    histogram.add(tags)
    return histogram.result()


class Histogram:
    """Counts per time bin of both detectors, added a block of tags at a
    time in any order: the counts grow to bin floor(t_max / w), t_max the
    latest time so far.  A width that is not finite and positive raises
    ContractError at once; times that would need more than
    MAX_HISTOGRAM_BINS bins are not counted, and `result` raises
    ContractError for them."""

    def __init__(self, bin_width: float):
        if not (math.isfinite(bin_width) and bin_width > 0):
            raise ContractError(f"bin width must be finite and positive, got {bin_width}")
        self.bin_width = bin_width
        self.n_tags = 0
        self.t_max = -math.inf
        self.counts = np.zeros(0, np.int64)

    def add(self, tags: TagArrays) -> None:
        if len(tags) == 0:
            return
        self.n_tags += len(tags)
        # NaN stays the maximum, as it is of the times
        self.t_max = float(np.max((self.t_max, tags.time.max())))
        if not self.t_max / self.bin_width < MAX_HISTOGRAM_BINS:
            return
        idx = np.floor(tags.time / self.bin_width).astype(np.int64)
        part = np.bincount(idx[idx >= 0])
        if part.size > self.counts.size:
            self.counts = np.concatenate([self.counts,
                                          np.zeros(part.size - self.counts.size, np.int64)])
        self.counts[:part.size] += part

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin_starts, counts), as `build_histogram` returns them."""
        if self.n_tags == 0:
            raise ContractError("cannot histogram an empty tag list")
        last = self.t_max / self.bin_width
        if not last < MAX_HISTOGRAM_BINS:
            raise ContractError(f"bin width {self.bin_width} ns needs {last + 1:.3g} bins "
                                f"up to {self.t_max} ns, more than {MAX_HISTOGRAM_BINS}")
        n_bins = int(math.floor(last)) + 1
        counts = np.zeros(n_bins, np.int64)
        counts[:self.counts.size] = self.counts
        return np.arange(n_bins) * self.bin_width, counts


def histogram_to_csv(path, bin_starts: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_ns", "count"])
        for b, c in zip(bin_starts, counts):
            writer.writerow([f"{b:.6g}", int(c)])


# ---------------------------------------------------------------------------
# g2(0)
# ---------------------------------------------------------------------------


def _window_counts(arr: TagArrays, code: np.ndarray, window: Window
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct repetitions with a click in one window class, ascending,
    and each one's click count on each detector, given tags in repetition
    order and their window codes (WINDOWS[code], slots pooled): a
    repetition's clicks are contiguous, so its group starts where the
    repetition changes."""
    sel = np.flatnonzero(code == WINDOWS.index(window))
    rep = arr.repetition[sel]
    new = np.ones(len(rep), bool)
    np.not_equal(rep[1:], rep[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(rep))
    # D2 clicks by prefix sums of the detector codes (0 = D1, 1 = D2)
    d2 = np.concatenate(([0], np.cumsum(arr.detector[sel], dtype=np.int64)))
    n2 = d2[ends] - d2[starts]
    return rep[starts], ends - starts - n2, n2


def _long_delay_pairs(reps: np.ndarray, n1: np.ndarray, n2: np.ndarray, k: int) -> int:
    """Sum of n1[a] * n2[b] + n2[a] * n1[b] over the pairs of ascending
    distinct repetitions with 1 <= reps[b] - reps[a] <= k.

    The partners of a are b = a + 1 .. hi[a] - 1, with hi[a] the first
    repetition more than k after it, so int64 prefix sums of n1 and n2 give
    each a's products at once.
    """
    if len(reps) == 0:
        return 0
    # offsets from the first repetition, capped so that adding k cannot
    # wrap: from span - k on, every later repetition is a partner
    rel = reps - reps[0]
    limit = np.minimum(rel, max(int(rel[-1]) - k, 0)) + k
    hi = np.searchsorted(rel, limit, "right")
    c1 = np.concatenate(([0], np.cumsum(n1)))
    c2 = np.concatenate(([0], np.cumsum(n2)))
    return int(np.dot(n1, c2[hi] - c2[1:]) + np.dot(n2, c1[hi] - c1[1:]))


def _repetition_parts(tags: TagArrays, windows: WindowConfig):
    """The tags in (repetition, time, detector) order (`_analysis_view`),
    as TagArrays of whole repetitions, about SCAN_BLOCK tags each
    (`_repetition_blocks`), marked as ordered and holding their slice of
    the codes, so the tags are classified once."""
    tags, code = _analysis_view(tags, windows)
    for lo, hi in _repetition_blocks(tags.repetition):
        part = _ordered(tags.detector[lo:hi], tags.time[lo:hi], tags.repetition[lo:hi])
        part._codes[windows] = code[lo:hi]
        yield part


def g2_zero(tags: TagArrays, windows: WindowConfig) -> tuple[float, float, dict]:
    """Pulsed autocorrelation at zero delay (`G2Counts` of the tags, a block
    of whole repetitions at a time).  Returns (g2, standard error,
    per-class detail)."""
    counts = G2Counts(windows)
    for part in _repetition_parts(tags, windows):
        counts.add(part)
    return counts.result()


class G2Counts:
    """The sums of the pulsed g2(0), added a block of tags at a time.

    Same-repetition cross-detector coincidences within a window class,
    normalized by the mean coincidence rate at repetition offsets 1..k,
    k = min(G2_MAX_DELAY_REPS, span of the tags' repetitions), averaged over
    the early and late classes, so only repetition differences matter.
    Each block is whole repetitions in (repetition, time, detector) order,
    after the blocks before; it is classified once (`_analysis_view`).
    Each class's clicked repetitions come from the group starts of the
    block's repetitions (`_window_counts`) and its long-delay pairs from
    offsets into them (`_long_delay_pairs`), so time and memory grow with
    the tags, not with the repetition indices.  The last
    G2_MAX_DELAY_REPS repetitions' counts are carried to the next block,
    so pairs across a block edge count too; pairs are counted up to that
    offset, which are all of them when the span is shorter, and divided by
    k in `result`.  Every sum is an integer, exact in any order.
    """

    def __init__(self, windows: WindowConfig):
        self.windows = windows
        self.n_tags = 0
        self.first = self.last = 0
        self.same = [0, 0]
        self.far = [0, 0]
        nothing = np.zeros(0, np.int64)
        self.carry = [(nothing,) * 3] * 2

    def add(self, tags: TagArrays) -> None:
        if len(tags) == 0:
            return
        tags, code = _analysis_view(tags, self.windows)
        if self.n_tags == 0:
            self.first = int(tags.repetition[0])
        self.n_tags += len(tags)
        self.last = int(tags.repetition[-1])
        window_code = code & 3
        for i, window in enumerate((Window.EARLY, Window.LATE)):
            reps, n1, n2 = _window_counts(tags, window_code, window)
            self.same[i] += int(np.dot(n1, n2))
            carry = self.carry[i]
            reps, n1, n2 = (np.concatenate(pair) for pair in zip(carry, (reps, n1, n2)))
            self.far[i] += (_long_delay_pairs(reps, n1, n2, G2_MAX_DELAY_REPS)
                            - _long_delay_pairs(*carry, G2_MAX_DELAY_REPS))
            # a later block's repetitions are above last
            keep = reps > self.last - G2_MAX_DELAY_REPS
            self.carry[i] = reps[keep], n1[keep], n2[keep]

    def result(self) -> tuple[float, float, dict]:
        """(g2, standard error, per-class detail)."""
        if self.n_tags == 0:
            raise UndefinedEstimateError("no tags to analyze")
        span = self.last - self.first
        if span < 1:
            raise UndefinedEstimateError("g2 needs at least two repetitions")
        k = min(G2_MAX_DELAY_REPS, span)
        detail = {}
        values, weights = [], []
        for i, window in enumerate((Window.EARLY, Window.LATE)):
            same = float(self.same[i])
            far_mean = 0.5 * self.far[i] / k
            if far_mean <= 0:
                raise UndefinedEstimateError(f"no long-delay coincidences in {window.value}")
            g2 = same / far_mean
            err = math.sqrt(max(same, 1.0)) / far_mean
            detail[window.value] = {"same": same, "far_mean": far_mean, "g2": g2,
                                    "err": err}
            values.append(g2)
            weights.append(err)
        g2_avg = 0.5 * (values[0] + values[1])
        err_avg = 0.5 * math.hypot(weights[0], weights[1])
        return g2_avg, err_avg, detail


# ---------------------------------------------------------------------------
# HOM
# ---------------------------------------------------------------------------


def hom_counts_from_tags(tags: TagArrays, windows: WindowConfig,
                         center_halfwidth: float | None = None) -> HomCounts:
    """Same-repetition cross-detector delay histogram, gated on a middle
    click (`HomPairs` of the tags, a block of whole repetitions at a
    time)."""
    pairs = HomPairs(windows, center_halfwidth)
    for part in _repetition_parts(tags, windows):
        pairs.add(part)
    return pairs.result()


class HomPairs:
    """HOM coincidence counts, added a block of tags at a time.

    Integration windows default to bins of half the time-bin separation
    centered at 0 and +-T_inf (the side/center/side regions).  Each block
    is whole repetitions in (repetition, time, detector) order; its
    photonic tags, where each repetition's tags are contiguous, are paired
    within those groups.
    """

    def __init__(self, windows: WindowConfig, center_halfwidth: float | None = None):
        self.windows = windows
        self.t_inf = windows.bin_separation
        self.half = self.t_inf / 2.0 if center_halfwidth is None else center_halfwidth
        self.n1 = self.n2 = self.n3 = 0

    def add(self, tags: TagArrays) -> None:
        t_inf, half = self.t_inf, self.half
        tags, code = _analysis_view(tags, self.windows)
        window_code = code & 3
        photonic = np.flatnonzero(window_code != READOUT)
        det, time, rep = (a[photonic] for a in (tags.detector, tags.time, tags.repetition))
        mid = window_code[photonic] == MIDDLE
        # the pairs (i, i + k) within one repetition, for k = 1, 2, ..., are
        # each same-repetition pair exactly once; (i, i + k) is one only if
        # (i, i + k - 1) is
        k = 1
        i = np.flatnonzero(rep[1:] == rep[:-1])
        while len(i):
            j = i + k
            keep = (det[i] != det[j]) & (mid[i] | mid[j])
            a, b = i[keep], j[keep]
            tau = np.where(det[a] == 0, time[b] - time[a], time[a] - time[b])
            center = np.abs(tau) < half
            left = ~center & (np.abs(tau + t_inf) < half)
            right = ~center & ~left & (np.abs(tau - t_inf) < half)
            self.n1 += int(np.count_nonzero(left))
            self.n2 += int(np.count_nonzero(center))
            self.n3 += int(np.count_nonzero(right))
            k += 1
            i = i[i + k < len(rep)]
            i = i[rep[i + k] == rep[i]]

    def result(self) -> HomCounts:
        return HomCounts(self.n1, self.n2, self.n3)


def hom_visibility(counts: HomCounts) -> tuple[float, float]:
    """Raw indistinguishability 1 - 2*N2/(N1+N3) with Poisson error propagation."""
    side = counts.n1 + counts.n3
    if side <= 0:
        raise UndefinedEstimateError("no side-window coincidences")
    v = 1.0 - 2.0 * counts.n2 / side
    var = (2.0 / side) ** 2 * counts.n2 + (2.0 * counts.n2 / side**2) ** 2 * side
    return v, math.sqrt(var)


def hom_correct(v_raw: float, g2: float, v_classical: float = 1.0) -> float:
    """Undo the multi-photon and interferometer penalties on the raw visibility.

    The multi-photon background is taken as fully distinguishable, giving
    v_raw ~ V * f / (1 + 2 g2) with f the interferometer divisor (default:
    the classical fringe visibility itself).
    """
    if not 0.0 < v_classical <= 1.0:
        raise ContractError("v_classical must lie in (0, 1]")
    if g2 < 0:
        raise ContractError("g2 must be non-negative")
    return v_raw * (1.0 + 2.0 * g2) / v_classical


# ---------------------------------------------------------------------------
# CSV time-tag I/O
# ---------------------------------------------------------------------------

_CSV_HEADER = ["detector", "time_ns", "repetition"]
# the header line export_timetags writes
_HEADER_LINE = (",".join(_CSV_HEADER) + "\r\n").encode()
_ROW_FORMAT = "%s,%.6f,%d\r\n"
# _decode_rows: bytes read per block, the longest row it decodes (integer
# part and repetition of 8 digits), and the three bytes that open a row
_READ_BLOCK = 1 << 20
_MAX_ROW = len("D1,12345678.123456,12345678\r\n")
_ROW_HEAD = np.uint64(int.from_bytes(b"D1,", "little"))
# for width w in 0..8: the mask of an 8-byte little-endian word that keeps
# its last w bytes, the w digits of a field that ends with the word
_KEEP_LAST = np.array([2**64 - 2**(64 - 8 * w) for w in range(9)], np.uint64)
# _LEAD_WORDS[k] for k in 0..19,999: a field's group of four digits k % 10^4
# as one word, zero-padded when k >= 10^4 (a higher group shows a digit),
# else with its leading zeros the filler byte 0x00, which no row holds (0
# shows none).  Its second half, _DIGIT_WORDS[k] for k in 0..9999, is k's
# four digits zero-padded.  _LAST_WORDS, for a field's last group, shows 0
# as one zero.
_PLACES = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1],
                                                                  np.int16)
_DIGITS = (_PLACES % 10 + ord("0")).astype(np.uint8)
_LEAD_WORDS = np.concatenate([np.where(_PLACES > 0, _DIGITS, 0), _DIGITS]).view(
    np.uint32).ravel()
_DIGIT_WORDS = _LEAD_WORDS[10_000:]
_LAST_WORDS = _LEAD_WORDS.copy()
_LAST_WORDS[0] = _DIGIT_WORDS[0] & np.uint32(0xFF000000)
del _PLACES, _DIGITS


def export_timetags(path, tags: TagArrays) -> None:
    """Write tags as `detector,time_ns,repetition` rows with csv line ends,
    the bytes of `"%s,%.6f,%d\r\n"` (`D1`/`D2`, time to 6 decimals), after
    the header line (`TagWriter`)."""
    with open(path, "wb") as fh:
        TagWriter(fh).write(tags)


def inside_as_written(times, start: float, end: float) -> np.ndarray:
    """times drawn for the window [start, end), after moving in place each
    one that is outside it, or whose 6-decimal text (`export_timetags`)
    reads back outside it, to the nearest 6-decimal time inside: the first
    from start or the last before end.

    start + u * width can round to end, and its text does from end - 5e-7
    on (or to below a start off the 1e-6 grid).  Only a time within 1e-6 of
    start or end can move, and no other time or text changes.  A window
    holding no 6-decimal time leaves every time as it is.
    """
    near = np.flatnonzero((times < start + 1e-6) | (times >= end - 1e-6))
    for at in near.tolist():
        time = float(times[at])
        written = float("%.6f" % time)
        # k / 1e6 rises with k; the estimates are within one step
        if min(time, written) < start:
            micro = math.ceil(start * 1e6) - 2
            while micro / 1e6 < start:
                micro += 1
        elif max(time, written) >= end:
            micro = math.floor(end * 1e6) + 2
            while micro / 1e6 >= end:
                micro -= 1
        else:
            continue
        if start <= micro / 1e6 < end:
            times[at] = micro / 1e6
    return times


class TagWriter:
    """A time-tag CSV written a block of tags at a time into a binary file:
    the header line, then each block's rows, as `export_timetags` writes
    all the tags at once.

    Each chunk of 65,536 rows is formatted by `_format_rows` into one bytes
    object, so a large block adds no full-size copy.  A chunk that
    `_format_rows` cannot format exactly goes through the %-template.
    """

    def __init__(self, fh):
        self.fh = fh
        fh.write(_HEADER_LINE)

    def write(self, tags: TagArrays) -> None:
        for lo in range(0, len(tags), _EXPORT_CHUNK):
            det, time, rep = (a[lo:lo + _EXPORT_CHUNK]
                              for a in (tags.detector, tags.time, tags.repetition))
            rows = _format_rows(det, time, rep)
            if rows is None:
                fields = [None] * (3 * len(time))
                fields[0::3] = np.where(det == 0, "D1", "D2").tolist()
                fields[1::3] = time.tolist()
                fields[2::3] = rep.tolist()
                rows = ((_ROW_FORMAT * len(time)) % tuple(fields)).encode()
            self.fh.write(rows)


def _format_rows(det, time, rep) -> bytes | None:
    """The bytes `_ROW_FORMAT` gives for each row, or None for a chunk
    holding a time that is negative (or -0.0), not finite, at least
    2^52 / 10^6, or too near a rounding tie, or a negative repetition.

    A time is printed as round-half-even(t * 10^6) split into its integer
    part and six decimals.  fl(t * 1e6) is within half an ulp of t * 10^6,
    so np.rint of it is that rounding unless it lies within a few ulps of
    k + 1/2 (as every time from 2^49 / 10^6 on does).

    The rows are a uint8 matrix, each row as wide as the chunk's widest
    fields with their widths rounded up to four digits.  It is filled from
    one row template (`D1,`, point, comma, CR LF), and the digits are
    written over it as 4-byte words looked up four digits at a time.  The
    leading zeros of the integer part and the repetition come from the
    table as the filler byte 0x00, and one pass drops every filler byte.
    """
    scaled = time * 1e6
    if not (np.all(scaled < 2.0**52) and not np.any(np.signbit(time))
            and np.all(rep >= 0)):
        return None
    micro = np.rint(scaled)
    gap = np.subtract(scaled, micro)
    np.abs(gap, out=gap)
    np.subtract(0.5, gap, out=gap)
    scaled *= 2.0**-50
    if np.any(gap <= scaled):
        return None
    micro = micro.astype(np.int64)
    whole = micro // 1_000_000
    frac = micro
    frac -= whole * 1_000_000
    int_width = _digit_width(whole)
    rep_width = _digit_width(rep)
    # D, 1|2, comma, integer part, point, 6 decimals, comma, repetition, CR LF
    frac_at = 3 + int_width + 1
    rep_at = frac_at + 7
    rows = np.empty((len(time), rep_at + rep_width + 2), np.uint8)
    rows[:] = np.frombuffer(b"D1," + bytes(int_width) + b"." + bytes(6) + b","
                            + bytes(rep_width) + b"\r\n", np.uint8)
    rows[:, 1] += det != 0
    _put_digits(rows, 3, int_width, whole)
    high = frac // 100
    frac -= high * 100
    # the low two decimals first: the high four overwrite their word's zeros
    _words(rows, frac_at + 2)[:] = _DIGIT_WORDS.take(frac)
    _words(rows, frac_at)[:] = _DIGIT_WORDS.take(high)
    _put_digits(rows, rep_at, rep_width, rep)
    return rows.tobytes().translate(None, b"\0")


def _digit_width(values) -> int:
    """Decimal digits of the largest of non-negative integers, rounded up
    to a multiple of four."""
    return (len(str(int(values.max()))) + 3) // 4 * 4


def _put_digits(rows, col: int, width: int, values) -> None:
    """Write non-negative integers below 10^width as `width` bytes from
    column `col` of a uint8 row matrix, four digits per lookup: the digits
    of each, after the filler byte for each of its leading zeros (0 keeps
    one digit).

    Going from the last group to the first, `values` is what the groups so
    far leave; a group whose value has more groups in front looks up its
    digits zero-padded (10^4 + group, which min() picks), else with filler.
    """
    table = _LAST_WORDS
    for at in range(col + width - 4, col, -4):
        higher = values // 10_000
        group = higher * -10_000
        group += values
        group += 10_000
        np.minimum(group, values, out=group)
        _words(rows, at)[:] = table.take(group)
        table = _LEAD_WORDS
        values = higher
    _words(rows, col)[:] = table.take(values)


def _words(matrix, col: int) -> np.ndarray:
    """The 4-byte word at byte `col` of each row of a C-contiguous uint8
    matrix, as a (possibly unaligned) uint32 view."""
    return np.ndarray(len(matrix), np.uint32, matrix, col, (matrix.shape[1],))


def ingest_timetags(path) -> TagArrays:
    """Parse, validate and sort a time-tag CSV, all of it at once.

    Raises ParseError naming the offending line (also for a byte that is
    not UTF-8); warns on non-monotone timestamps within a detector stream.
    Rows already in (repetition, time, detector) order, as export_timetags
    writes them, are not sorted again.  `read_timetags` passes a file on a
    block at a time instead.

    A file holding exactly the bytes export_timetags writes is decoded as
    byte blocks by `_decode_rows`, the inverse of `_format_rows`.
    `_parse_rows`, the csv row loop, defines the grammar and every error: it
    reads every other file (and a pipe, which cannot be read twice), so it
    also accepts the syntax export never writes (other line ends, blank
    lines, quoted fields, exponents, `1_0`, non-ASCII digits).
    """
    with _open_tags(path) as fh:
        return _ingest(fh)


def _open_tags(path):
    return open(path, encoding="utf-8", errors="surrogateescape", newline="")


def _ingest(fh) -> TagArrays:
    """The tags of an open tag file (`ingest_timetags`), sorted."""
    arr = None
    if fh.seekable():
        arr = _decode_rows(fh.buffer)
        fh.seek(0)
    if arr is None:
        arr = _parse_rows(fh)
    if _in_order(arr):
        arr._ordered = True
        return arr
    for d in (0, 1):
        sel = arr.detector == d
        d_rep = np.diff(arr.repetition[sel])
        if np.any((d_rep < 0) | ((d_rep == 0) & (np.diff(arr.time[sel]) < 0))):
            warnings.warn(f"non-monotone timestamps in detector D{d + 1} stream; sorting",
                          stacklevel=3)
    return sorted_tags(arr.detector, arr.time, arr.repetition)


def read_timetags(path, new_consumers, windows: WindowConfig) -> tuple[list, int]:
    """Pass the tags of a time-tag CSV to consumers, objects with
    `add(tags)` such as `G2Counts`, a block of whole repetitions at a time
    in (repetition, time, detector) order; returns (the consumers, the
    number of tags).  new_consumers() makes the consumers.

    A file in export_timetags' form and in order is decoded and passed on
    as it is read (`_ordered_blocks`), so no array holds all its tags.  At
    a row in another form or a tag out of order, the consumers' partial
    sums are dropped and the file is read whole as `ingest_timetags` reads
    it, with its errors and warning; its sorted tags then go to new
    consumers in blocks of about SCAN_BLOCK tags (`_repetition_parts`).
    """
    with _open_tags(path) as fh:
        if fh.seekable():
            consumers, n_tags = new_consumers(), 0
            try:
                for block in _ordered_blocks(fh.buffer):
                    n_tags += len(block)
                    for consumer in consumers:
                        consumer.add(block)
                return consumers, n_tags
            except _Unstreamable:
                fh.seek(0)
        tags = _ingest(fh)
    consumers = new_consumers()
    for part in _repetition_parts(tags, windows):
        for consumer in consumers:
            consumer.add(part)
    return consumers, len(tags)


class _Unstreamable(Exception):
    """A tag file that `_ordered_blocks` cannot pass on as it reads it."""


def _ordered_blocks(fh):
    """The tags of a binary tag file in export_timetags' form and in order,
    as ordered TagArrays of whole repetitions, one per block `_decode_rows`
    reads: each block's last repetition is held back and put before the
    next block's tags.  Raises _Unstreamable at a row in another form or
    a tag out of order (`_in_order`, which also compares the tags on
    either side of each edge)."""
    held = None
    for columns in _decoded_blocks(fh):
        if held is not None:
            columns = [np.concatenate(pair) for pair in zip(held, columns)]
        block = TagArrays(*columns)
        if not _in_order(block):
            raise _Unstreamable
        if len(block) == 0:
            continue
        rep = block.repetition
        cut = int(np.searchsorted(rep, rep[-1]))
        held = [column[cut:] for column in columns]
        if cut:
            yield _ordered(*(column[:cut] for column in columns))
    if held is not None:
        yield _ordered(*held)


def _ordered(det, time, rep) -> TagArrays:
    """TagArrays of columns known to be in (repetition, time, detector) order."""
    tags = TagArrays(det, time, rep)
    tags._ordered = True
    return tags


def _decode_rows(fh) -> TagArrays | None:
    """The rows of a binary tag file in file order (`_decoded_blocks`), or
    None unless it is in export_timetags' form."""
    try:
        parts = list(_decoded_blocks(fh))
    except _Unstreamable:
        return None
    if not parts:
        return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
    return TagArrays(*(np.concatenate(column) for column in zip(*parts)))


def _decoded_blocks(fh):
    """The (detector, time, repetition) columns of a binary tag file's rows,
    in file order, a block at a time; raises _Unstreamable unless it holds
    the header line and then only rows `D1|D2,<int>.<6 decimals>,<int>\r\n`
    with integer parts and repetitions of 1 to 8 digits.

    The file is read in 1 MiB blocks into one buffer, the unfinished line
    carried to the next, so the temporaries (a few bytes per byte read) are
    not made for the whole file.  8 bytes in front of the block let every
    field be read as the unaligned 8-byte word that ends where it ends.  Any
    value this accepts is one the row loop takes the same way: the time
    (whole * 10^6 + decimals) / 1e6 is the correctly rounded quotient of
    exact doubles, as float() of its text is.
    """
    if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        raise _Unstreamable
    buf = np.full(8 + _MAX_ROW + _READ_BLOCK, ord("0"), np.uint8)
    # words[k] is the 8 bytes before byte k of the block (buf[k:k + 8])
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
    held = 0
    while got := fh.readinto(memoryview(buf)[8 + held:8 + held + _READ_BLOCK]):
        block = buf[8:8 + held + got]
        decoded = _decode_block(block, words)
        if decoded is None:
            raise _Unstreamable
        columns, done = decoded
        held = len(block) - done
        if held >= _MAX_ROW:
            raise _Unstreamable
        buf[8:8 + held] = block[done:]
        yield columns
    if held:
        raise _Unstreamable


def _decode_block(block, words) -> tuple[tuple, int] | None:
    """((detector, time, repetition), bytes used) of a block's whole rows,
    the bytes up to its last LF, or None for a row not in export_timetags'
    form.

    Two scans list the LFs, which end the rows, and the points.  Each row
    must hold one point, at 4 to 11 bytes from its start and 10 to 17 from
    its LF, so its integer part and repetition have 1 to 8 bytes; that
    places its `D`, comma, point, comma, CR and LF at six distinct
    positions, each checked.  One count then shows that the rows hold no
    other byte that is not a digit (and the detector byte is 1 or 2).
    """
    lf = np.flatnonzero(block == np.uint8(ord("\n")))
    n = len(lf)
    done = int(lf[-1]) + 1 if n else 0
    rows = block[:done]
    dot = np.flatnonzero(rows == np.uint8(ord(".")))
    if len(dot) != n:
        return None
    # each row's start + 3: the word ending there ends with D, 1|2, comma
    at = np.empty(n, lf.dtype)
    at[:1] = 3
    np.add(lf[:-1], 4, out=at[1:])
    int_width = dot - at
    rep_width = lf - dot
    rep_width -= 9
    if n and not (1 <= int_width.min() and int_width.max() <= 8
                  and 1 <= rep_width.min() and rep_width.max() <= 8):
        return None
    head = words[at]
    head >>= np.uint64(40)
    head -= _ROW_HEAD
    # 0 for D1 and 2^8 for D2
    if np.any(head & ~np.uint64(1 << 8)):
        return None
    np.add(dot, 8, out=at)
    # the point, the six decimals and the comma
    decimals = words[at]
    np.subtract(lf, 1, out=at)
    if not (np.all(decimals >> np.uint64(56) == np.uint64(ord(",")))
            and np.all(block[at] == np.uint8(ord("\r")))
            and np.count_nonzero(rows - np.uint8(ord("0")) > 9) == 6 * n):
        return None
    rep = _word_digits(words[at], rep_width)
    decimals <<= np.uint64(8)
    micro = _word_digits(decimals, 6)
    micro += _word_digits(words[dot], int_width) * np.uint64(1_000_000)
    time = micro.astype(float)
    time /= 1e6
    head >>= np.uint64(8)
    return (head.astype(np.int8), time, rep.astype(np.int64)), done


def _word_digits(v, width) -> np.ndarray:
    """The decimal value of the last `width` bytes (1 to 8 digits) of each
    8-byte little-endian word of v, computed in v: its leading bytes masked
    off, the digits combined 1, 2 and 4 at a time by multiply-shift steps
    (the SWAR digit parse of simdjson)."""
    v &= _KEEP_LAST[width]
    v &= np.uint64(0x0F0F0F0F0F0F0F0F)
    v *= np.uint64(2561)
    v >>= np.uint64(8)
    v &= np.uint64(0x00FF00FF00FF00FF)
    v *= np.uint64(6553601)
    v >>= np.uint64(16)
    v &= np.uint64(0x0000FFFF0000FFFF)
    v *= np.uint64(42949672960001)
    v >>= np.uint64(32)
    return v


def _parse_rows(fh) -> TagArrays:
    """The rows of a tag file in file order, one csv row at a time.

    This loop defines the accepted grammar and every ParseError; a byte
    that is not UTF-8 (decoded to a lone surrogate) is named before any
    other fault of its row.
    """
    rows = _csv_rows(fh)
    try:
        _, header = next(rows)
    except StopIteration:
        return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
    if [h.strip() for h in header] != _CSV_HEADER:
        _check_utf8(header, 1)
        raise ParseError(f"header {header!r} does not match {_CSV_HEADER!r}", line=1)
    det_codes, times, reps = [], [], []
    for lineno, row in rows:
        if not row:
            continue
        try:
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            det, t, rep = row
            if det not in ("D1", "D2"):
                raise ParseError(f"unknown detector {det!r}", line=lineno)
            try:
                t_val = float(t)
                r_val = int(rep)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not math.isfinite(t_val):
                raise ParseError(f"non-finite time {t!r}", line=lineno)
            if t_val < 0:
                raise ParseError(f"negative time {t_val}", line=lineno)
            if r_val < 0:
                raise ParseError(f"negative repetition {r_val}", line=lineno)
            if r_val > _MAX_REPETITION:
                raise ParseError(f"repetition {r_val} above 2^63 - 1", line=lineno)
        except ParseError:
            _check_utf8(row, lineno)
            raise
        det_codes.append(0 if det == "D1" else 1)
        times.append(t_val)
        reps.append(r_val)
    return TagArrays(np.array(det_codes, np.int8), np.array(times, float),
                     np.array(reps, np.int64))


def _csv_rows(fh):
    """(line, row) of each csv row from line 1; a csv.Error (such as a field
    over the field limit) is raised as a ParseError naming its line."""
    reader = csv.reader(fh)
    lineno = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno) from None
        yield lineno, row
        lineno += 1


def _check_utf8(row: list[str], line: int) -> None:
    """Raise ParseError naming the first byte of a csv row that is not UTF-8."""
    bad = re.search("[\udc80-\udcff]", "".join(row))
    if bad:
        raise ParseError(f"byte 0x{ord(bad.group()) - 0xdc00:02x} is not UTF-8",
                         line=line) from None
