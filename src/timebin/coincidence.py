"""Time-tag and coincidence analysis.

Operates on `TagArrays` columns of (detector, time, repetition) clicks,
whether they came from the trajectory simulator or from an external CSV,
and implements fluorescence histograms, window gating, the pulsed
autocorrelation g2(0), and the two-photon interference (HOM) estimators
with their corrections.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, UndefinedEstimateError
from .interferometer import Detector, Window

# window codes returned by WindowConfig.classify; WINDOWS[code] is the Window
WINDOWS = (Window.EARLY, Window.MIDDLE, Window.LATE, Window.READOUT)
EARLY, MIDDLE, LATE, READOUT = range(4)
# detector codes of TagArrays.detector; DETECTORS[code] is the Detector
DETECTORS = (Detector.D1, Detector.D2)
_EXPORT_CHUNK = 65_536
_MAX_REPETITION = 2**63 - 1


def click_cell(slot, window, detector):
    """Cell of a photonic click: (slot * 3 + window) * 2 + detector, for an
    EARLY/MIDDLE/LATE window code and a detector code; works on arrays."""
    return (slot * 3 + window) * 2 + detector


def cell_click(cell: int) -> tuple[int, Window, Detector]:
    """The (slot, Window, Detector) click of a cell."""
    return cell // 6, WINDOWS[cell // 2 % 3], DETECTORS[cell % 2]


def click_record(slot: int, window: int, detector: int) -> int:
    """Click record of one photonic click.

    A click record is a row of per-cell uint8 click counts read as one
    little-endian int (cell c holds bits 8c to 8c + 7), so records of
    separate clicks add and a record moves to slot k by `<< 48 * k`.
    """
    return 1 << 8 * click_cell(slot, window, detector)


def row_records(rows) -> list[int]:
    """The click record of each row of a (n, n_cells) count matrix."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def record_rows(records, n_cells: int) -> np.ndarray:
    """The (len(records), n_cells) uint8 count matrix of click records."""
    data = b"".join(r.to_bytes(n_cells, "little") for r in records)
    return np.frombuffer(data, np.uint8).reshape(len(records), n_cells)


def distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a 2-D uint8 matrix: (first row of each group,
    group index of every row).

    Rows are compared as single void values, which is far faster than
    np.unique(axis=0) on the narrow count matrices used here.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    keys = matrix.view(np.dtype((np.void, matrix.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


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
    repetition_period: float = 606.06
    n_slots: int = 1
    slot_spacing: float = 28.0

    def __post_init__(self):
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

    def classify(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Map click times to (slot, window code) arrays; WINDOWS[code] is the
        Window, and both are -1 for a time between windows.

        The readout window is tried first, then each slot's early, middle
        and late windows; the first window holding a time wins.
        """
        times = np.asarray(times, dtype=float)
        slot = np.full(times.shape, -1, np.int64)
        code = np.full(times.shape, -1, np.int64)
        spans = [(0, READOUT, self.readout_start, self.readout_width)]
        spans += [(s, c, self.window_start(s, WINDOWS[c]), self.width)
                  for s in range(self.n_slots) for c in (EARLY, MIDDLE, LATE)]
        for s, c, start, width in spans:
            hit = (code < 0) & (start <= times) & (times < start + width)
            slot[hit] = s
            code[hit] = c
        return slot, code

    @classmethod
    def for_sequence(cls, n_slots: int, t_inf: float = 11.8, slot_spacing: float = 28.0,
                     repetition_period: float = 606.06) -> "WindowConfig":
        readout_start = 30.0 + 2 * t_inf + slot_spacing * (n_slots - 1) + 6.0
        return cls(early_start=30.0, middle_start=30.0 + t_inf,
                   late_start=30.0 + 2 * t_inf, readout_start=readout_start,
                   repetition_period=repetition_period, n_slots=n_slots,
                   slot_spacing=slot_spacing)


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
    """Time tags as columns; the input of every analysis function here."""

    detector: np.ndarray   # 0 = D1, 1 = D2
    time: np.ndarray
    repetition: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def build_histogram(tags: TagArrays, bin_width: float, t_max: float | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Counts per time bin summed over both detectors.

    Returns (bin_starts, counts); bin k covers [k*w, (k+1)*w).
    """
    if bin_width <= 0:
        raise ContractError("bin width must be positive")
    if len(tags) == 0:
        raise ContractError("cannot histogram an empty tag list")
    t_max = float(tags.time.max()) if t_max is None else t_max
    n_bins = int(math.floor(t_max / bin_width)) + 1
    idx = np.floor(tags.time / bin_width).astype(np.int64)
    idx = idx[(idx >= 0) & (idx < n_bins)]
    counts = np.bincount(idx, minlength=n_bins)
    return np.arange(n_bins) * bin_width, counts


def histogram_to_csv(path, bin_starts: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_ns", "count"])
        for b, c in zip(bin_starts, counts):
            writer.writerow([f"{b:.6g}", int(c)])


# ---------------------------------------------------------------------------
# g2(0)
# ---------------------------------------------------------------------------


def _window_counts(arr: TagArrays, code: np.ndarray, window: Window,
                   n_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-repetition click counts on each detector within one window class,
    given the tags' window codes from WindowConfig.classify."""
    sel = code == WINDOWS.index(window)
    n1 = np.bincount(arr.repetition[sel & (arr.detector == 0)], minlength=n_reps)
    n2 = np.bincount(arr.repetition[sel & (arr.detector == 1)], minlength=n_reps)
    return n1.astype(np.int64), n2.astype(np.int64)


def g2_zero(tags: TagArrays, windows: WindowConfig, max_delay_reps: int = 50
            ) -> tuple[float, float, dict]:
    """Pulsed autocorrelation at zero delay.

    Same-repetition cross-detector coincidences within a window class,
    normalized by the mean coincidence rate at repetition offsets
    1..max_delay_reps, averaged over the early and late classes.
    Returns (g2, standard error, per-class detail).
    """
    if len(tags) == 0:
        raise UndefinedEstimateError("no tags to analyze")
    n_reps = int(tags.repetition.max()) + 1
    if n_reps < 2:
        raise UndefinedEstimateError("g2 needs at least two repetitions")
    code = windows.classify(tags.time)[1]
    detail = {}
    values, weights = [], []
    for window in (Window.EARLY, Window.LATE):
        n1, n2 = _window_counts(tags, code, window, n_reps)
        same = float(np.sum(n1 * n2))
        far_total = 0.0
        k = min(max_delay_reps, n_reps - 1)
        for d in range(1, k + 1):
            far_total += 0.5 * float(np.sum(n1[:-d] * n2[d:]) + np.sum(n2[:-d] * n1[d:]))
        far_mean = far_total / k
        if far_mean <= 0:
            raise UndefinedEstimateError(f"no long-delay coincidences in {window.value}")
        g2 = same / far_mean
        err = math.sqrt(max(same, 1.0)) / far_mean
        detail[window.value] = {"same": same, "far_mean": far_mean, "g2": g2, "err": err}
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
    """Same-repetition cross-detector delay histogram, gated on a middle click.

    Integration windows default to bins of half the time-bin separation
    centered at 0 and +-T_inf (the side/center/side regions).
    """
    t_inf = windows.bin_separation
    half = t_inf / 2.0 if center_halfwidth is None else center_halfwidth
    # a pair's counts do not depend on which of its tags comes first, so
    # grouping by repetition is the only order needed
    order = np.argsort(tags.repetition, kind="stable")
    det, time, rep = tags.detector[order], tags.time[order], tags.repetition[order]
    code = windows.classify(time)[1]
    photonic = (code >= 0) & (code != READOUT)
    det, time, rep = det[photonic], time[photonic], rep[photonic]
    mid = code[photonic] == MIDDLE
    n1 = n2 = n3 = 0
    # the pairs (i, i + k) within one repetition, for k = 1, 2, ..., are each
    # same-repetition pair exactly once
    for k in range(1, len(time)):
        i = np.flatnonzero(rep[:-k] == rep[k:])
        if len(i) == 0:
            break
        j = i + k
        keep = (det[i] != det[j]) & (mid[i] | mid[j])
        i, j = i[keep], j[keep]
        tau = np.where(det[i] == 0, time[j] - time[i], time[i] - time[j])
        center = np.abs(tau) < half
        left = ~center & (np.abs(tau + t_inf) < half)
        right = ~center & ~left & (np.abs(tau - t_inf) < half)
        n1 += int(np.count_nonzero(left))
        n2 += int(np.count_nonzero(center))
        n3 += int(np.count_nonzero(right))
    return HomCounts(n1, n2, n3)


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


def export_timetags(path, tags: TagArrays) -> None:
    """Write tags as `detector,time_ns,repetition` rows (csv dialect line ends).

    Rows are formatted in chunks so a large run adds no full-size copy.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for lo in range(0, len(tags), _EXPORT_CHUNK):
            hi = lo + _EXPORT_CHUNK
            rows = zip(tags.detector[lo:hi].tolist(), tags.time[lo:hi].tolist(),
                       tags.repetition[lo:hi].tolist())
            fh.write("".join([f"{'D1' if d == 0 else 'D2'},{t:.6f},{r}\r\n"
                              for d, t, r in rows]))


def ingest_timetags(path) -> TagArrays:
    """Parse, validate and sort a time-tag CSV.

    Raises ParseError naming the offending line; warns on non-monotone
    timestamps within a detector stream.
    """
    path = Path(path)
    det_codes, times, reps = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
        if [h.strip() for h in header] != _CSV_HEADER:
            raise ParseError(f"header {header!r} does not match {_CSV_HEADER!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
            det_codes.append(0 if det == "D1" else 1)
            times.append(t_val)
            reps.append(r_val)
    arr = TagArrays(np.array(det_codes, np.int8), np.array(times, float),
                    np.array(reps, np.int64))
    for d in (0, 1):
        sel = arr.detector == d
        d_rep = np.diff(arr.repetition[sel])
        if np.any((d_rep < 0) | ((d_rep == 0) & (np.diff(arr.time[sel]) < 0))):
            warnings.warn(f"non-monotone timestamps in detector D{d + 1} stream; sorting",
                          stacklevel=2)
    order = np.lexsort((arr.detector, arr.time, arr.repetition))
    return TagArrays(arr.detector[order], arr.time[order], arr.repetition[order])
