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
from .interferometer import Window


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

    def classify(self, time: float) -> tuple[int, Window] | None:
        """Map a click time to its (slot, window); None if between windows."""
        if self.readout_start <= time < self.readout_start + self.readout_width:
            return (0, Window.READOUT)
        for slot in range(self.n_slots):
            for w in (Window.EARLY, Window.MIDDLE, Window.LATE):
                start = self.window_start(slot, w)
                if start <= time < start + self.width:
                    return (slot, w)
        return None

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


def _window_counts(arr: TagArrays, windows: WindowConfig, window: Window,
                   n_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-repetition click counts on each detector within one window class."""
    start = windows.window_start(0, window)
    sel = np.zeros(len(arr), dtype=bool)
    for slot in range(windows.n_slots):
        s = windows.window_start(slot, window)
        sel |= (arr.time >= s) & (arr.time < s + windows.width)
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
    detail = {}
    values, weights = [], []
    for window in (Window.EARLY, Window.LATE):
        n1, n2 = _window_counts(tags, windows, window, n_reps)
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
    order = np.lexsort((tags.time, tags.repetition))
    det, time, rep = tags.detector[order], tags.time[order], tags.repetition[order]
    photonic = np.array([windows.classify(t) is not None
                         and windows.classify(t)[1] != Window.READOUT for t in time])
    det, time, rep = det[photonic], time[photonic], rep[photonic]
    mid = np.array([windows.classify(t)[1] == Window.MIDDLE for t in time])
    n1 = n2 = n3 = 0
    start = 0
    n = len(time)
    while start < n:
        end = start
        while end < n and rep[end] == rep[start]:
            end += 1
        for i in range(start, end):
            for j in range(i + 1, end):
                if det[i] == det[j]:
                    continue
                if not (mid[i] or mid[j]):
                    continue
                tau = time[j] - time[i] if det[i] == 0 else time[i] - time[j]
                if abs(tau) < half:
                    n2 += 1
                elif abs(tau + t_inf) < half:
                    n1 += 1
                elif abs(tau - t_inf) < half:
                    n3 += 1
        start = end
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for d, t, r in zip(tags.detector, tags.time, tags.repetition):
            writer.writerow(["D1" if d == 0 else "D2", f"{t:.6f}", int(r)])


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
            if t_val < 0:
                raise ParseError(f"negative time {t_val}", line=lineno)
            det_codes.append(0 if det == "D1" else 1)
            times.append(t_val)
            reps.append(r_val)
    arr = TagArrays(np.array(det_codes, np.int8), np.array(times, float),
                    np.array(reps, np.int64))
    for d in (0, 1):
        sel = arr.detector == d
        absolute = arr.repetition[sel] * 1e9 + arr.time[sel]
        if np.any(np.diff(absolute) < 0):
            warnings.warn(f"non-monotone timestamps in detector D{d + 1} stream; sorting",
                          stacklevel=2)
    order = np.lexsort((arr.detector, arr.time, arr.repetition))
    return TagArrays(arr.detector[order], arr.time[order], arr.repetition[order])
