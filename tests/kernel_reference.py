"""Per-entry reference forms of the exact detection kernel.

These are the depth-first contraction, the dict-based flag and leak
convolutions and the per-record heralded-outcome loop that the array
kernel in `timebin.detection` and `timebin.witness.SettingCounts` replaced.
They work on click records (`click_record` ints: a row of per-cell counts
read as little-endian bytes, so records of separate clicks add and a
record moves to slot k by `<< 48 * k`) and serve as bit-for-bit oracles
for the equivalence tests.
"""
from __future__ import annotations

import math

import numpy as np

from timebin.coincidence import DETECTORS, WINDOWS, click_cell
from timebin.detection import PRUNE_TOL, _single_photon_outcomes
from timebin.hilbert import SLOT_EARLY, SLOT_LATE, SPIN_DOWN, SPIN_UP


def click_record(slot: int, window: int, detector: int) -> int:
    """Click record of one photonic click: cell c holds bits 8c to 8c + 7."""
    return 1 << 8 * click_cell(slot, window, detector)


def record_rows(records, n_cells: int) -> np.ndarray:
    """The (len(records), n_cells) uint8 count matrix of click records."""
    data = b"".join(r.to_bytes(n_cells, "little") for r in records)
    return np.frombuffer(data, np.uint8).reshape(len(records), n_cells)


def row_records(rows) -> list[int]:
    """The click record of each row of a (n, n_cells) count matrix."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def clicks_of(clicks, row: int, leak: bool = True) -> int:
    """Click record of one repetition of a `RunClicks`; leak=False drops
    the background-light clicks."""
    counts = clicks.signal[row] + clicks.flagged[row]
    return row_records([counts + clicks.background[row] if leak else counts])[0]


def _alphabet(model) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The model's slot alphabet as (slot-0 click record, POVM element,
    support indices)."""
    return [(record, mat, np.flatnonzero(support))
            for record, mat, support in zip(row_records(model.alphabet_rows),
                                            model.alphabet_mats,
                                            model.alphabet_support)]


def _contract_slot(t: np.ndarray, mat: np.ndarray) -> np.ndarray:
    n_rem = t.ndim // 2
    return np.tensordot(t, mat, axes=([1, 1 + n_rem], [1, 0]))


def _slot_occupancy(t: np.ndarray) -> np.ndarray:
    n_rem = t.ndim // 2
    diag = np.diagonal(t, axis1=1, axis2=1 + n_rem)
    while diag.ndim > 1:
        m = (diag.ndim - 1) // 2
        diag = np.trace(diag, axis1=0, axis2=m)
    return np.abs(diag)


def _contract(alphabet, n_slots, t, slot, record, results) -> None:
    if slot == n_slots:
        for spin in (SPIN_DOWN, SPIN_UP):
            p = float(t[spin, spin].real)
            if p > PRUNE_TOL:
                results.append((record, spin, p))
        return
    occ = _slot_occupancy(t)
    for frag, mat, support in alphabet:
        if not np.any(occ[support] > PRUNE_TOL):
            continue
        sub = _contract_slot(t, mat)
        if np.max(np.abs(sub)) < PRUNE_TOL:
            continue
        _contract(alphabet, n_slots, sub, slot + 1, record + (frag << 48 * slot),
                  results)


def distribution(model, state: np.ndarray, flag_clicks=()
                 ) -> list[tuple[int, int, float]]:
    """(click record, spin, probability) entries, depth-first in alphabet order."""
    dims = model.layout.dims
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    results: list[tuple[int, int, float]] = []
    _contract(_alphabet(model), model.layout.photon_slots, rho.reshape(dims + dims),
              0, 0, results)
    for slot, bin_label in flag_clicks:
        comp = SLOT_EARLY if bin_label == "early" else SLOT_LATE
        # a click pattern's record, moved to the flag photon's slot
        outs = [(sum(1 << 8 * cell for cell in cells) << 48 * slot, w)
                for cells, w in _single_photon_outcomes(comp, model.tbi, model.eta)]
        results = [(pat + extra, spin, p * w)
                   for pat, spin, p in results for extra, w in outs
                   if p * w > PRUNE_TOL]
    return results


def full_distribution(model, state: np.ndarray, flag_clicks=()
                      ) -> list[tuple[int, bool, float]]:
    """(click record incl. background, readout click, probability) entries,
    aggregated in a dict in first-seen order."""
    base = distribution(model, state, flag_clicks)
    leak = model.leak_window_probs()
    p_read_leak = model.leak_readout_prob()
    out: dict[tuple[int, bool], float] = {}
    no_leak = math.prod(1.0 - lam for _, _, lam in leak)
    leak_clicks = [(lam, [click_record(slot, w, det) for det in (0, 1)])
                   for slot, w, lam in leak if lam > 0]
    for record, spin, p in base:
        p_click = model.readout_click_prob(spin)
        p_click = p_click + (1 - p_click) * p_read_leak
        for read_click, p_r in ((True, p_click), (False, 1.0 - p_click)):
            base_w = p * p_r * no_leak
            if base_w <= PRUNE_TOL:
                continue
            key = (record, read_click)
            out[key] = out.get(key, 0.0) + base_w
            for lam, clicks in leak_clicks:
                w_l = base_w * (lam / 2) / (1.0 - lam)
                if w_l <= PRUNE_TOL:
                    continue
                for click in clicks:
                    key = (record + click, read_click)
                    out[key] = out.get(key, 0.0) + w_l
    return [(pat, rc, p) for (pat, rc), p in out.items()]


def pattern_outcomes(setting, sub, record: int, n_slots: int) -> list:
    """Heralded outcomes of one click record, one per click combination, in
    cell order; empty when a slot holds no eligible click."""
    per_slot: list[list[int]] = [[] for _ in range(n_slots)]
    cells = record.to_bytes(-(-record.bit_length() // 8), "little")
    for cell, k in enumerate(cells[:6 * n_slots]):
        if k:
            eig = setting.photon_eigenvalue(WINDOWS[cell // 2 % 3], DETECTORS[cell % 2])
            if eig is not None:
                per_slot[cell // 6] += [eig] * k
    if any(not s for s in per_slot):
        return []
    outcomes = [(sub.eigenvalue, ())]
    for slot_eigs in per_slot:
        outcomes = [(s, ph + (e,)) for s, ph in outcomes for e in slot_eigs]
    return outcomes


def add_outcome(counts: dict, outcome, weight: float = 1.0) -> None:
    """Add weight to one outcome of a counts dict (`SettingCounts.counts`)."""
    counts[outcome] = counts.get(outcome, 0.0) + weight


def add_heralded(counts: dict, setting, sub_index: int, groups, n_slots: int
                 ) -> list[int]:
    """Add each (click record, weight) group's outcomes to counts, one
    outcome at a time; returns each group's outcome count."""
    sub = setting.subsettings[sub_index]
    n_outcomes = []
    for record, weight in groups:
        outcomes = pattern_outcomes(setting, sub, record, n_slots)
        for outcome in outcomes:
            add_outcome(counts, outcome, weight)
        n_outcomes.append(len(outcomes))
    return n_outcomes
