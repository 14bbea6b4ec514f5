"""Detection layer: from pre-detection register states to click records.

A click record is one int: a row of per-cell click counts, one cell per
(slot, window, detector), read as little-endian bytes
(`coincidence.click_record`).  Merging clicks is integer addition and
moving a slot's clicks to slot k is a shift by 48 * k bits.  The same
record serves both simulation modes:

* exact mode convolves the record distribution analytically
  (`DetectionModel.distribution` / `full_distribution`),
* trajectory mode samples one record per repetition from the distribution
  of that repetition's pure state (`sample_run`), then adds flagged and
  background clicks and the spin-readout click, all from counter-based
  streams.  It keeps each repetition's clicks as count rows (`RunClicks`),
  whose bytes are the records, and its time tags are keyed by repetition
  and click content.

Efficiency handling: with thinned=True every photon and readout click is
Bernoulli-thinned by the physical efficiencies; with thinned=False clicks
are kept with unit probability while the background rate is rescaled so
background-to-signal ratios match the physical setting.  Post-selected
estimators are identical in both modes; absolute rates are physical only
in thinned mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import rng as crng
from .coincidence import (DETECTORS, EARLY, LATE, MIDDLE, WINDOWS, TagArrays,
                          WindowConfig, cell_click, click_cell, click_record,
                          distinct_rows, record_rows, row_records)
from .emitter import NoiseParams, TrajectoryResult
from .errors import ContractError
from .hilbert import (SLOT_EARLY, SLOT_EE, SLOT_EL, SLOT_LATE, SLOT_LL,
                      SLOT_VACUUM, SPIN_DOWN, SPIN_UP, RegisterLayout)
from .interferometer import TBIParams, slot_window_povm

# exact-mode distributions drop events below this probability; the neglected
# mass is orders of magnitude under every acceptance tolerance
PRUNE_TOL = 1e-11

# rng stream blocks (offsets chosen to avoid the sequence-step streams)
_STREAM_PATTERN = 20_000
_STREAM_READOUT = 21_000
_STREAM_READ_LEAK = 21_500
_STREAM_LEAK = 22_000
_STREAM_LEAK_DET = 24_000
_STREAM_TAG = 26_000
_STREAM_WRONG = 28_000


def _single_photon_outcomes(component: int, tbi: TBIParams, eta: float
                            ) -> list[tuple[int, float]]:
    """Routing/detection outcomes of one definite-bin photon in slot 0 (no
    interference), as (click record, probability)."""
    s = tbi.splitting_ratio
    if component == SLOT_EARLY:
        routes = [(EARLY, s), (MIDDLE, 1.0 - s)]
    else:
        routes = [(MIDDLE, s), (LATE, 1.0 - s)]
    outs = [(0, 1.0 - eta)]
    for window, p in routes:
        for det in (0, 1):
            outs.append((click_record(0, window, det), eta * p * 0.5))
    return outs


def _double_state_outcomes(state: int, tbi: TBIParams, noise: NoiseParams,
                           eta: float) -> list[tuple[int, float]]:
    """Click outcomes of a doubly-occupied slot.

    Same-bin pairs route independently (they enter the recombiner from the
    same port).  An early+late pair interferes when both reach the middle
    window: the cross-detector coincidence is suppressed by the effective
    two-photon overlap indistinguishability * classical_visibility.
    """
    if state in (SLOT_EE, SLOT_LL):
        comp = SLOT_EARLY if state == SLOT_EE else SLOT_LATE
        single = _single_photon_outcomes(comp, tbi, eta)
        agg: dict[int, float] = {}
        for (p_a, w_a), (p_b, w_b) in product(single, repeat=2):
            agg[p_a + p_b] = agg.get(p_a + p_b, 0.0) + w_a * w_b
        return list(agg.items())
    if state != SLOT_EL:
        raise ContractError(f"not a double-occupancy state: {state}")
    s = tbi.splitting_ratio
    v_eff = noise.indistinguishability * tbi.classical_visibility
    agg = {}
    routes_e = [(EARLY, s), (MIDDLE, 1.0 - s)]
    routes_l = [(MIDDLE, s), (LATE, 1.0 - s)]
    for (win_e, pe), (win_l, pl) in product(routes_e, routes_l):
        w_route = pe * pl
        if win_e == MIDDLE and win_l == MIDDLE:
            # two-photon interference on the recombiner
            joint = {(0, 0): (1.0 + v_eff) / 4.0, (1, 1): (1.0 + v_eff) / 4.0,
                     (0, 1): (1.0 - v_eff) / 4.0, (1, 0): (1.0 - v_eff) / 4.0}
            for (da, db), w_det in joint.items():
                a, b = click_record(0, MIDDLE, da), click_record(0, MIDDLE, db)
                for pat, w_eta in ((a + b, eta * eta), (a, eta * (1 - eta)),
                                   (b, (1 - eta) * eta), (0, (1 - eta) ** 2)):
                    agg[pat] = agg.get(pat, 0.0) + w_route * w_det * w_eta
        else:
            for (pat_e, w_e), (pat_l, w_l) in product(
                    _detector_split(win_e, eta), _detector_split(win_l, eta)):
                pat = pat_e + pat_l
                agg[pat] = agg.get(pat, 0.0) + w_route * w_e * w_l
    return list(agg.items())


def _detector_split(window: int, eta: float) -> list[tuple[int, float]]:
    return [(0, 1.0 - eta)] + [(click_record(0, window, det), eta * 0.5)
                               for det in (0, 1)]


class DetectionModel:
    """Precomputed click POVM alphabet for one (layout, TBI, noise, mode)."""

    def __init__(self, layout: RegisterLayout, tbi: TBIParams, noise: NoiseParams,
                 windows: WindowConfig, thinned: bool = False):
        self.layout = layout
        self.tbi = tbi
        self.noise = noise
        self.windows = windows
        self.thinned = thinned
        self.eta = noise.eta_total * tbi.detector_efficiency if thinned else 1.0
        # eta_readout = 0 means the readout laser is off, in either mode
        if thinned:
            self.eta_read = noise.eta_readout
        else:
            self.eta_read = 1.0 if noise.eta_readout > 0 else 0.0
        self._alphabet = self._build_slot_alphabet()

    # -- per-slot alphabet -------------------------------------------------

    def _build_slot_alphabet(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        d = self.layout.slot_dim
        eta = self.eta
        povm = slot_window_povm(self.tbi, d)
        entries: dict[int, np.ndarray] = {}

        def add(record: int, mat: np.ndarray) -> None:
            if record in entries:
                entries[record] = entries[record] + mat
            else:
                entries[record] = mat.copy()

        none = np.zeros((d, d), dtype=np.complex128)
        none[SLOT_VACUUM, SLOT_VACUUM] = 1.0
        none[SLOT_EARLY, SLOT_EARLY] = 1.0 - eta
        none[SLOT_LATE, SLOT_LATE] = 1.0 - eta
        add(0, none)
        for (window, det), mat in povm.items():
            add(click_record(0, WINDOWS.index(window), DETECTORS.index(det)),
                eta * mat)
        if d == 6:
            for state in (SLOT_EE, SLOT_EL, SLOT_LL):
                proj = np.zeros((d, d), dtype=np.complex128)
                proj[state, state] = 1.0
                for record, w in _double_state_outcomes(state, self.tbi, self.noise, eta):
                    if w > 1e-15:
                        add(record, w * proj)
        # support index sets let the contraction skip entries with no overlap
        out = []
        for record, mat in entries.items():
            support = np.nonzero(np.abs(np.diag(mat)) + np.abs(mat).sum(axis=1)
                                 + np.abs(mat).sum(axis=0) > 1e-15)[0]
            out.append((record, mat, support))
        return out

    # -- exact distributions -------------------------------------------------

    def distribution(self, state: np.ndarray, flag_clicks=()
                     ) -> list[tuple[int, int, float]]:
        """Joint (click record, spin, probability) list for a pure state or
        density; records are `coincidence.click_record` sums.

        flag_clicks lists (slot, bin) labels of distinguishable background
        photons (detuned-transition scatter, re-excitation); each is routed
        like a definite-bin photon and added to the record.
        """
        dims = self.layout.dims
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        results: list[tuple[int, int, float]] = []
        self._contract(rho.reshape(dims + dims), 0, 0, results)
        if flag_clicks:
            results = self._convolve_flags(results, flag_clicks)
        return results

    def _contract(self, t: np.ndarray, slot: int, record: int, results: list) -> None:
        """Append the (record, spin, p) outcomes of tensor t, whose first
        `slot` slots are measured as `record`, depth-first in alphabet order.

        A method, not a nested closure: a recursive closure is a reference
        cycle that would keep every results list alive until a full garbage
        collection.
        """
        if slot == self.layout.photon_slots:
            # remaining axes: (spin_ket, spin_bra)
            for spin in (SPIN_DOWN, SPIN_UP):
                p = float(t[spin, spin].real)
                if p > PRUNE_TOL:
                    results.append((record, spin, p))
            return
        occ = _slot_occupancy(t)
        for frag, mat, support in self._alphabet:
            if not np.any(occ[support] > PRUNE_TOL):
                continue
            sub = _contract_slot(t, mat)
            if np.max(np.abs(sub)) < PRUNE_TOL:
                continue
            self._contract(sub, slot + 1, record + (frag << 48 * slot), results)

    def _convolve_flags(self, dist, flag_clicks):
        for slot, bin_label in flag_clicks:
            comp = SLOT_EARLY if bin_label == "early" else SLOT_LATE
            outs = [(p << 48 * slot, w)
                    for p, w in _single_photon_outcomes(comp, self.tbi, self.eta)]
            dist = [(pat + extra, spin, p * w)
                    for pat, spin, p in dist for extra, w in outs
                    if p * w > PRUNE_TOL]
        return dist

    # -- readout and leak ------------------------------------------------------

    def readout_click_prob(self, spin: int) -> float:
        if spin == SPIN_UP:
            return self.noise.readout_fidelity * self.eta_read
        return self.noise.readout_dark * self.eta_read

    def leak_window_probs(self) -> list[tuple[int, int, float]]:
        """Expected background clicks per photonic window per repetition, as
        (slot, window code, probability)."""
        scale = self.noise.eta_total * self.tbi.detector_efficiency if self.thinned else 1.0
        out = []
        lam = self.noise.p_leak * self.windows.width * scale
        for slot in range(self.layout.photon_slots):
            for w in (EARLY, MIDDLE, LATE):
                out.append((slot, w, lam))
        return out

    def leak_readout_prob(self) -> float:
        """False spin-readout click probability from background light."""
        if self.noise.eta_readout <= 0:
            return 0.0
        scale = (self.noise.eta_total * self.eta_read / self.noise.eta_readout)
        return self.noise.p_leak * self.windows.readout_width * scale

    def full_distribution(self, state: np.ndarray, flag_clicks=()
                          ) -> list[tuple[int, bool, float]]:
        """(click record incl. background, readout_click, probability).

        Background windows are convolved to first order (at most one leak
        click per window class per repetition), which is exact to O(lam^2).
        """
        base = self.distribution(state, flag_clicks)
        leak = self.leak_window_probs()
        p_read_leak = self.leak_readout_prob()
        out: dict[tuple[int, bool], float] = {}
        no_leak = math.prod(1.0 - lam for _, _, lam in leak)
        leak_clicks = [(lam, [click_record(slot, w, det) for det in (0, 1)])
                       for slot, w, lam in leak if lam > 0]
        for record, spin, p in base:
            p_click = self.readout_click_prob(spin)
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

    # -- trajectory sampling ---------------------------------------------------

    def sample_run(self, result: TrajectoryResult, master_seed: int) -> "RunClicks":
        """Sample detection for every repetition of a trajectory run."""
        from .emitter import group_by_id

        n = result.rep_indices.size
        reps = result.rep_indices
        n_cells = 6 * self.layout.photon_slots
        catalog: dict[int, None] = {}
        signal = np.zeros((n, n_cells), dtype=np.uint8)
        spins = np.zeros(n, dtype=np.int8)
        u_pat = crng.uniforms(master_seed, reps, _STREAM_PATTERN)
        for sid, idx in group_by_id(result.state_ids):
            dist = self.distribution(result.state_table[sid])
            choice = crng.choose([p for _, _, p in dist], u_pat[idx])
            catalog.update(dict.fromkeys(pat for pat, _, _ in dist))
            signal[idx] = record_rows([pat for pat, _, _ in dist], n_cells)[choice]
            spins[idx] = np.array([spin for _, spin, _ in dist], dtype=np.int8)[choice]

        # classical background photons (wrong transition and re-excitation)
        flagged = np.zeros((n, n_cells), dtype=np.uint8)
        flag_matrix = result.flag_click_matrix()
        flag_cols = [(op.slot, op.bin) for op in result.excite_ops] * 2
        for e_i, (slot, bin_label) in enumerate(flag_cols[:flag_matrix.shape[1]]):
            mask = flag_matrix[:, e_i]
            if not mask.any():
                continue
            comp = SLOT_EARLY if bin_label == "early" else SLOT_LATE
            outs = _single_photon_outcomes(comp, self.tbi, self.eta)
            u = crng.uniforms(master_seed, reps[mask], _STREAM_WRONG + e_i)
            choice = crng.choose([w for _, w in outs], u)
            flagged[mask] += record_rows([p << 48 * slot for p, _ in outs],
                                         n_cells)[choice]

        # readout click: spin signal or background light in the readout window
        p_up = self.readout_click_prob(SPIN_UP)
        p_down = self.readout_click_prob(SPIN_DOWN)
        p_leak_read = self.leak_readout_prob()
        u_read = crng.uniforms(master_seed, reps, _STREAM_READOUT)
        p_click = np.where(spins == SPIN_UP, p_up, p_down)
        readout_signal = u_read < p_click
        readout_leak = np.zeros(n, dtype=bool)
        if p_leak_read > 0:
            u_rl = crng.uniforms(master_seed, reps, _STREAM_READ_LEAK)
            readout_leak = u_rl < p_leak_read

        # background clicks: at most one per photonic window, on D2 when ud < 0.5
        background = np.zeros((n, n_cells), dtype=np.uint8)
        for k, (slot, w, lam) in enumerate(self.leak_window_probs()):
            if lam <= 0:
                continue
            u = crng.uniforms(master_seed, reps, _STREAM_LEAK + k)
            rows = np.flatnonzero(u < lam)
            ud = crng.uniforms(master_seed, reps[rows], _STREAM_LEAK_DET + k)
            background[rows, click_cell(slot, w, 0) + (ud < 0.5)] = 1

        return RunClicks(self, result, list(catalog), spins, readout_signal,
                         readout_leak, signal, flagged, background, master_seed)


def _contract_slot(t: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Contract the first slot axis pair of a (ket..., bra...) tensor with a POVM."""
    n_rem = t.ndim // 2
    # Tr over the slot: sum_ij t[..., i, ..., j, ...] mat[j, i] on axes (1, 1+n_rem)
    return np.tensordot(t, mat, axes=([1, 1 + n_rem], [1, 0]))


def _slot_occupancy(t: np.ndarray) -> np.ndarray:
    """Diagonal population of the first slot axis pair (traces out the rest)."""
    n_rem = t.ndim // 2
    diag = np.diagonal(t, axis1=1, axis2=1 + n_rem)  # slot index moves to the end
    # trace the remaining ket/bra pairs
    while diag.ndim > 1:
        m = (diag.ndim - 1) // 2
        diag = np.trace(diag, axis1=0, axis2=m)
    return np.abs(diag)


@dataclass
class RunClicks:
    """Sampled detection outcomes of a trajectory run.

    A repetition's photonic clicks are one uint8 count per cell
    (`coincidence.click_cell`: slot, window and detector), held in three
    (n_reps, n_cells) arrays by origin: `signal` for the photons of the
    sampled record, `flagged` for distinguishable background photons
    (wrong-transition scatter, re-excitation) and `background` for
    background-light clicks.  A row's bytes are the click record of exact
    mode; `pattern_catalog` lists the distinct records of the sampled
    states' distributions in first-seen order.
    """

    model: DetectionModel
    trajectory: TrajectoryResult
    pattern_catalog: list[int]
    spins: np.ndarray
    readout_signal: np.ndarray
    readout_leak: np.ndarray
    signal: np.ndarray
    flagged: np.ndarray
    background: np.ndarray
    master_seed: int

    @property
    def readout_clicks(self) -> np.ndarray:
        return self.readout_signal | self.readout_leak

    @property
    def n_reps(self) -> int:
        return self.spins.size

    def clicks_of(self, row: int, leak: bool = True) -> int:
        """Click record of one repetition's photonic clicks; leak=False
        drops the background-light clicks."""
        counts = self.signal[row] + self.flagged[row]
        return row_records([counts + self.background[row] if leak else counts])[0]

    def outcome_codes(self) -> tuple[np.ndarray, dict]:
        """Group repetitions by click record: signal and flagged counts,
        background counts and readout click.

        Returns a code per repetition and a map code -> (click record,
        readout_clicked), built once per code.
        """
        readout = self.readout_clicks
        first, codes = distinct_rows(np.concatenate(
            [self.signal + self.flagged, self.background, readout[:, None]], axis=1))
        records = row_records((self.signal + self.flagged + self.background)[first])
        mapping = {code: (record, bool(readout[row]))
                   for code, (record, row) in enumerate(zip(records, first.tolist()))}
        return codes, mapping

    def to_tags(self, gamma0: float = 2.54) -> TagArrays:
        """Expand sampled clicks into time tags.

        Photonic clicks get an exponential wavepacket offset inside their
        window, background clicks a uniform one; readout clicks are uniform
        in the readout window.  A wavepacket click's draw is keyed by its
        repetition, cell and ordinal within the cell, so tag times do not
        depend on which other repetitions are expanded in the same call.
        """
        windows = self.model.windows
        reps = self.trajectory.rep_indices.astype(np.int64)
        det_rows: list[np.ndarray] = []
        time_rows: list[np.ndarray] = []
        rep_rows: list[np.ndarray] = []

        def add(rows, det, time):
            det_rows.append(det)
            time_rows.append(time)
            rep_rows.append(reps[rows])

        # at most 4 photons reach one cell (a doubly occupied slot plus one
        # wrong-transition and one re-excitation photon), so the stream of
        # (cell, ordinal) stays inside the cell's block of 8
        wave = self.signal + self.flagged
        for cell in range(wave.shape[1]):
            slot, window, _ = cell_click(cell)
            start = windows.window_start(slot, window)
            for ordinal in range(int(wave[:, cell].max(initial=0))):
                rows = np.flatnonzero(wave[:, cell] > ordinal)
                u = crng.uniforms(self.master_seed, reps[rows],
                                  _STREAM_TAG + 8 * cell + ordinal)
                offset = np.minimum(-np.log(1.0 - u) / gamma0, windows.width * 0.999)
                add(rows, np.full(rows.size, cell % 2, dtype=np.int8), start + offset)
        for k in range(self.background.shape[1] // 2):
            pair = self.background[:, 2 * k:2 * k + 2]
            rows = np.flatnonzero(pair.any(axis=1))
            if rows.size == 0:
                continue
            slot, window, _ = cell_click(2 * k)
            u = crng.uniforms(self.master_seed, reps[rows], _STREAM_TAG + 5000 + k)
            add(rows, pair[rows, 1].astype(np.int8),
                windows.window_start(slot, window) + u * windows.width)
        rows = np.flatnonzero(self.readout_clicks)
        if rows.size:
            u = crng.uniforms(self.master_seed, reps[rows], _STREAM_TAG + 9999)
            ud = crng.uniforms(self.master_seed, reps[rows], _STREAM_TAG + 9998)
            add(rows, (ud < 0.5).astype(np.int8),
                windows.readout_start + u * windows.readout_width)
        if not det_rows:
            return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
        det = np.concatenate(det_rows)
        time = np.concatenate(time_rows)
        rep = np.concatenate(rep_rows)
        order = np.lexsort((det, time, rep))
        return TagArrays(det[order], time[order], rep[order])
