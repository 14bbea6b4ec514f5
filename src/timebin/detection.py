"""Detection layer: from pre-detection register states to click rows.

A click row is a uint8 count per cell, one cell per (slot, window,
detector) at `coincidence.click_cell`.  Both simulation modes work on
(n, 6 * slots) count rows:

* exact mode convolves the click distribution analytically, as whole-array
  operations (`ClickDistribution`).  `DetectionModel.distribution`
  contracts slot by slot: every surviving prefix tensor of a level meets
  every alphabet entry in one matrix-vector product per entry, and the
  pruned survivors keep the depth-first order of the alphabet indices.
  Flag photons and first-order background clicks (`full_distribution`)
  are outer sums of rows with outer products of weights; equal rows are
  summed in a fixed order with `np.bincount`.
* trajectory mode samples one row per repetition from the distribution of
  that repetition's pure state (`sample_run`), then adds flagged and
  background clicks and the spin-readout click, all from counter-based
  streams.  It keeps each repetition's clicks as count rows (`RunClicks`),
  and its time tags are keyed by repetition and click content.

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
                          WindowConfig, cell_click, click_cell, distinct_rows,
                          first_seen_groups, tag_order)
from .emitter import NoiseParams, TrajectoryResult
from .errors import ContractError
from .hilbert import (SLOT_EARLY, SLOT_EE, SLOT_EL, SLOT_LATE, SLOT_LL,
                      SLOT_VACUUM, SPIN_DOWN, SPIN_UP, RegisterLayout)
from .interferometer import TBIParams, slot_window_povm

# exact-mode distributions drop events below this probability; the neglected
# mass is orders of magnitude under every acceptance tolerance
PRUNE_TOL = 1e-11

# wavepacket tag times of click ordinal k in cell c draw on stream
# detection.tag at offset TAG_STREAMS_PER_CELL * c + k
TAG_STREAMS_PER_CELL = 8


def _pattern_rows(patterns, n_cells: int, slot: int = 0) -> np.ndarray:
    """Count rows of slot-0 click patterns (tuples of clicked cells, a cell
    once per click) moved to the given slot."""
    rows = np.zeros((len(patterns), n_cells), dtype=np.uint8)
    for i, cells in enumerate(patterns):
        for cell in cells:
            rows[i, cell + 6 * slot] += 1
    return rows


def _single_photon_outcomes(component: int, tbi: TBIParams, eta: float
                            ) -> list[tuple[tuple[int, ...], float]]:
    """Routing/detection outcomes of one definite-bin photon in slot 0 (no
    interference), as (click pattern, probability)."""
    s = tbi.splitting_ratio
    if component == SLOT_EARLY:
        routes = [(EARLY, s), (MIDDLE, 1.0 - s)]
    else:
        routes = [(MIDDLE, s), (LATE, 1.0 - s)]
    outs = [((), 1.0 - eta)]
    for window, p in routes:
        for det in (0, 1):
            outs.append(((click_cell(0, window, det),), eta * p * 0.5))
    return outs


def _double_state_outcomes(state: int, tbi: TBIParams, noise: NoiseParams,
                           eta: float) -> list[tuple[tuple[int, ...], float]]:
    """Click patterns of a doubly-occupied slot and their probabilities.

    Same-bin pairs route independently (they enter the recombiner from the
    same port).  An early+late pair interferes when both reach the middle
    window: the cross-detector coincidence is suppressed by the effective
    two-photon overlap indistinguishability * classical_visibility.
    """
    if state in (SLOT_EE, SLOT_LL):
        comp = SLOT_EARLY if state == SLOT_EE else SLOT_LATE
        single = _single_photon_outcomes(comp, tbi, eta)
        agg: dict[tuple[int, ...], float] = {}
        for (p_a, w_a), (p_b, w_b) in product(single, repeat=2):
            pat = tuple(sorted(p_a + p_b))
            agg[pat] = agg.get(pat, 0.0) + w_a * w_b
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
                a, b = click_cell(0, MIDDLE, da), click_cell(0, MIDDLE, db)
                for pat, w_eta in (((a, b) if a <= b else (b, a), eta * eta),
                                   ((a,), eta * (1 - eta)), ((b,), (1 - eta) * eta),
                                   ((), (1 - eta) ** 2)):
                    agg[pat] = agg.get(pat, 0.0) + w_route * w_det * w_eta
        else:
            for (pat_e, w_e), (pat_l, w_l) in product(
                    _detector_split(win_e, eta), _detector_split(win_l, eta)):
                pat = tuple(sorted(pat_e + pat_l))
                agg[pat] = agg.get(pat, 0.0) + w_route * w_e * w_l
    return list(agg.items())


def _detector_split(window: int, eta: float) -> list[tuple[tuple[int, ...], float]]:
    return [((), 1.0 - eta)] + [((click_cell(0, window, det),), eta * 0.5)
                                for det in (0, 1)]


@dataclass(frozen=True)
class ClickDistribution:
    """Click outcomes and their probabilities, one entry per row.

    rows is an (entries, 6 * photon slots) uint8 matrix of per-cell click
    counts (`coincidence.click_cell`); label holds each entry's spin
    (`DetectionModel.distribution`) or readout click
    (`DetectionModel.full_distribution`).
    """

    rows: np.ndarray
    label: np.ndarray
    probs: np.ndarray

    def __len__(self) -> int:
        return self.probs.size


class DetectionModel:
    """Precomputed click POVM alphabet for one (layout, TBI, noise, mode).

    The slot alphabet is stacked as arrays: `alphabet_rows` (slot-0 count
    rows, 6 cells), `alphabet_mats` (POVM elements on one slot) and
    `alphabet_support` (the slot levels each element touches).
    """

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
        alphabet = self._build_slot_alphabet()
        self.alphabet_rows = _pattern_rows([cells for cells, _ in alphabet], 6)
        self.alphabet_mats = np.array([mat for _, mat in alphabet])
        # support masks let the contraction skip entries with no overlap
        mags = np.abs(self.alphabet_mats)
        self.alphabet_support = (np.diagonal(mags, axis1=1, axis2=2)
                                 + mags.sum(axis=2) + mags.sum(axis=1)) > 1e-15

    # -- per-slot alphabet -------------------------------------------------

    def _build_slot_alphabet(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        d = self.layout.slot_dim
        eta = self.eta
        povm = slot_window_povm(self.tbi, d)
        entries: dict[tuple[int, ...], np.ndarray] = {}

        def add(cells: tuple[int, ...], mat: np.ndarray) -> None:
            if cells in entries:
                entries[cells] = entries[cells] + mat
            else:
                entries[cells] = mat.copy()

        none = np.zeros((d, d), dtype=np.complex128)
        none[SLOT_VACUUM, SLOT_VACUUM] = 1.0
        none[SLOT_EARLY, SLOT_EARLY] = 1.0 - eta
        none[SLOT_LATE, SLOT_LATE] = 1.0 - eta
        add((), none)
        for (window, det), mat in povm.items():
            add((click_cell(0, WINDOWS.index(window), DETECTORS.index(det)),),
                eta * mat)
        if d == 6:
            for state in (SLOT_EE, SLOT_EL, SLOT_LL):
                proj = np.zeros((d, d), dtype=np.complex128)
                proj[state, state] = 1.0
                for cells, w in _double_state_outcomes(state, self.tbi, self.noise, eta):
                    if w > 1e-15:
                        add(cells, w * proj)
        return list(entries.items())

    # -- exact distributions -------------------------------------------------

    def distribution(self, state: np.ndarray, flag_clicks=()) -> ClickDistribution:
        """Joint click distribution of a pure state or density: count rows,
        spins and probabilities, in depth-first order of the per-slot
        alphabet indices.

        Slots are contracted level by level.  At slot k every surviving
        prefix tensor meets every alphabet entry in one matrix-vector
        product per entry; a (prefix, entry) pair is dropped when the
        prefix's slot occupancy misses the entry's support or the
        contracted tensor stays below PRUNE_TOL everywhere.

        flag_clicks lists (slot, bin) labels of distinguishable background
        photons (detuned-transition scatter, re-excitation); each is routed
        like a definite-bin photon and added to the rows.
        """
        d, n = self.layout.slot_dim, self.layout.photon_slots
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        # element i * d + j of entry a's vector is mats[a, j, i]: the trace
        # over a slot's (ket i, bra j) axis pair
        vecs = self.alphabet_mats.transpose(0, 2, 1).reshape(-1, d * d)
        t = rho.reshape(1, 4 * d ** (2 * n))
        paths = np.zeros((1, 0), dtype=np.intp)
        for slot in range(n):
            k = n - 1 - slot
            # (prefix, spin, slot, later slots..., spin, slot, later slots...)
            full = t.reshape((-1, 2, d) + (d,) * k + (2, d) + (d,) * k)
            diag = np.diagonal(full, axis1=2, axis2=4 + k)
            while diag.ndim > 2:
                diag = np.trace(diag, axis1=1, axis2=diag.ndim // 2)
            live = ((np.abs(diag)[:, None] > PRUNE_TOL)
                    & self.alphabet_support).any(axis=2)
            x = full.reshape(-1, 2, d, d ** k, 2, d, d ** k).transpose(
                0, 1, 3, 4, 6, 2, 5).reshape(-1, d * d)
            # one matrix-vector product per entry: each prefix's rows get the
            # same BLAS dot products as contracting that prefix alone, where
            # one einsum or matrix product over all entries rounds differently
            sub = np.zeros((len(full), len(vecs), 4 * d ** (2 * k)), complex)
            for a in np.flatnonzero(live.any(axis=0)):
                sub[:, a] = (x @ vecs[a]).reshape(len(full), -1)
            live &= np.abs(sub).max(axis=2) >= PRUNE_TOL
            prefix, entry = np.nonzero(live)
            t = sub[prefix, entry]
            paths = np.concatenate([paths[prefix], entry[:, None]], axis=1)
        # leaves: (spin ket, spin bra) blocks
        p = np.stack([t.reshape(-1, 2, 2)[:, s, s].real for s in (SPIN_DOWN, SPIN_UP)],
                     axis=1)
        leaf, spin = np.nonzero(p > PRUNE_TOL)
        dist = ClickDistribution(
            self.alphabet_rows[paths[leaf]].reshape(leaf.size, 6 * n),
            np.array((SPIN_DOWN, SPIN_UP), dtype=np.int8)[spin], p[leaf, spin])
        for slot, bin_label in flag_clicks:
            dist = self._convolve_flag(dist, slot, bin_label)
        return dist

    def _convolve_flag(self, dist: ClickDistribution, slot: int, bin_label: str
                       ) -> ClickDistribution:
        comp = SLOT_EARLY if bin_label == "early" else SLOT_LATE
        outs = _single_photon_outcomes(comp, self.tbi, self.eta)
        extra = _pattern_rows([cells for cells, _ in outs], dist.rows.shape[1], slot)
        p = (dist.probs[:, None] * np.array([w for _, w in outs])).ravel()
        keep = p > PRUNE_TOL
        rows = (dist.rows[:, None] + extra).reshape(-1, extra.shape[1])
        return ClickDistribution(rows[keep], np.repeat(dist.label, len(outs))[keep],
                                 p[keep])

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

    def full_distribution(self, state: np.ndarray, flag_clicks=()) -> ClickDistribution:
        """Click rows incl. background, readout clicks and probabilities.

        Background windows are convolved to first order (at most one leak
        click per window class per repetition), which is exact to O(lam^2).
        Candidates are outer sums of rows and outer products of weights,
        ordered entry -> readout (click, none) -> [no leak, leak in window k
        on D1, on D2, ...]; equal (row, readout) keys are summed in that
        order and listed in order of first appearance.
        """
        base = self.distribution(state, flag_clicks)
        leak = self.leak_window_probs()
        no_leak = math.prod(1.0 - lam for _, _, lam in leak)
        # one column per leak click: window k on D1, on D2, window k + 1 ...
        cells = [click_cell(slot, w, det) for slot, w, lam in leak if lam > 0
                 for det in (0, 1)]
        lam = np.array([lam for _, _, lam in leak if lam > 0 for _ in (0, 1)])
        p_read_leak = self.leak_readout_prob()
        p_click = np.zeros(2)
        for spin in (SPIN_DOWN, SPIN_UP):
            p = self.readout_click_prob(spin)
            p_click[spin] = p + (1 - p) * p_read_leak
        p_read = np.stack([p_click, 1.0 - p_click], axis=1)[base.label]
        # heads: (entry, readout) pairs above PRUNE_TOL, readout click first
        base_w = (base.probs[:, None] * p_read * no_leak).ravel()
        head = np.flatnonzero(base_w > PRUNE_TOL)
        # column 0 keeps the head's weight (x 1 / 1), column c > 0 adds the
        # leak click of cells[c - 1] with weight base_w * (lam / 2) / (1 - lam)
        weights = base_w[head, None] * np.r_[1.0, lam / 2] / np.r_[1.0, 1.0 - lam]
        at = np.flatnonzero(weights > PRUNE_TOL)
        # keys: the click row with the readout click as one more column
        n_cells = base.rows.shape[1]
        extra = np.zeros((1 + len(cells), n_cells + 1), np.uint8)
        extra[np.arange(1, len(extra)), cells] = 1
        h = head[at // len(extra)]
        keys = np.zeros((at.size, n_cells + 1), np.uint8)
        keys[:, :n_cells] = base.rows[h // 2]
        keys[:, n_cells] = h % 2 == 0
        keys += extra[at % len(extra)]
        first, group = first_seen_groups(keys)
        return ClickDistribution(keys[first, :n_cells], keys[first, n_cells] == 1,
                                 np.bincount(group, weights=weights.ravel()[at],
                                             minlength=first.size))

    # -- trajectory sampling ---------------------------------------------------

    def sample_run(self, result: TrajectoryResult, master_seed: int) -> "RunClicks":
        """Sample detection for every repetition of a trajectory run."""
        from .emitter import group_by_id

        n = result.rep_indices.size
        reps = result.rep_indices
        n_cells = 6 * self.layout.photon_slots
        catalog = [np.zeros((0, n_cells), dtype=np.uint8)]
        signal = np.zeros((n, n_cells), dtype=np.uint8)
        spins = np.zeros(n, dtype=np.int8)
        u_pat = crng.uniforms(master_seed, reps, crng.stream("detection.pattern"))
        for sid, idx in group_by_id(result.state_ids):
            dist = self.distribution(result.state_table[sid])
            choice = crng.choose(dist.probs, u_pat[idx])
            catalog.append(dist.rows)
            signal[idx] = dist.rows[choice]
            spins[idx] = dist.label[choice]

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
            u = crng.uniforms(master_seed, reps[mask],
                              crng.stream("detection.flagged", e_i))
            choice = crng.choose([w for _, w in outs], u)
            flagged[mask] += _pattern_rows([c for c, _ in outs], n_cells, slot)[choice]

        # readout click: spin signal or background light in the readout window
        p_up = self.readout_click_prob(SPIN_UP)
        p_down = self.readout_click_prob(SPIN_DOWN)
        p_leak_read = self.leak_readout_prob()
        u_read = crng.uniforms(master_seed, reps, crng.stream("detection.readout"))
        p_click = np.where(spins == SPIN_UP, p_up, p_down)
        readout_signal = u_read < p_click
        readout_leak = np.zeros(n, dtype=bool)
        if p_leak_read > 0:
            u_rl = crng.uniforms(master_seed, reps, crng.stream("detection.readout_leak"))
            readout_leak = u_rl < p_leak_read

        # background clicks: at most one per photonic window, on D2 when ud < 0.5
        background = np.zeros((n, n_cells), dtype=np.uint8)
        for k, (slot, w, lam) in enumerate(self.leak_window_probs()):
            if lam <= 0:
                continue
            u = crng.uniforms(master_seed, reps, crng.stream("detection.leak", k))
            rows = np.flatnonzero(u < lam)
            ud = crng.uniforms(master_seed, reps[rows],
                               crng.stream("detection.leak_detector", k))
            background[rows, click_cell(slot, w, 0) + (ud < 0.5)] = 1

        catalog_rows = np.concatenate(catalog)
        first, _ = first_seen_groups(catalog_rows)
        return RunClicks(self, result, catalog_rows[first], spins, readout_signal,
                         readout_leak, signal, flagged, background, master_seed)


@dataclass
class RunClicks:
    """Sampled detection outcomes of a trajectory run.

    A repetition's photonic clicks are one uint8 count per cell
    (`coincidence.click_cell`: slot, window and detector), held in three
    (n_reps, n_cells) arrays by origin: `signal` for the photons of the
    sampled row, `flagged` for distinguishable background photons
    (wrong-transition scatter, re-excitation) and `background` for
    background-light clicks.  `pattern_catalog` holds the distinct rows of
    the sampled states' distributions, in first-seen order.
    """

    model: DetectionModel
    trajectory: TrajectoryResult
    pattern_catalog: np.ndarray
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

    def outcome_codes(self) -> np.ndarray:
        """A code per repetition that groups repetitions by signal and
        flagged counts, background counts and readout click."""
        _, codes = distinct_rows(np.concatenate(
            [self.signal + self.flagged, self.background,
             self.readout_clicks[:, None]], axis=1))
        return codes

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
        # wrong-transition and one re-excitation photon); a cell's ordinals
        # draw on its own block of TAG_STREAMS_PER_CELL streams
        wave = self.signal + self.flagged
        if int(wave.max(initial=0)) > TAG_STREAMS_PER_CELL:
            raise ContractError(f"a cell holds more than {TAG_STREAMS_PER_CELL} "
                                "clicks; its tag streams would overlap the next cell's")
        for cell in range(wave.shape[1]):
            slot, window, _ = cell_click(cell)
            start = windows.window_start(slot, window)
            for ordinal in range(int(wave[:, cell].max(initial=0))):
                rows = np.flatnonzero(wave[:, cell] > ordinal)
                u = crng.uniforms(self.master_seed, reps[rows],
                                  crng.stream("detection.tag",
                                              TAG_STREAMS_PER_CELL * cell + ordinal))
                offset = np.minimum(-np.log(1.0 - u) / gamma0, windows.width * 0.999)
                add(rows, np.full(rows.size, cell % 2, dtype=np.int8), start + offset)
        for k in range(self.background.shape[1] // 2):
            pair = self.background[:, 2 * k:2 * k + 2]
            rows = np.flatnonzero(pair.any(axis=1))
            if rows.size == 0:
                continue
            slot, window, _ = cell_click(2 * k)
            u = crng.uniforms(self.master_seed, reps[rows],
                              crng.stream("detection.background_tag", k))
            add(rows, pair[rows, 1].astype(np.int8),
                windows.window_start(slot, window) + u * windows.width)
        rows = np.flatnonzero(self.readout_clicks)
        if rows.size:
            u = crng.uniforms(self.master_seed, reps[rows],
                              crng.stream("detection.readout_tag"))
            ud = crng.uniforms(self.master_seed, reps[rows],
                               crng.stream("detection.readout_tag_detector"))
            add(rows, (ud < 0.5).astype(np.int8),
                windows.readout_start + u * windows.readout_width)
        if not det_rows:
            return TagArrays(np.zeros(0, np.int8), np.zeros(0), np.zeros(0, np.int64))
        det = np.concatenate(det_rows)
        time = np.concatenate(time_rows)
        rep = np.concatenate(rep_rows)
        # free the blocks before the sort
        for rows in (det_rows, time_rows, rep_rows):
            rows.clear()
        order = tag_order(det, time, rep)
        return TagArrays(det[order], time[order], rep[order])
