"""Detection layer: from pre-detection register states to click rows.

A click row is a uint8 count per cell, one cell per (slot, window,
detector) at `coincidence.click_cell`.  One table routes every photon:
the slot alphabet of `DetectionModel`, count rows with their POVM
elements on one slot, built from the interferometer's click POVM.  Its
diagonal gives a definite-bin photon's outcomes (`DetectionModel.photon`),
which route flag photons and both photons of a doubly occupied slot.
Both simulation modes work on (n, 6 * slots) count rows:

* exact mode convolves the click distribution analytically, as whole-array
  operations (`ClickDistribution`).  `DetectionModel.distribution`
  contracts slot by slot: every surviving prefix tensor of a level meets
  every alphabet entry in one matrix-vector product per entry, and the
  pruned survivors keep the depth-first order of the alphabet indices.
  Flag photons are outer sums of rows with outer products of weights.  The
  readout click and first-order background clicks weight each row in one
  place (`readout_terms`, which applies the PRUNE_TOL truncation): a row
  has its no-leak weight and one leak weight, for one background click in
  any one of its photonic cells, as every window has the one background
  rate `leak_window_prob`.  The witness counts these terms in closed form,
  and `full_distribution` expands them into click rows, equal rows summed
  in a fixed order with `np.bincount`.
* trajectory mode samples one row per repetition from the distribution of
  that repetition's pure state (`sample_run`), then adds flagged and
  background clicks and the spin-readout click, all from counter-based
  streams.  It keeps each repetition's clicks as count rows (`RunClicks`),
  and its time tags are keyed by repetition and click content.  Steps
  after a sequence's last excite step (a witness sub-run's wait and
  readout rotation) act on the spin alone and so commute with the
  detection: such a run is read where that tail starts.  The slots of
  each tail-start state are contracted once into the 2 x 2 spin blocks of
  its rows (`spin_blocks`), and a final state's distribution is those
  blocks carried through its tail (`tail_distribution`).

Efficiency handling: with thinned=True every photon and readout click is
Bernoulli-thinned by the physical efficiencies; with thinned=False clicks
are kept with unit probability while the background rate is rescaled so
background-to-signal ratios match the physical setting.  Post-selected
estimators are identical in both modes; absolute rates are physical only
in thinned mode.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng as crng
from .coincidence import (DETECTORS, MIDDLE, WINDOWS, TagArrays, WindowConfig,
                          cell_click, click_cell, first_seen_groups, inside_as_written,
                          tag_order)
from .emitter import EXTRA_PHOTON_BRANCHES, NoiseParams, TrajectoryResult
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


def group_by_id(ids: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Index arrays of equal-id repetitions, in ascending id order (ids are
    non-negative state ids)."""
    if ids.size == 0:
        return []
    # numpy's stable sort of 8- and 16-bit keys is a radix sort
    order = np.argsort(ids.astype(np.min_scalar_type(ids.max())), kind="stable")
    counts = np.bincount(ids)
    uniq = np.flatnonzero(counts)
    ends = np.cumsum(counts[uniq]).tolist()
    return [(sid, order[end - counts[sid]:end]) for sid, end in zip(uniq.tolist(), ends)]


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


@dataclass(frozen=True)
class ReadoutTerms:
    """Truncated readout and first-order background terms of a distribution
    (`DetectionModel.readout_terms`).

    rows holds each head's click row, readout whether it has a readout
    click, weights its weight without background clicks, and leak its
    weight with one background click in any one photonic cell, the same
    for each of the 6 * slots cells (zero where truncated).
    """

    rows: np.ndarray
    readout: np.ndarray
    weights: np.ndarray
    leak: np.ndarray


class DetectionModel:
    """Precomputed click POVM alphabet for one (layout, TBI, phase, noise,
    mode), phase the measurement's observable phase phi_e - phi_d.

    The slot alphabet is stacked as arrays: `alphabet_rows` (slot-0 count
    rows, 6 cells), `alphabet_mats` (POVM elements on one slot) and
    `alphabet_support` (the slot levels each element touches).
    `photon[bin]` holds the (slot-0 count rows, probabilities) of one
    definite-bin photon, bin "early" or "late".

    The alphabet reads states evolved at excitation phase 0: the phase is
    in its middle-window elements (`slot_window_povm`).
    """

    def __init__(self, layout: RegisterLayout, tbi: TBIParams, phase: float,
                 noise: NoiseParams, windows: WindowConfig, thinned: bool = False):
        self.layout = layout
        self.tbi = tbi
        self.phase = phase
        self.noise = noise
        self.windows = windows
        self.thinned = thinned
        self.eta = noise.eta_total * tbi.detector_efficiency if thinned else 1.0
        # eta_readout = 0 means the readout laser is off, in either mode
        if thinned:
            self.eta_read = noise.eta_readout
        else:
            self.eta_read = 1.0 if noise.eta_readout > 0 else 0.0
        self.alphabet_rows, self.alphabet_mats, self.photon = self._build_slot_alphabet()
        # support masks let the contraction skip entries with no overlap
        mags = np.abs(self.alphabet_mats)
        self.alphabet_support = (np.diagonal(mags, axis1=1, axis2=2)
                                 + mags.sum(axis=2) + mags.sum(axis=1)) > 1e-15
        # id() of a sampled state -> (that state, its distribution, the CDF
        # of its probabilities); id() of a tail-start state -> (that state,
        # its spin_blocks)
        self._distributions: dict[int, tuple] = {}
        self._blocks: dict[int, tuple] = {}

    # -- per-slot alphabet -------------------------------------------------

    def _build_slot_alphabet(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """The slot alphabet's rows and POVM elements, and the photon table.

        The entries are the no-click row, one row per `slot_window_povm`
        element in its order, and at slot_dim 6 the click rows of the doubly
        occupied levels, equal rows merged in order of first appearance.
        A definite-bin photon's outcomes (`photon[bin]`) are the no-click
        and single-click rows in cell order, weighted by the alphabet's
        diagonal at that bin, without the zero-weight ones.  Two photons in
        one slot route independently: their rows are outer sums of the
        photon tables.  An early+late pair that meets in the middle window
        interferes on the recombiner (Hong-Ou-Mandel): with the overlap
        v = indistinguishability * classical_visibility, each same-detector
        pair gains v * eta^2 * s(1 - s) / 4 and the D1 + D2 pair loses twice
        that.
        """
        d, eta = self.layout.slot_dim, self.eta
        povm = slot_window_povm(self.tbi, self.phase, d)
        none = np.zeros((d, d), dtype=np.complex128)
        none[SLOT_VACUUM, SLOT_VACUUM] = 1.0
        none[SLOT_EARLY, SLOT_EARLY] = 1.0 - eta
        none[SLOT_LATE, SLOT_LATE] = 1.0 - eta
        rows = np.zeros((1 + len(povm), 6), np.uint8)
        cells = [click_cell(0, WINDOWS.index(window), DETECTORS.index(det))
                 for window, det in povm]
        rows[np.arange(1, len(rows)), cells] = 1
        mats = np.array([none] + [eta * mat for mat in povm.values()])
        by_cell = np.r_[0, 1 + np.argsort(cells)]
        photon = {}
        for label, level in (("early", SLOT_EARLY), ("late", SLOT_LATE)):
            w = mats[by_cell, level, level].real
            photon[label] = rows[by_cell][w > 0], w[w > 0]
        if d == 6:
            s = self.tbi.splitting_ratio
            hom = (self.noise.indistinguishability * self.tbi.classical_visibility
                   * eta ** 2 * s * (1 - s) / 4)
            # both photons in the middle window: on D1 twice, D1 + D2, D2 twice
            d1 = click_cell(0, MIDDLE, 0)
            both_middle = np.zeros((3, 6), np.uint8)
            both_middle[:, d1:d1 + 2] = ((2, 0), (1, 1), (0, 2))
            row_parts, mat_parts = [rows], [mats]
            for level, a, b in ((SLOT_EE, "early", "early"), (SLOT_EL, "early", "late"),
                                (SLOT_LL, "late", "late")):
                (rows_a, w_a), (rows_b, w_b) = photon[a], photon[b]
                pairs = (rows_a[:, None] + rows_b).reshape(-1, 6)
                w = np.outer(w_a, w_b).ravel()
                if level == SLOT_EL:
                    pairs = np.concatenate([pairs, both_middle])
                    w = np.r_[w, hom, -2 * hom, hom]
                first, group = first_seen_groups(pairs)
                w = np.bincount(group, weights=w, minlength=first.size)
                keep = w > 1e-15
                level_mats = np.zeros((keep.sum(), d, d), dtype=np.complex128)
                level_mats[:, level, level] = w[keep]
                row_parts.append(pairs[first[keep]])
                mat_parts.append(level_mats)
            rows = np.concatenate(row_parts)
            first, group = first_seen_groups(rows)
            rows, mats = rows[first], np.zeros((first.size, d, d), dtype=np.complex128)
            np.add.at(mats, group, np.concatenate(mat_parts))
        return rows, mats, photon

    # -- exact distributions -------------------------------------------------

    def spin_blocks(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The click rows of a pure state or density and each row's 2 x 2
        spin block Tr_slots[(I (x) M_a) rho], (spin ket, spin bra), in
        depth-first order of the per-slot alphabet indices.

        Slots are contracted level by level.  At slot k every surviving
        prefix tensor meets every alphabet entry in one matrix-vector
        product per entry; a (prefix, entry) pair is dropped when the
        prefix's slot occupancy misses the entry's support or the
        contracted tensor stays below PRUNE_TOL everywhere.
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
        return (self.alphabet_rows[paths].reshape(len(paths), 6 * n),
                t.reshape(-1, 2, 2))

    def distribution(self, state: np.ndarray, flag_clicks=()) -> ClickDistribution:
        """Joint click distribution of a pure state or density: count rows,
        spins and probabilities, the diagonals of its `spin_blocks` above
        PRUNE_TOL.

        flag_clicks lists (slot, bin) labels of distinguishable background
        photons (detuned-transition scatter, re-excitation); each is routed
        like a definite-bin photon and added to the rows.
        """
        rows, blocks = self.spin_blocks(state)
        dist = _leaves(rows, np.stack([blocks[:, s, s].real for s in (SPIN_DOWN, SPIN_UP)],
                                      axis=1))
        for slot, bin_label in flag_clicks:
            dist = self._convolve_flag(dist, slot, bin_label)
        return dist

    def tail_distribution(self, start: np.ndarray, k: np.ndarray) -> ClickDistribution:
        """`distribution` of the pure state K start / ||K start||, for K a
        2 x 2 factor on the spin, from start's `spin_blocks` (kept by the
        model): the detection commutes with K, so row a and spin s have
        probability <s|K sigma_a K^dagger|s> / ||K start||^2."""
        hit = self._blocks.get(id(start))
        if hit is None:
            hit = self._blocks[id(start)] = (start, *self.spin_blocks(start))
        _, rows, blocks = hit
        psi = k @ start.reshape(2, -1)
        spin = np.diagonal(k @ blocks @ k.conj().T, axis1=1, axis2=2).real
        return _leaves(rows, spin[:, (SPIN_DOWN, SPIN_UP)] / np.vdot(psi, psi).real)

    def _convolve_flag(self, dist: ClickDistribution, slot: int, bin_label: str
                       ) -> ClickDistribution:
        rows, w = self.photon[bin_label]
        extra = np.zeros((len(rows), dist.rows.shape[1]), np.uint8)
        extra[:, 6 * slot:6 * slot + 6] = rows
        p = (dist.probs[:, None] * w).ravel()
        keep = p > PRUNE_TOL
        out = (dist.rows[:, None] + extra).reshape(-1, extra.shape[1])
        return ClickDistribution(out[keep], np.repeat(dist.label, len(w))[keep],
                                 p[keep])

    # -- readout and leak ------------------------------------------------------

    def readout_click_prob(self, spin: int) -> float:
        if spin == SPIN_UP:
            return self.noise.readout_fidelity * self.eta_read
        return self.noise.readout_dark * self.eta_read

    def leak_window_prob(self) -> float:
        """Background click probability lam of one photonic window per
        repetition; every window has the width `WindowConfig.width`."""
        scale = self.noise.eta_total * self.tbi.detector_efficiency if self.thinned else 1.0
        return self.noise.p_leak * self.windows.width * scale

    def leak_readout_prob(self) -> float:
        """False spin-readout click probability from background light."""
        if self.noise.eta_readout <= 0:
            return 0.0
        scale = (self.noise.eta_total * self.eta_read / self.noise.eta_readout)
        return self.noise.p_leak * self.windows.readout_width * scale

    def readout_terms(self, state: np.ndarray, flag_clicks=(),
                      heralded_only: bool = False) -> ReadoutTerms:
        """The click distribution weighted by readout click and first-order
        background clicks, with the PRUNE_TOL truncation applied.

        Background windows are convolved to first order (at most one leak
        click per window per repetition), which is exact to O(lam^2).  A
        head is an (entry, readout) pair of `distribution`, readout click
        first, kept when its no-leak weight base_w exceeds PRUNE_TOL;
        heralded_only keeps the readout-click heads alone.  A head's leak
        weight, base_w * (lam / 2) / (1 - lam), is that of the head plus one
        leak click in any one photonic cell (each of the 3 * slots windows,
        on D1 or on D2); it is zeroed when not above PRUNE_TOL.
        """
        base = self.distribution(state, flag_clicks)
        lam = self.leak_window_prob()
        no_leak = math.prod([1.0 - lam] * (3 * self.layout.photon_slots))
        p_read_leak = self.leak_readout_prob()
        p_click = np.zeros(2)
        for spin in (SPIN_DOWN, SPIN_UP):
            p = self.readout_click_prob(spin)
            p_click[spin] = p + (1 - p) * p_read_leak
        p_read = np.stack([p_click, 1.0 - p_click], axis=1)
        if heralded_only:
            p_read = p_read[:, :1]
        base_w = (base.probs[:, None] * p_read[base.label] * no_leak).ravel()
        head = np.flatnonzero(base_w > PRUNE_TOL)
        leak = base_w[head] * (lam / 2) / (1.0 - lam)
        leak[leak <= PRUNE_TOL] = 0.0
        entry, no_click = np.divmod(head, p_read.shape[1])
        return ReadoutTerms(base.rows[entry], no_click == 0, base_w[head], leak)

    def full_distribution(self, state: np.ndarray, flag_clicks=()) -> ClickDistribution:
        """Click rows incl. background, readout clicks and probabilities.

        The kept terms of `readout_terms` become (row, readout) keys, ordered
        head -> [no leak, leak in cell 0, cell 1, ...] (window k on D1, on
        D2, window k + 1 ...); equal keys are summed in that order and
        listed in order of first appearance.
        """
        terms = self.readout_terms(state, flag_clicks)
        n_cells = terms.rows.shape[1]
        # term j of a head: the head alone (j = 0) or with a leak click in
        # cell j - 1; the readout column gets none
        extra = np.eye(1 + n_cells, n_cells + 1, -1, dtype=np.uint8)
        weights = np.empty((len(terms.rows), 1 + n_cells))
        weights[:, 0] = terms.weights
        weights[:, 1:] = terms.leak[:, None]
        at = np.flatnonzero(weights)
        h = at // (1 + n_cells)
        # keys: the click row with the readout click as one more column
        keys = np.zeros((at.size, n_cells + 1), np.uint8)
        keys[:, :n_cells] = terms.rows[h]
        keys[:, n_cells] = terms.readout[h]
        keys += extra[at % (1 + n_cells)]
        first, group = first_seen_groups(keys)
        return ClickDistribution(keys[first, :n_cells], keys[first, n_cells] == 1,
                                 np.bincount(group, weights=weights.ravel()[at],
                                             minlength=first.size))

    # -- trajectory sampling ---------------------------------------------------

    def sample_run(self, result: TrajectoryResult, master_seed: int) -> "RunClicks":
        """Sample detection for every repetition of a trajectory run.

        Each final state's distribution is computed once per model: the
        results of a run's blocks share one state table (`TrajectoryTables`),
        so a model kept across them evaluates no state twice.  A sequence
        with a spin-only tail (`TrajectoryResult.tail_ids`) reads the
        photons where the tail starts: a final state's distribution is the
        `tail_distribution` of the first of its repetitions, so the slots
        are contracted once per tail-start state, not once per final state.
        Without a tail it is the final state's `distribution`.
        """
        n = result.rep_indices.size
        reps = result.rep_indices
        n_cells = 6 * self.layout.photon_slots
        catalog = [np.zeros((0, n_cells), dtype=np.uint8)]
        signal = np.zeros((n, n_cells), dtype=np.uint8)
        spins = np.zeros(n, dtype=np.int8)
        u_pat = crng.uniforms(master_seed, reps, crng.stream("detection.pattern"))
        for sid, idx in group_by_id(result.state_ids):
            state = result.state_table[sid]
            hit = self._distributions.get(id(state))
            if hit is None:
                if result.tail_ids is None:
                    dist = self.distribution(state)
                else:
                    first = idx[0]
                    dist = self.tail_distribution(
                        result.state_table[result.tail_ids[first]],
                        result.tail_operator(first))
                hit = self._distributions[id(state)] = state, dist, crng.cdf(dist.probs)
            _, dist, cum = hit
            choice = crng.pick(cum, u_pat[idx])
            catalog.append(dist.rows)
            signal[idx] = dist.rows[choice]
            spins[idx] = dist.label[choice]

        # classical background photons: the wrong-transition photon of the
        # i-th excite step draws on flagged stream i, its re-excitation or
        # saturated-bin photon on stream n_excite + i
        flagged = np.zeros((n, n_cells), dtype=np.uint8)
        excites = [(i, op) for i, op in enumerate(result.sequence.steps) if op.kind == "excite"]
        sources = [(i, op, labels) for labels in (("wrong",), EXTRA_PHOTON_BRANCHES)
                   for i, op in excites]
        for e_i, (step_i, op, labels) in enumerate(sources):
            mask = result.took(step_i, *labels)
            if not mask.any():
                continue
            rows, w = self.photon[op.bin]
            u = crng.uniforms(master_seed, reps[mask],
                              crng.stream("detection.flagged", e_i))
            flagged[mask, 6 * op.slot:6 * op.slot + 6] += rows[crng.choose(w, u)]

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

        # background clicks: at most one per photonic window, window k on
        # cells 2k (D1) and 2k + 1 (D2), on D2 when ud < 0.5
        background = np.zeros((n, n_cells), dtype=np.uint8)
        lam = self.leak_window_prob()
        for k in range(3 * self.layout.photon_slots if lam > 0 else 0):
            u = crng.uniforms(master_seed, reps, crng.stream("detection.leak", k))
            rows = np.flatnonzero(u < lam)
            ud = crng.uniforms(master_seed, reps[rows],
                               crng.stream("detection.leak_detector", k))
            background[rows, 2 * k + (ud < 0.5)] = 1

        catalog_rows = np.concatenate(catalog)
        first, _ = first_seen_groups(catalog_rows)
        return RunClicks(self, result, catalog_rows[first], spins, readout_signal,
                         readout_leak, signal, flagged, background, master_seed)


def _leaves(rows: np.ndarray, p: np.ndarray) -> ClickDistribution:
    """The (row, spin) entries of p, an (entries, 2) array of probabilities
    by spin, above PRUNE_TOL, in row order and spin down first."""
    leaf, spin = np.nonzero(p > PRUNE_TOL)
    return ClickDistribution(rows[leaf], np.array((SPIN_DOWN, SPIN_UP), dtype=np.int8)[spin],
                             p[leaf, spin])


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

    def to_tags(self, gamma0: float = 2.54, others: Sequence[RunClicks] = ()
                ) -> TagArrays:
        """Expand sampled clicks into time tags, in (repetition, time,
        detector) order.

        others are runs on other repetitions with the same windows and
        master seed, such as a witness run's other sub-runs: their tags are
        merged into the same columns.  Photonic clicks get an exponential
        wavepacket offset inside their window, background clicks a uniform
        one; readout clicks are uniform in the readout window.  Each time
        stays where its 6-decimal text in `timetags.csv` reads back inside
        its window (`coincidence.inside_as_written`).  A wavepacket
        click's draw is keyed by its repetition, cell and ordinal within the
        cell, so tag times do not depend on which other repetitions are
        expanded in the same call.  The tags of all the runs are expanded
        and sorted (`tag_order`) at once: a run sampled in blocks of
        repetitions (`experiments.BLOCK_REPS`) is expanded a block at a
        time, and the blocks' tags follow each other in order.
        """
        runs = [self, *others]
        windows = self.model.windows
        if any(run.model.windows != windows or run.master_seed != self.master_seed
               for run in others):
            raise ContractError("runs whose tags are merged must share their windows "
                                "and master seed")

        def column(arrays):
            # a lone run's arrays are read as they are
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        reps = column([np.asarray(run.trajectory.rep_indices, np.uint64) for run in runs])
        columns = _block_tags(windows, self.master_seed, gamma0, reps,
                              *(column([getattr(run, name) for run in runs])
                                for name in ("signal", "flagged", "background",
                                             "readout_signal", "readout_leak")))
        order = tag_order(*columns)
        tags = TagArrays(*(column[order] for column in columns))
        tags._ordered = True
        return tags


def _block_tags(windows: WindowConfig, master_seed: int, gamma0: float, reps, signal,
                flagged, background, readout_signal, readout_leak
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (detector, time, repetition) columns of the tags of the uint64
    repetitions reps, from their rows of `RunClicks` arrays, unsorted.  The
    arrays are only read."""
    # at most 4 photons reach one cell (a doubly occupied slot plus one
    # wrong-transition and one re-excitation photon); a cell's ordinals draw
    # on its own block of TAG_STREAMS_PER_CELL streams
    wave = signal + flagged
    if int(wave.max(initial=0)) > TAG_STREAMS_PER_CELL:
        raise ContractError(f"a cell holds more than {TAG_STREAMS_PER_CELL} "
                            "clicks; its tag streams would overlap the next cell's")
    windowed = [np.flatnonzero((background[:, 2 * k] | background[:, 2 * k + 1]) > 0)
                for k in range(background.shape[1] // 2)]
    read = np.flatnonzero(readout_signal | readout_leak)
    n_tags = int(wave.sum()) + sum(at.size for at in windowed) + read.size
    det = np.empty(n_tags, np.int8)
    time = np.empty(n_tags)
    rep = np.empty(n_tags, np.uint64)
    end = 0

    def add(at, detector, offsets, start, width):
        # tags at start + offsets, each inside the window [start, start +
        # width) as written
        nonlocal end
        tags = slice(end, end + at.size)
        det[tags] = detector
        np.add(offsets, start, out=time[tags])
        inside_as_written(time[tags], start, start + width)
        np.take(reps, at, out=rep[tags], mode="clip")
        end += at.size

    for cell in range(wave.shape[1]):
        slot, window, _ = cell_click(cell)
        start = windows.window_start(slot, window)
        count = wave[:, cell]
        # the repetitions of ordinal k + 1 are among those of ordinal k
        at = np.flatnonzero(count > 0)
        ordinal = 0
        while at.size:
            u = crng.uniforms(master_seed, reps[at],
                              crng.stream("detection.tag",
                                          TAG_STREAMS_PER_CELL * cell + ordinal))
            # the offset -log(1 - u) / gamma0, cut at 0.999 of the window
            np.subtract(1.0, u, out=u)
            np.log(u, out=u)
            np.negative(u, out=u)
            u /= gamma0
            add(at, cell % 2, np.minimum(u, windows.width * 0.999, out=u), start,
                windows.width)
            ordinal += 1
            at = at[count[at] > ordinal]
    for k, at in enumerate(windowed):
        slot, window, _ = cell_click(2 * k)
        start = windows.window_start(slot, window)
        u = crng.uniforms(master_seed, reps[at], crng.stream("detection.background_tag", k))
        u *= windows.width
        add(at, background[at, 2 * k + 1], u, start, windows.width)
    u = crng.uniforms(master_seed, reps[read], crng.stream("detection.readout_tag"))
    ud = crng.uniforms(master_seed, reps[read], crng.stream("detection.readout_tag_detector"))
    u *= windows.readout_width
    add(read, ud < 0.5, u, windows.readout_start, windows.readout_width)
    # the int64 tag column's values
    return det, time, rep.view(np.int64)
