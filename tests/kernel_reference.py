"""Per-entry reference forms of the emitter and exact detection kernels.

These are the dense full-register Kraus matrices that the emitter's local
(spin, slot) factors replaced; the hand-routed slot alphabet (tuple-of-cells
click patterns, a classical route per definite-bin photon and per doubly
occupied level) that `DetectionModel`'s alphabet builder replaced; the
depth-first contraction, the dict-based flag and leak convolutions and the
per-record heralded-outcome loop that the array kernel in
`timebin.detection` and `timebin.witness.SettingCounts` replaced; and the
exact witness counting by expanded, grouped click rows that the
closed-form `SettingCounts.add_expected` replaced; and the trajectory
engine's per-state group loop (a sort of the repetitions by state, then an
inverse-CDF search and a scatter per group) that its one branch table per
step replaced; and the physical phase convention (every sub-run evolved at
its setting's excitation phase and read with the click POVM at the
detection pass's phase) that the phase-0 generation, with the setting's
phase in the click POVM, replaced.  The
detection forms work on click records (`click_record` ints: a row of
per-cell counts read as little-endian bytes, so records of separate clicks
add and a record moves to slot k by `<< 48 * k`) and serve as bit-for-bit
oracles for the equivalence tests.
"""
from __future__ import annotations

import dataclasses
import math
from itertools import product

import numpy as np

from timebin.coincidence import DETECTORS, EARLY, LATE, MIDDLE, WINDOWS, click_cell
from timebin.detection import PRUNE_TOL
from timebin.hilbert import (SLOT_EARLY, SLOT_EE, SLOT_EL, SLOT_LATE, SLOT_LL,
                             SLOT_VACUUM, SPIN_DOWN, SPIN_UP, RegisterLayout)
from timebin.interferometer import Detector, Window, effective_phase


def verify_kraus_complete(branches) -> float:
    """Largest entry of sum K^dagger K - 1 over branches (label, K, ...),
    the identity taken in each factor's own dimension."""
    total = sum(b[1].conj().T @ b[1] for b in branches)
    return float(np.max(np.abs(total - np.eye(len(total)))))


def dense_factor(k: np.ndarray, layout, slot: int) -> np.ndarray:
    """The full-register matrix of a `step_branches` factor k of a step on
    slot, built by np.kron: each 2 x 2 spin block of k, times its slot
    block on slot and the identity on every other slot."""
    f = len(k) // 2
    if f == 1:
        return np.kron(k, np.eye(layout.total_dim // 2))
    full = 0
    for i, j in np.ndindex(2, 2):
        m = np.zeros((2, 2), dtype=np.complex128)
        m[i, j] = 1.0
        for s in range(layout.photon_slots):
            m = np.kron(m, k[i * f:(i + 1) * f, j * f:(j + 1) * f] if s == slot
                        else np.eye(layout.slot_dim))
        full = full + m
    return full


_LATE_PHOTONS = np.array([0, 0, 1, 0, 1, 2])   # vacuum, e, l, ee, el, ll


def late_phase_diagonal(layout, phase: float) -> np.ndarray:
    """Diagonal of D = exp(i phase L), L the late-photon count of each basis
    state of the register.  Advancing every late excitation's optical phase
    by phase turns its Kraus operators K into D K D^dagger and leaves every
    other step's operators unchanged, because they commute with D."""
    late = np.zeros(1, dtype=int)
    for _ in range(layout.photon_slots):
        late = (late[:, None] + _LATE_PHOTONS[:layout.slot_dim]).ravel()
    return np.exp(1j * phase * np.tile(late, 2))  # spin-down block, spin-up block


def excitation_phase(theta_pol: float, drift: float, params) -> float:
    """The phase phi_e between the late and early excitation pulses at
    polarizer angle theta_pol: the detection pass's phase phi_d = drift
    plus the observable difference 2(theta_pol - theta0)."""
    return drift + effective_phase(theta_pol, params)


def slot_window_povm(params, theta_pol: float, drift: float = 0.0, slot_dim: int = 3,
                     physical: bool = False) -> dict:
    """The one-photon click POVM at polarizer angle theta_pol under a common
    drift of both interferometer passes, as (1 +- v)/2 mixes of the two
    detectors' pure middle-window projectors.

    The physical elements (physical=True) have the middle-window coherence
    exp(-i phi_d) of the detection pass, phi_d = drift, and read the state
    evolved at the excitation phase phi_e (`excitation_phase`).  Otherwise
    each is conjugated by the slot's D = exp(i phi_e L), to D^dagger M D,
    which reads the state evolved at phase 0."""
    s = params.splitting_ratio
    v = params.classical_visibility
    povm = {}

    def slot_mat(fill) -> np.ndarray:
        m = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
        for (i, j), val in fill.items():
            m[i, j] = val
        return m

    for det, w in ((Detector.D1, 0.5), (Detector.D2, 0.5)):
        povm[(Window.EARLY, det)] = slot_mat({(SLOT_EARLY, SLOT_EARLY): s * w})
        povm[(Window.LATE, det)] = slot_mat({(SLOT_LATE, SLOT_LATE): (1.0 - s) * w})
    chi1 = np.array([np.sqrt(1.0 - s), np.sqrt(s) * np.exp(1j * drift)])
    chi2 = np.array([chi1[0], -chi1[1]])
    e_idx = [SLOT_EARLY, SLOT_LATE]
    raw1 = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
    raw2 = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
    for i, gi in enumerate(e_idx):
        for j, gj in enumerate(e_idx):
            raw1[gi, gj] = 0.5 * chi1[i] * chi1[j].conjugate()
            raw2[gi, gj] = 0.5 * chi2[i] * chi2[j].conjugate()
    povm[(Window.MIDDLE, Detector.D1)] = (1 + v) / 2 * raw1 + (1 - v) / 2 * raw2
    povm[(Window.MIDDLE, Detector.D2)] = (1 + v) / 2 * raw2 + (1 - v) / 2 * raw1
    if not physical:
        layout = RegisterLayout(photon_slots=1, slot_dim=slot_dim)
        phase_e = excitation_phase(theta_pol, drift, params)
        d = late_phase_diagonal(layout, phase_e)[:slot_dim]
        povm = {key: d.conj()[:, None] * m * d for key, m in povm.items()}
    return povm


def pattern_rows(patterns, n_cells: int, slot: int = 0) -> np.ndarray:
    """Count rows of slot-0 click patterns (tuples of clicked cells, a cell
    once per click) moved to the given slot."""
    rows = np.zeros((len(patterns), n_cells), dtype=np.uint8)
    for i, cells in enumerate(patterns):
        for cell in cells:
            rows[i, cell + 6 * slot] += 1
    return rows


def single_photon_outcomes(component: int, tbi, eta: float) -> list:
    """(click pattern, probability) of one definite-bin photon in slot 0,
    routed classically (no interference)."""
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


def _detector_split(window: int, eta: float) -> list:
    return [((), 1.0 - eta)] + [((click_cell(0, window, det),), eta * 0.5)
                                for det in (0, 1)]


def double_state_outcomes(state: int, tbi, noise, eta: float) -> list:
    """(click pattern, probability) of a doubly occupied slot: same-bin
    pairs route independently; an early+late pair that meets in the middle
    window has its cross-detector coincidence suppressed by
    indistinguishability * classical_visibility."""
    if state in (SLOT_EE, SLOT_LL):
        comp = SLOT_EARLY if state == SLOT_EE else SLOT_LATE
        single = single_photon_outcomes(comp, tbi, eta)
        agg: dict = {}
        for (p_a, w_a), (p_b, w_b) in product(single, repeat=2):
            pat = tuple(sorted(p_a + p_b))
            agg[pat] = agg.get(pat, 0.0) + w_a * w_b
        return list(agg.items())
    assert state == SLOT_EL
    s = tbi.splitting_ratio
    v_eff = noise.indistinguishability * tbi.classical_visibility
    agg = {}
    routes_e = [(EARLY, s), (MIDDLE, 1.0 - s)]
    routes_l = [(MIDDLE, s), (LATE, 1.0 - s)]
    for (win_e, pe), (win_l, pl) in product(routes_e, routes_l):
        w_route = pe * pl
        if win_e == MIDDLE and win_l == MIDDLE:
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


def slot_alphabet(model, theta_pol: float, drift: float = 0.0, physical: bool = False
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, mats, support) of the model's slot alphabet at polarizer angle
    theta_pol, built from tuple-of-cells patterns merged in a dict in
    insertion order; drift and physical as in `slot_window_povm`."""
    d, eta = model.layout.slot_dim, model.eta
    entries: dict = {}

    def add(cells, mat) -> None:
        entries[cells] = entries[cells] + mat if cells in entries else mat.copy()

    none = np.zeros((d, d), dtype=np.complex128)
    none[SLOT_VACUUM, SLOT_VACUUM] = 1.0
    none[SLOT_EARLY, SLOT_EARLY] = 1.0 - eta
    none[SLOT_LATE, SLOT_LATE] = 1.0 - eta
    add((), none)
    for (window, det), mat in slot_window_povm(model.tbi, theta_pol, drift, d,
                                               physical).items():
        add((click_cell(0, WINDOWS.index(window), DETECTORS.index(det)),), eta * mat)
    if d == 6:
        for state in (SLOT_EE, SLOT_EL, SLOT_LL):
            proj = np.zeros((d, d), dtype=np.complex128)
            proj[state, state] = 1.0
            for cells, w in double_state_outcomes(state, model.tbi, model.noise, eta):
                if w > 1e-15:
                    add(cells, w * proj)
    rows = pattern_rows(list(entries), 6)
    mats = np.array(list(entries.values()))
    mags = np.abs(mats)
    support = (np.diagonal(mags, axis1=1, axis2=2)
               + mags.sum(axis=2) + mags.sum(axis=1)) > 1e-15
    return rows, mats, support


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
                for cells, w in single_photon_outcomes(comp, model.tbi, model.eta)]
        results = [(pat + extra, spin, p * w)
                   for pat, spin, p in results for extra, w in outs
                   if p * w > PRUNE_TOL]
    return results


def full_distribution(model, state: np.ndarray, flag_clicks=()
                      ) -> list[tuple[int, bool, float]]:
    """(click record incl. background, readout click, probability) entries,
    aggregated in a dict in first-seen order."""
    base = distribution(model, state, flag_clicks)
    lam = model.leak_window_prob()
    windows = [(slot, w) for slot in range(model.layout.photon_slots)
               for w in (EARLY, MIDDLE, LATE)]
    p_read_leak = model.leak_readout_prob()
    out: dict[tuple[int, bool], float] = {}
    no_leak = math.prod(1.0 - lam for _ in windows)
    leak_clicks = [[click_record(slot, w, det) for det in (0, 1)]
                   for slot, w in windows if lam > 0]
    for record, spin, p in base:
        p_click = model.readout_click_prob(spin)
        p_click = p_click + (1 - p_click) * p_read_leak
        for read_click, p_r in ((True, p_click), (False, 1.0 - p_click)):
            base_w = p * p_r * no_leak
            if base_w <= PRUNE_TOL:
                continue
            key = (record, read_click)
            out[key] = out.get(key, 0.0) + base_w
            for clicks in leak_clicks:
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


def exact_counts(n_qubits: int, params, noise, tbi, thinned: bool = False) -> dict:
    """label -> SettingCounts of the exact witness, counted record by
    record: each component's `full_distribution` (leak clicks expanded into
    rows, equal rows grouped), its readout-click rows through
    `add_heralded`."""
    from timebin.experiments import _exact_distributions, _exact_subruns
    from timebin.witness import SettingCounts

    counts: dict = {}
    for run, exact in _exact_subruns(n_qubits, params, noise):
        acc = counts.setdefault(run.setting.label,
                                SettingCounts(run.setting, n_qubits - 1))
        n_subs = len(run.setting.subsettings)
        for weight, dist in _exact_distributions(run, exact, tbi, noise, thinned):
            sel = dist.label & (dist.probs > 0)
            add_heralded(acc.counts, run.setting, run.sub_index,
                         zip(row_records(dist.rows[sel]),
                             (weight * dist.probs[sel] / n_subs).tolist()),
                         n_qubits - 1)
    return counts


def physical_model(layout, tbi, theta_pol: float, drift: float, noise, windows,
                   thinned: bool = False):
    """A `DetectionModel` whose slot alphabet holds the physical click POVM
    at polarizer angle theta_pol under the drift (`slot_alphabet(...,
    physical=True)`), for a state evolved at the excitation phase."""
    from timebin.detection import DetectionModel

    model = DetectionModel(layout, tbi, effective_phase(theta_pol, tbi), noise, windows,
                           thinned)
    model.alphabet_rows, model.alphabet_mats, model.alphabet_support = \
        slot_alphabet(model, theta_pol, drift, physical=True)
    return model


def physical_exact_counts(n_qubits: int, params, noise, tbi, thinned: bool = False,
                          drift: float = 0.0) -> dict:
    """label -> SettingCounts of the exact witness in the physical
    convention: each setting sets the polarizer to theta0 + phase / 2, and
    each sub-run's whole sequence is evolved at that angle's
    `excitation_phase` under the drift, its components read with
    `physical_model` and counted by `SettingCounts.add_expected`."""
    from timebin.emitter import (build_bell_sequence, build_ghz_sequence,
                                 run_sequence_exact)
    from timebin.experiments import _witness_subruns
    from timebin.witness import SettingCounts

    counts: dict = {}
    for run in _witness_subruns(n_qubits, params):
        acc = counts.setdefault(run.setting.label,
                                SettingCounts(run.setting, n_qubits - 1))
        sub = run.setting.subsettings[run.sub_index]
        theta_pol = tbi.theta0 + run.phase / 2
        seq = with_late_phase(build_bell_sequence() if n_qubits == 2
                              else build_ghz_sequence(n_qubits - 1),
                              excitation_phase(theta_pol, drift, tbi))
        exact = run_sequence_exact(seq.with_readout_rotation(sub.axis, sub.angle),
                                   params, noise)
        model = physical_model(exact.layout, tbi, theta_pol, drift, noise, run.windows,
                               thinned)
        n_subs = len(run.setting.subsettings)
        for comp in exact.components:
            terms = model.readout_terms(comp.rho, comp.flag_clicks, heralded_only=True)
            scale = comp.weight / n_subs
            acc.add_expected(run.sub_index, terms.rows, terms.weights * scale,
                             terms.leak * scale)
    return counts


def with_late_phase(seq, phase: float):
    """seq with every late excitation at phase, the relative phase between
    the late and early pulses (the builders put both at 0)."""
    return dataclasses.replace(seq, steps=tuple(
        dataclasses.replace(op, phase=phase) if op.kind == "excite" and op.bin == "late"
        else op for op in seq.steps))


def grouped_trajectory(seq, params, noise, master_seed: int, rep_indices):
    """(run_sequence_trajectory's result, the (kept, step) branch counts):
    each step groups the repetitions by state id (`group_by_id`), evolves
    each group's state and draws its branches by `rng.choose`, scattering
    the ids and codes group by group.  kept holds, per step, the number of
    branches each occupied state keeps, and step the number the step has."""
    from timebin import rng as crng
    from timebin.detection import group_by_id
    from timebin.emitter import (BRANCH_CODES, TrajectoryResult, _StateTable,
                                 _check_overflow, _initial_vector, apply_branch,
                                 sequence_layout, step_branches)

    reps = np.asarray(rep_indices, dtype=np.uint64)
    n = reps.size
    record = np.full((n, len(seq.steps) - 1), BRANCH_CODES["skipped"], dtype=np.int8)
    table = _StateTable()
    layout = sequence_layout(seq, noise)
    ids = np.full(n, table.add(_initial_vector(layout)), dtype=np.int64)
    if noise.blink_block_len > 0 and noise.blink_on_fraction < 1.0:
        blocks = reps // np.uint64(noise.blink_block_len)
        blink_off = (crng.uniforms(master_seed, blocks, crng.stream("emitter.blink"))
                     >= noise.blink_on_fraction)
    else:
        blink_off = np.zeros(n, dtype=bool)
    counts = []
    for step_i, op in enumerate(seq.steps[:-1]):
        branches = step_branches(op, params, noise, layout)
        codes = np.array([BRANCH_CODES[label] for label, _, _ in branches], dtype=np.int8)
        u = crng.uniforms(master_seed, reps, crng.stream("emitter.step", step_i))
        rows = np.nonzero(~blink_off)[0] if op.kind == "excite" else np.arange(n)
        kept = []
        for sid, sel in group_by_id(ids[rows]):
            idx = rows[sel]
            psi = table.states[sid]
            outs, probs, taken = [], [], []
            for b, (_, k, _) in enumerate(branches):
                phi = apply_branch(k, psi, op.slot)
                p = float(np.vdot(phi, phi).real)
                if p > 1e-14:
                    outs.append(phi / math.sqrt(p))
                    probs.append(p)
                    taken.append(b)
            _check_overflow(1.0 - sum(probs))
            choice = crng.choose(probs, u[idx])
            local_ids = np.array([table.add(v) for v in outs], dtype=np.int64)
            ids[idx] = local_ids[choice]
            record[idx, step_i] = codes[taken][choice]
            kept.append(len(probs))
        counts.append((kept, len(branches)))
    return TrajectoryResult(layout, seq, reps, table.states, ids, record, blink_off), counts
