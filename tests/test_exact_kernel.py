"""The array-level exact detection kernel against its per-entry references.

`kernel_reference` keeps the depth-first contraction, the dict-based flag
and leak convolutions and the per-record outcome loop; the kernel must give
the same entries, in the same order, with bit-identical probabilities.  It
also keeps the row-by-row exact witness counting, which the closed-form
counts must match to rounding.
"""
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import kernel_reference as ref
from kernel_reference import row_records
from timebin import detection
from timebin.coincidence import MIDDLE, WindowConfig, click_cell
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.detection import DetectionModel
from timebin.emitter import (TrajectoryTables, apply_branch, run_sequence_exact,
                             run_sequence_trajectory)
from timebin.errors import UndefinedEstimateError
from timebin.experiments import (WitnessOutcome, _exact_counts, _generation_sequence,
                                 _witness_subruns, simulate_hom, witness_exact,
                                 witness_trajectory)
from timebin.hilbert import SLOT_EARLY, SLOT_EL, SLOT_LATE, RegisterLayout
from timebin.witness import SettingCounts, ghz_settings


def entries(dist):
    """A ClickDistribution as the reference's (record, label, p) list."""
    return list(zip(row_records(dist.rows), dist.label.tolist(), dist.probs.tolist()))


def slot_model(slot_dim, thinned=False, s=0.5, v=0.989, indistinguishability=0.935,
               phase=0.0):
    tbi = dataclasses.replace(paper_tbi(), splitting_ratio=s, classical_visibility=v)
    noise = dataclasses.replace(paper_noise(), indistinguishability=indistinguishability)
    return DetectionModel(RegisterLayout(photon_slots=1, slot_dim=slot_dim), tbi, phase,
                          noise, WindowConfig.for_sequence(1), thinned=thinned)


class TestSlotAlphabet:
    @pytest.mark.parametrize("slot_dim", [3, 6])
    @pytest.mark.parametrize("thinned", [False, True])
    def test_matches_reference_builder(self, slot_dim, thinned):
        # every GHZ-3 setting's phase, its polarizer at theta0 + phase / 2
        # (theta0 = 0), under a common drift of both passes
        phases = sorted({st.phase for st in ghz_settings(3)})
        assert len(phases) == 4
        for s, v, ind, phase, drift in itertools.product(
                (0.5, 0.3), (0.0, 0.989, 1.0), (0.935, 1.0), phases, (0.0, 0.9, -1.3)):
            model = slot_model(slot_dim, thinned, s, v, ind, phase)
            rows, mats, support = ref.slot_alphabet(model, phase / 2, drift)
            assert np.array_equal(model.alphabet_rows, rows)
            assert np.array_equal(model.alphabet_support, support)
            assert np.max(np.abs(model.alphabet_mats - mats)) < 1e-15
            # a definite-bin photon routes as the classical formula, bit for bit
            for label, level in (("early", SLOT_EARLY), ("late", SLOT_LATE)):
                outs = [(cells, w) for cells, w in ref.single_photon_outcomes(
                    level, model.tbi, model.eta) if w > 0]
                got_rows, got_w = model.photon[label]
                assert np.array_equal(got_rows, ref.pattern_rows([c for c, _ in outs], 6))
                assert got_w.tolist() == [w for _, w in outs]

    def test_hom_dip(self):
        # perfect overlap, lossless detection and a balanced splitter: an
        # early+late pair never clicks both middle-window detectors
        model = slot_model(6, s=0.5, v=1.0, indistinguishability=1.0)
        d1 = click_cell(0, MIDDLE, 0)
        cross = np.flatnonzero((model.alphabet_rows[:, d1] == 1)
                               & (model.alphabet_rows[:, d1 + 1] == 1))
        assert cross.size == 1 and model.eta == 1.0
        assert model.alphabet_mats[cross[0], SLOT_EL, SLOT_EL] == 0.0

    @pytest.mark.parametrize("thinned", [False, True])
    def test_distinguishable_pair_is_product(self, thinned):
        # no overlap: the early and late photons route independently
        model = slot_model(6, thinned, s=0.3, v=0.0)
        (rows_e, w_e), (rows_l, w_l) = model.photon["early"], model.photon["late"]
        el = {}
        for (ra, wa), (rb, wb) in itertools.product(zip(rows_e, w_e), zip(rows_l, w_l)):
            key = (ra + rb).tobytes()
            el[key] = el.get(key, 0.0) + wa * wb
        got = {row.tobytes(): w for row, w in zip(model.alphabet_rows,
                                                 model.alphabet_mats[:, SLOT_EL, SLOT_EL].real)
               if w}
        assert got.keys() == el.keys()
        assert all(got[k] == pytest.approx(el[k], abs=1e-16) for k in el)


class TestExactComponents:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    @pytest.mark.parametrize("sub_run", [0, 2], ids=["first", "M1"])
    def test_distributions_match_reference(self, n_qubits, sub_run):
        # every component of the sub-run, with its flag clicks
        params, noise = paper_emitter(), paper_noise()
        run = _witness_subruns(n_qubits, params)[sub_run]
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, paper_tbi(), run.phase, noise, run.windows)
        assert any(comp.flag_clicks for comp in exact.components)
        for comp in exact.components:
            base = model.distribution(comp.rho, comp.flag_clicks)
            assert entries(base) == ref.distribution(model, comp.rho, comp.flag_clicks)
            full = model.full_distribution(comp.rho, comp.flag_clicks)
            assert full.label.dtype == bool
            assert entries(full) == ref.full_distribution(model, comp.rho,
                                                          comp.flag_clicks)
            assert len(full) == full.rows.shape[0]

    @pytest.mark.parametrize("n_qubits, sub_run, thinned, p_leak, entries_, digest", [
        (2, 0, False, 0.0011, 1107,
         "4f51f8a0f2ace5223ca1e3af758b849d79032a4e4d4a5d4865f856f40cae7826"),
        (2, 2, True, 0.0011, 185,
         "bcfdf4ba0aee63c075c497526abc155b624ddd6b66bb91ee16372f32138e04a6"),
        (3, 0, True, 0.0011, 1347,
         "67660d1e310782196df32cda5509f4c1c9c140f6a82474f340b7884c58484a74"),
        (3, 2, False, 0.0011, 86716,
         "285e4931e9cefeebcaf642a7cf71f522a727373b9f6d901ca9412f73f659b490"),
        (2, 3, True, 0.05, 191,
         "7907aec341f0943185b308cd0313a7bc63cefaf8bedc59383f3bb53250136c32"),
        (3, 1, True, 0.05, 1497,
         "0843421a0b3405ff548acbb3299dfdf44b9c3ab66dbabe9a0992ac728befadc4"),
    ])
    def test_full_distribution_is_pinned(self, n_qubits, sub_run, thinned, p_leak,
                                         entries_, digest):
        # sha256 of every component's rows, labels and probabilities, in
        # component order: the expansion of the leak terms must not move a
        # byte of the output
        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), p_leak=p_leak)
        run = _witness_subruns(n_qubits, params)[sub_run]
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, paper_tbi(), run.phase, noise, run.windows,
                               thinned)
        assert any(comp.flag_clicks for comp in exact.components)
        h, n = hashlib.sha256(), 0
        for comp in exact.components:
            full = model.full_distribution(comp.rho, comp.flag_clicks)
            n += len(full)
            for a in (full.rows, full.label, full.probs):
                h.update(a.tobytes())
        assert (n, h.hexdigest()) == (entries_, digest)

    @pytest.mark.parametrize("scale", [1e-13, 1e-9])
    def test_tiny_component(self, scale):
        # a component whose trace is near PRUNE_TOL: a whole level can be
        # pruned away, leaving an empty or short distribution
        params, noise = paper_emitter(), paper_noise()
        run = _witness_subruns(3, params)[2]
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, paper_tbi(), run.phase, noise, run.windows)
        comp = max(exact.components, key=lambda c: len(c.flag_clicks))
        rho = comp.rho * (scale / np.trace(comp.rho).real)
        for flags in ((), comp.flag_clicks):
            want = ref.distribution(model, rho, flags)
            assert entries(model.distribution(rho, flags)) == want
            full = model.full_distribution(rho, flags)
            assert entries(full) == ref.full_distribution(model, rho, flags)
            assert len(full) == full.rows.shape[0] == full.probs.size
        if scale < 1e-12:
            assert want == [] and len(full) == 0


class TestTrajectoryStates:
    @pytest.mark.parametrize("n_qubits, n_reps", [(3, 3000), (4, 300)])
    def test_distributions_match_reference(self, n_qubits, n_reps):
        # every distinct pure state the sub-run samples
        params, noise = paper_emitter(), paper_noise()
        run = _witness_subruns(n_qubits, params)[2]
        traj = run_sequence_trajectory(run.sequence, params, noise, 11,
                                       np.arange(n_reps, dtype=np.uint64))
        model = DetectionModel(traj.layout, paper_tbi(), run.phase, noise, run.windows)
        assert len(traj.state_table) > 50
        for state in traj.state_table:
            assert entries(model.distribution(state)) == ref.distribution(model, state)


BLINKING = {"blink_block_len": 50, "blink_on_fraction": 0.7}


class TestTailDistribution:
    """Each photon slot is read right after its last excite step, by the
    detection model's Kraus branches (`DetectionModel.slot_branches`,
    `run_sequence_trajectory`'s detection), before a witness sub-run's
    spin-only tail or hom's readout: every state a run detects must draw
    its alphabet entry a with the Born probability <psi| I (x) M_a |psi>
    of the entry's element.  The sampled laws of whole runs are
    `TestSampledLaw`'s."""

    @staticmethod
    def detected(monkeypatch, run):
        """(key (model, slot), table, the run's states) of every detection
        table of run()."""
        tables = []
        init = TrajectoryTables.__init__
        monkeypatch.setattr(TrajectoryTables, "__init__",
                            lambda self: (tables.append(self), init(self))[1])
        run()
        return [(key, step, t.states.states) for t in tables
                for key, step in t.steps.items() if isinstance(key, tuple)]

    @staticmethod
    def assert_born(key, step, states):
        model, slot = key
        mats = [np.kron(np.eye(2), m) for m in model.alphabet_mats]
        known = np.flatnonzero(step.known)
        assert known.size
        for sid in known.tolist():
            psi = states[sid]
            kept = int(np.count_nonzero(step.cum[sid] <= 1.0))
            probs = np.diff(step.cum[sid, :kept], prepend=0.0)
            got = np.bincount(step.next_codes[sid, :kept], probs, minlength=len(mats))
            want = [np.vdot(psi, apply_branch(m, psi, slot)).real for m in mats]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits, n_reps", [(2, 20_000), (3, 6000), (4, 1000)])
    def test_witness_states(self, monkeypatch, n_qubits, n_reps, blink):
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        tables = self.detected(monkeypatch, lambda: witness_trajectory(
            n_qubits, paper_emitter(), noise, paper_tbi(), n_reps, 3))
        # one model per setting, one table per model and slot
        assert len({id(model) for (model, _), _, _ in tables}) == n_qubits + 1
        assert len(tables) == (n_qubits + 1) * (n_qubits - 1)
        for table in tables:
            self.assert_born(*table)

    def test_hom_has_no_tail(self, monkeypatch):
        # hom's one slot is detected after its late excite step, and the
        # spin is left to the readout step
        ((key, step, states),) = self.detected(monkeypatch, lambda: simulate_hom(
            paper_emitter(), paper_noise(), paper_tbi(), 20_000, 3))
        assert key[1] == 0 and key[0].phase == 0.0
        self.assert_born(key, step, states)


class TestSampledLaw:
    """The sampled law of whole trajectory runs against the exact reference,
    whose slot alphabet is built by `kernel_reference.reference_alphabet`:
    every outcome's z = (count - expected) / sqrt(expected) within 4.5 and
    their sum of squares below the chi^2 quantile of 1e-4
    (`kernel_reference.law_z_scores`).  CI runs the witness cases at Bell
    2M and GHZ-3 1.2M repetitions."""

    @staticmethod
    def assert_law(z):
        assert np.max(np.abs(z)) <= 4.5
        assert np.sum(z ** 2) < ref.chi2_quantile(1e-4, len(z))

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits, n_reps", [(2, 600_000), (3, 360_000)])
    def test_witness_outcomes(self, n_qubits, n_reps, blink):
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        z = ref.witness_law(n_qubits, noise, n_reps, 1)
        # every outcome of every sub-setting: 12 for Bell, 32 for GHZ-3
        assert len(z) == (n_qubits + 1) * 2 ** n_qubits
        self.assert_law(z)

    def test_hom_rows(self):
        z = ref.hom_law(paper_noise(), 400_000, 1)
        assert len(z) > 50
        self.assert_law(z)


class TestAddHeralded:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_matches_per_record_loop(self, n_qubits):
        # random click rows with up to 5 clicks per cell, two calls per
        # sub-setting so later calls add to existing outcomes: each row
        # counted once equals the loop exactly, and the rows under float
        # weights equal it to rounding
        rng = np.random.default_rng(n_qubits)
        n_slots = n_qubits - 1
        for setting in ghz_settings(n_qubits):
            acc, weighted = SettingCounts(setting, n_slots), SettingCounts(setting, n_slots)
            counts: dict = {}
            weighted_counts: dict = {}
            for sub_index in (0, 1, 0, 1):
                m = 40
                rows = np.where(rng.random((m, 6 * n_slots)) < 0.3,
                                rng.integers(1, 6, (m, 6 * n_slots)), 0).astype(np.uint8)
                weights = rng.uniform(0.0, 2.0, m)
                weights[::7] = rng.integers(1, 50, len(weights[::7]))
                added = acc.add_expected(sub_index, rows, np.ones(m))
                want = ref.add_heralded(counts, setting, sub_index,
                                        zip(row_records(rows), [1.0] * m), n_slots)
                events = acc.outcome_multiplicities(rows).sum(axis=0)
                assert events.tolist() == want
                assert added.sum() == sum(want)
                assert acc.counts == counts
                weighted.add_expected(sub_index, rows, weights)
                ref.add_heralded(weighted_counts, setting, sub_index,
                                 zip(row_records(rows), weights.tolist()), n_slots)
                assert weighted.counts.keys() == weighted_counts.keys()
                assert all(weighted.counts[k] == pytest.approx(v, rel=1e-12)
                           for k, v in weighted_counts.items())
            assert counts

    def test_empty_groups(self):
        acc = SettingCounts(ghz_settings(3)[0], 2)
        rows = np.zeros((0, 12), np.uint8)
        assert acc.outcome_multiplicities(rows).shape == (4, 0)
        assert acc.add_expected(0, rows, np.ones(0)).tolist() == [0.0] * 4
        assert acc.counts == {}


class TestAddExpected:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_matches_expanded_rows(self, n_qubits):
        # each row's leak weight spread over all 6n cells, eligible for the
        # setting or not: every (row, cell) term expanded into its own click
        # row and counted by the per-record loop; some leak weights are zero
        rng = np.random.default_rng(10 + n_qubits)
        n_slots = n_qubits - 1
        n_cells = 6 * n_slots
        # term j of a row: the row alone (j = 0), or plus a click in cell j - 1
        extra = np.eye(1 + n_cells, n_cells, -1, dtype=np.uint8)
        for setting in ghz_settings(n_qubits):
            got, want = SettingCounts(setting, n_slots), {}
            for sub_index in (0, 1, 0):
                m = 30
                rows = np.where(rng.random((m, n_cells)) < 0.4,
                                rng.integers(1, 4, (m, n_cells)), 0).astype(np.uint8)
                weights = rng.uniform(0.0, 1.0, m)
                leak = rng.uniform(0.0, 1.0, m)
                leak[rng.random(m) < 0.3] = 0.0
                got.add_expected(sub_index, rows, weights, leak)
                terms = np.empty((m, 1 + n_cells))
                terms[:, 0] = weights
                terms[:, 1:] = leak[:, None]
                at = np.flatnonzero(terms)
                expanded = rows[at // len(extra)] + extra[at % len(extra)]
                ref.add_heralded(want, setting, sub_index,
                                 zip(row_records(expanded), terms.ravel()[at].tolist()),
                                 n_slots)
            assert got.counts.keys() == want.keys()
            assert all(got.counts[k] == pytest.approx(v, rel=1e-12)
                       for k, v in want.items())

    def test_empty(self):
        acc = SettingCounts(ghz_settings(3)[1], 2)
        acc.add_expected(0, np.zeros((0, 12), np.uint8), np.zeros(0), np.zeros(0))
        assert acc.counts == {}


def assert_counts_match(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for label, acc in want.items():
        assert got[label].counts.keys() == acc.counts.keys(), label
        for key, value in acc.counts.items():
            assert got[label].counts[key] == pytest.approx(value, rel=1e-12), (label, key)


class TestExpectedCounts:
    # the closed-form exact witness counts against the row-by-row reference

    @pytest.mark.parametrize("thinned", [False, True])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_paper_defaults(self, n_qubits, thinned):
        args = n_qubits, paper_emitter(), paper_noise(), paper_tbi(), thinned
        want = ref.exact_counts(*args)
        assert all(acc.counts for acc in want.values())
        assert_counts_match(_exact_counts(*args), want)

    def test_no_background_light(self):
        noise = dataclasses.replace(paper_noise(), p_leak=0.0)
        args = 2, paper_emitter(), noise, paper_tbi()
        assert_counts_match(_exact_counts(*args), ref.exact_counts(*args))

    def test_readout_off(self):
        # no readout click, so no heralded events: both paths count nothing
        # and the estimate is undefined
        noise = dataclasses.replace(paper_noise(), eta_readout=0.0)
        args = 2, paper_emitter(), noise, paper_tbi()
        got, want = _exact_counts(*args), ref.exact_counts(*args)
        assert_counts_match(got, want)
        assert all(acc.counts == {} for acc in got.values())
        for counts in (got, want):
            with pytest.raises(UndefinedEstimateError, match="setting ZZ"):
                WitnessOutcome.from_counts(2, counts)
        with pytest.raises(UndefinedEstimateError, match="setting ZZ"):
            witness_exact(*args)

    def test_counts_without_row_expansion(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the exact witness expanded click rows")

        monkeypatch.setattr(DetectionModel, "full_distribution", unused)
        out = witness_exact(2, paper_emitter(), paper_noise(), paper_tbi())
        assert out.fidelity == pytest.approx(0.6772859504890993, abs=1e-12)

    def test_truncation_bias(self, monkeypatch):
        # without the PRUNE_TOL truncation the Bell fidelity moves by ~1e-8
        monkeypatch.setattr(detection, "PRUNE_TOL", 0.0)
        out = witness_exact(2, paper_emitter(), paper_noise(), paper_tbi())
        assert 1e-10 < abs(out.fidelity - 0.6772859504890993) < 1e-7


class TestPhaseConvention:
    """The setting's phase as a detection setting: one phase-0 generation
    read with `slot_window_povm` against the physical convention, each
    sub-run's sequence evolved at its excitation phase and read with the
    element at the detection phase (`kernel_reference.physical_exact_counts`)."""

    @pytest.mark.parametrize("case", ["paper", "thinned", "blinking", "no-leak", "drift"])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_counts_match_physical_convention(self, n_qubits, case):
        noise, tbi = paper_noise(), paper_tbi()
        if case == "blinking":
            noise = dataclasses.replace(noise, blink_block_len=40, blink_on_fraction=0.7)
        elif case == "no-leak":
            noise = dataclasses.replace(noise, p_leak=0.0)
        elif case == "drift":
            tbi = dataclasses.replace(tbi, theta0=0.1)
        args = n_qubits, paper_emitter(), noise, tbi, case == "thinned"
        want = ref.physical_exact_counts(*args, drift=0.9 if case == "drift" else 0.0)
        assert all(acc.counts for acc in want.values())
        assert_counts_match(_exact_counts(*args), want)


class TestExactReference:
    # the exact-mode witness of the benchmark's correctness gate
    @pytest.mark.parametrize("n_qubits, fidelity", [(2, 0.6772859504890993),
                                                    (3, 0.4237765410462214)])
    def test_paper_defaults(self, n_qubits, fidelity):
        out = witness_exact(n_qubits, paper_emitter(), paper_noise(), paper_tbi())
        assert out.fidelity == pytest.approx(fidelity, abs=1e-12)

    def test_components_contracted_once(self, monkeypatch):
        # each setting's model contracts each generation component's slots
        # once, for both its sub-runs: GHZ-3's 4 settings x 16 components,
        # where contracting every sub-run's own components takes 128
        params, noise = paper_emitter(), paper_noise()
        generation = run_sequence_exact(_generation_sequence(3), params, noise)
        calls = []
        spin_blocks = DetectionModel.spin_blocks
        # the calls hold their model and state, so no id is reused in a run
        monkeypatch.setattr(DetectionModel, "spin_blocks",
                            lambda self, state: calls.append((self, state))
                            or spin_blocks(self, state))
        out = witness_exact(3, params, noise, paper_tbi())
        assert out.fidelity == pytest.approx(0.4237765410462214, abs=1e-12)
        assert len({(id(model), id(state)) for model, state in calls}) == len(calls)
        assert len(calls) == 4 * len(generation.components) == 64
        models = list({id(model): model for model, _ in calls}.values())
        assert [m.phase for m in models] == [s.phase for s in ghz_settings(3)]
        for model in models:
            states = [state for m, state in calls if m is model]
            assert len(states) == len(generation.components)
            for state, comp in zip(states, generation.components):
                assert np.array_equal(state, comp.rho)
