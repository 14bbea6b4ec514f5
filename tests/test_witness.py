import math

import numpy as np
import pytest

from kernel_reference import add_outcome, click_record, record_rows
from timebin.coincidence import EARLY, LATE, MIDDLE, cell_click
from timebin.errors import ContractError, UndefinedEstimateError
from timebin.hilbert import (SLOT_EARLY, SLOT_LATE, SPIN_DOWN, SPIN_UP,
                             DensityOperator, RegisterLayout, direct_fidelity)
from timebin.interferometer import Window
from timebin.witness import (SettingCounts, TargetState, background_correct,
                             bell_fidelity, bell_settings, bell_target,
                             estimate_setting, ghz_fidelity, ghz_settings,
                             mk_signs, witness_fidelity_exact)


class TestBellFidelityArithmetic:
    def test_reported_values(self):
        # the characterization data point: (0.893, -0.423, 0.421) -> 0.657
        f, _ = bell_fidelity(0.893, -0.423, 0.421)
        assert abs(f - 0.657) <= 5e-4 + 1e-12

    def test_perfect_state(self):
        assert bell_fidelity(1.0, -1.0, 1.0)[0] == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert bell_fidelity(0.5, 0.0, 0.0)[0] == pytest.approx(0.25)

    def test_range_validation(self):
        with pytest.raises(ContractError):
            bell_fidelity(1.4, 0.0, 0.0)
        with pytest.raises(ContractError):
            bell_fidelity(0.5, -1.2, 0.0)

    def test_error_propagation(self):
        _, err = bell_fidelity(0.9, -0.4, 0.4, pz_err=0.02, mx_err=0.04, my_err=0.04)
        expected = math.sqrt((0.02 / 2) ** 2 + 2 * (0.04 / 4) ** 2)
        assert err == pytest.approx(expected)


class TestGhzFidelity:
    def test_reduces_to_bell_formula(self):
        # n = 2 with correlators ordered [M(pi/2), M(pi)] = [YY, XX]
        f2, _ = ghz_fidelity(2, 0.893, [0.421, -0.423])
        fb, _ = bell_fidelity(0.893, -0.423, 0.421)
        assert f2 == pytest.approx(fb, abs=1e-15)

    def test_signs(self):
        assert mk_signs(2) == [1, -1]
        assert mk_signs(3) == [1, -1, 1]

    def test_exact_ghz_gives_one(self):
        lay = RegisterLayout(photon_slots=2, slot_dim=3)
        rho = TargetState(3).state(lay).to_density()
        assert witness_fidelity_exact(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_logical_n3(self):
        lay = RegisterLayout(photon_slots=2, slot_dim=3)
        mat = np.zeros((lay.total_dim, lay.total_dim), complex)
        for s in (SPIN_DOWN, SPIN_UP):
            for a in (SLOT_EARLY, SLOT_LATE):
                for b in (SLOT_EARLY, SLOT_LATE):
                    i = lay.basis_index([s, a, b])
                    mat[i, i] = 1 / 8
        rho = DensityOperator(lay, mat)
        assert witness_fidelity_exact(rho) == pytest.approx(1 / 8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            ghz_fidelity(3, 0.5, [0.1, 0.2])


def random_logical_density(lay: RegisterLayout, rng: np.random.Generator
                           ) -> DensityOperator:
    """Ginibre-random density operator supported on the logical subspace."""
    n = 1 + lay.photon_slots
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    small = g @ g.conj().T
    small /= np.trace(small).real
    # embed: logical 0 = up/late, 1 = down/early
    basis = []
    for bits in range(dim):
        labels = [SPIN_UP if (bits >> (n - 1)) & 1 == 0 else SPIN_DOWN]
        for q in range(1, n):
            bit = (bits >> (n - 1 - q)) & 1
            labels.append(SLOT_LATE if bit == 0 else SLOT_EARLY)
        basis.append(lay.basis_index(labels))
    mat = np.zeros((lay.total_dim, lay.total_dim), complex)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            mat[bi, bj] = small[i, j]
    return DensityOperator(lay, mat)


class TestWitnessOracleIdentity:
    """The decomposition equals direct fidelity for arbitrary states.

    This pins the correlator signs without trusting any transcribed
    formula: 100+ random density operators at both register sizes.
    """

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_random_density_operators(self, n_qubits):
        lay = RegisterLayout(photon_slots=n_qubits - 1, slot_dim=3)
        target = TargetState(n_qubits).state(lay)
        rng = np.random.default_rng(2024 + n_qubits)
        for _ in range(120):
            rho = random_logical_density(lay, rng)
            f_witness = witness_fidelity_exact(rho)
            f_direct = direct_fidelity(rho, target)
            assert abs(f_witness - f_direct) < 1e-10

    def test_off_subspace_states_too(self):
        # vacuum components sit outside the logical span; both sides see zero
        lay = RegisterLayout(photon_slots=1, slot_dim=3)
        rng = np.random.default_rng(77)
        target = TargetState(2).state(lay)
        for _ in range(40):
            rho_l = random_logical_density(lay, rng).matrix
            vac = np.zeros_like(rho_l)
            i = lay.basis_index([SPIN_DOWN, 0])
            vac[i, i] = 1.0
            w = rng.uniform(0.1, 0.9)
            rho = DensityOperator(lay, w * rho_l + (1 - w) * vac)
            assert abs(witness_fidelity_exact(rho)
                       - direct_fidelity(rho, target)) < 1e-10


class TestSettings:
    def test_bell_setting_labels(self):
        labels = [s.label for s in bell_settings()]
        assert labels == ["ZZ", "YY", "XX"]

    def test_window_rules(self):
        zz, yy, xx = bell_settings()
        assert zz.allowed_windows == (Window.EARLY, Window.LATE)
        assert yy.allowed_windows == (Window.MIDDLE,)
        assert xx.theta == pytest.approx(math.pi)
        # each setting reads the photons at its own phase: theta, or 0 for ZZ
        assert (zz.phase, yy.phase, xx.phase) == (0.0, math.pi / 2, math.pi)

    def test_ghz_setting_count(self):
        assert len(ghz_settings(3)) == 4

    def test_xx_pattern_sign_structure(self):
        # ideal Bell state: anti-correlated X outcomes dominate, matching the
        # detection-pattern sign structure of the characterization
        from timebin.config import paper_tbi
        from timebin.emitter import ideal_emitter, ideal_noise
        from timebin.experiments import witness_trajectory
        run = witness_trajectory(2, ideal_emitter(), ideal_noise(),
                                 paper_tbi(), 30_000, 17)
        xx = run.outcome.counts["XX"].probabilities()
        anti = xx.get((+1, (-1,)), 0) + xx.get((-1, (+1,)), 0)
        corr = xx.get((+1, (+1,)), 0) + xx.get((-1, (-1,)), 0)
        assert anti > 0.99
        assert corr < 0.01


class TestEstimateSetting:
    def _counts(self, n_up_l, n_down_e, n_up_e=0, n_down_l=0):
        # one photon click per repetition: a row per record and sub-setting,
        # weighted by its repetitions
        zz = bell_settings()[0]
        acc = SettingCounts(zz, 1)
        late, early = click_record(0, LATE, 0), click_record(0, EARLY, 0)
        acc.add_expected(0, record_rows([late, early], 6), [n_up_l, n_up_e])
        acc.add_expected(1, record_rows([early, late], 6), [n_down_e, n_down_l])
        return acc

    def test_population_from_counts(self):
        p, err = estimate_setting(self._counts(450, 443, 50, 57))
        assert p == pytest.approx((450 + 443) / 1000)
        assert err == pytest.approx(math.sqrt(0.893 * 0.107 / 1000), rel=0.01)

    def test_uniform_counts_give_half(self):
        p, _ = estimate_setting(self._counts(100, 100, 100, 100))
        assert p == pytest.approx(0.5)

    def test_no_events_raises(self):
        zz = bell_settings()[0]
        with pytest.raises(UndefinedEstimateError):
            estimate_setting(SettingCounts(zz, 1))
        # no click in a Z window (or none at all): still no heralds
        acc = SettingCounts(zz, 1)
        rows = record_rows([click_record(0, MIDDLE, 0), 0], 6)
        assert acc.outcome_multiplicities(rows).sum(axis=0).tolist() == [0, 0]
        acc.add_expected(0, rows, [5, 3])
        with pytest.raises(UndefinedEstimateError):
            estimate_setting(acc)

    def test_error_scales_inverse_sqrt(self):
        _, err1 = estimate_setting(self._counts(400, 350, 150, 100))
        _, err2 = estimate_setting(self._counts(800, 700, 300, 200))
        assert err1 / err2 == pytest.approx(math.sqrt(2), rel=0.05)

    def test_expectation_from_middle_clicks(self):
        xx = bell_settings()[2]
        acc = SettingCounts(xx, 1)
        rows = record_rows([click_record(0, MIDDLE, 1),   # (+, -)
                            click_record(0, MIDDLE, 0)], 6)
        assert acc.outcome_multiplicities(rows).sum(axis=0).tolist() == [1, 1]
        acc.add_expected(0, rows, [300, 100])
        e, err = estimate_setting(acc)
        assert e == pytest.approx((100 - 300) / 400)


class TestOrderIndependence:
    def test_shuffled_counts_give_identical_estimates(self):
        # the same counts inserted in other orders give bit-identical totals,
        # population, correlators and raw and background-corrected fidelity
        from timebin.experiments import WitnessOutcome

        rng = np.random.default_rng(8)
        outcomes = [(s, (a, b)) for s in (1, -1) for a in (1, -1) for b in (1, -1)]
        counts = {}
        for setting in ghz_settings(3):
            acc = counts[setting.label] = SettingCounts(setting, 2)
            for outcome in outcomes:
                add_outcome(acc.counts, outcome, float(rng.uniform(0.0, 1e4)))

        def estimates(counts):
            out = WitnessOutcome.from_counts(3, counts, 0.07)
            return (out.n_heralded, out.population, out.correlators, out.fidelity,
                    out.fidelity_err, out.corrected_fidelity,
                    out.corrected_fidelity_err)

        reference = estimates(counts)
        for _ in range(20):
            shuffled = {}
            for label, acc in counts.items():
                items = list(acc.counts.items())
                new = shuffled[label] = SettingCounts(acc.setting, 2)
                for i in rng.permutation(len(items)):
                    add_outcome(new.counts, *items[i])
            assert estimates(shuffled) == reference


class TestBackgroundCorrection:
    def test_zero_leak_unchanged(self):
        counts = {"a": 10.0, "b": 30.0}
        out, clamped = background_correct(counts, 0.0)
        assert out == counts and not clamped

    def test_uniform_background_roundtrip(self):
        # add a uniform background to ideal counts, correct with the true
        # fraction, recover the ideal distribution
        ideal = {(+1, (+1,)): 480.0, (-1, (-1,)): 460.0,
                 (+1, (-1,)): 40.0, (-1, (+1,)): 20.0}
        total = sum(ideal.values())
        per_bucket = 30.0
        raw = {k: v + per_bucket for k, v in ideal.items()}
        true_fraction = 4 * per_bucket / sum(raw.values())
        corrected, clamped = background_correct(raw, true_fraction)
        assert not clamped
        corr_total = sum(corrected.values())
        for k in ideal:
            assert corrected[k] / corr_total == pytest.approx(ideal[k] / total,
                                                              abs=1e-12)

    def test_clamping_flag(self):
        counts = {"a": 1.0, "b": 100.0}
        _, clamped = background_correct(counts, 0.2)
        assert clamped

    def test_corrected_fidelity_at_defaults(self):
        # correcting the simulated raw counts with the run's own background
        # share lands inside the characterization band 0.678 +- 0.02
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory
        run = witness_trajectory(2, paper_emitter(), paper_noise(), paper_tbi(),
                                 200_000, 42)
        out = run.outcome
        assert out.leak_event_fraction > 0
        assert out.corrected_fidelity > out.fidelity
        assert abs(out.corrected_fidelity - 0.678) <= 0.02

    def test_range_validation(self):
        with pytest.raises(ContractError):
            background_correct({"a": 1.0}, 1.0)


class TestHeraldedCounting:
    def test_counts_match_per_repetition_loop(self):
        # the per-row counting equals a loop over repetitions that follows
        # every click combination and marks those using a background click
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory
        from kernel_reference import clicks_of, pattern_outcomes

        blocks = []
        run = witness_trajectory(2, paper_emitter(), paper_noise(), paper_tbi(),
                                 24_000, 5, on_block=blocks.append)
        (block,) = blocks
        counts, leak, total = {}, 0, 0
        for sub_run, clicks in zip(run.subruns, block):
            setting = sub_run.setting
            sub = setting.subsettings[sub_run.sub_index]
            acc = counts.setdefault(setting.label, SettingCounts(setting, 1))
            for row in np.nonzero(clicks.readout_clicks)[0]:
                for outcome in pattern_outcomes(setting, sub, clicks_of(clicks, row), 1):
                    add_outcome(acc.counts, outcome)
                # per cell: its signal clicks, then its background clicks
                signal = clicks_of(clicks, row, leak=False).to_bytes(6, "little")
                every = clicks_of(clicks, row).to_bytes(6, "little")
                tagged = []
                for c, (k_sig, k_all) in enumerate(zip(signal, every)):
                    tagged += [(cell_click(c), i >= k_sig) for i in range(k_all)]
                eligible = [is_leak for (_, w, d), is_leak in tagged
                            if setting.photon_eigenvalue(w, d) is not None]
                leak_read = clicks.readout_leak[row] and not clicks.readout_signal[row]
                # a Bell herald has one photon slot: one event per eligible click
                for is_leak in eligible:
                    total += 1
                    leak += bool(leak_read or is_leak)
        assert leak > 0
        assert {k: c.counts for k, c in counts.items()} == \
            {k: c.counts for k, c in run.outcome.counts.items()}
        assert run.outcome.leak_event_fraction == leak / total
        # the coincidence rate counts heralded repetitions with any photonic
        # click: signal, flagged or background
        coincident = sum(bool(clicks_of(clicks, r)) for clicks in block
                         for r in np.flatnonzero(clicks.readout_clicks))
        duration_s = 24_000 / (paper_emitter().repetition_rate_mhz * 1e6)
        assert run.coincidence_rate_hz == coincident / duration_s

    def test_outcome_codes_wide_records(self):
        # GHZ-4 width: 3 photon slots, 18 cells; each heralded repetition's
        # outcomes are counted on its click record: cell c's signal +
        # flagged + background count in byte c; leak events are those the
        # signal and flagged clicks alone do not give, or all when the
        # readout click is background light only
        from kernel_reference import pattern_outcomes
        from timebin.detection import RunClicks
        from timebin.experiments import _count_clicks

        rng = np.random.default_rng(3)
        n = 3000

        def counts(p, top):
            return np.where(rng.random((n, 18)) < p, rng.integers(1, top, (n, 18)),
                            0).astype(np.uint8)

        clicks = RunClicks(None, None, [], np.zeros(n, np.int8), rng.random(n) < 0.5,
                           rng.random(n) < 0.05, counts(0.05, 3), counts(0.02, 3),
                           counts(0.03, 2), 0)
        setting = ghz_settings(4)[1]
        sub = setting.subsettings[0]
        acc = SettingCounts(setting, 3)
        leak, total = _count_clicks(acc, 0, clicks)
        want, n_events, n_signal = {}, 0, 0
        for r in np.flatnonzero(clicks.readout_clicks):
            every = clicks.signal[r] + clicks.flagged[r] + clicks.background[r]
            record = sum(k * 256 ** c for c, k in enumerate(every.tolist()))
            for outcome in pattern_outcomes(setting, sub, record, 3):
                want[outcome] = want.get(outcome, 0) + 1
                n_events += 1
            if clicks.readout_signal[r]:
                photons = clicks.signal[r] + clicks.flagged[r]
                record = sum(k * 256 ** c for c, k in enumerate(photons.tolist()))
                n_signal += len(pattern_outcomes(setting, sub, record, 3))
        assert want and n_signal < n_events
        assert acc.counts == want
        assert (leak, total) == (n_events - n_signal, n_events)


class TestTrajectoryPins:
    def test_ghz4_paper_defaults(self):
        # four qubits, where reading the photons at the tail start saves
        # most: the counts and estimates of the trajectory witness
        import hashlib

        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory

        run = witness_trajectory(4, paper_emitter(), paper_noise(), paper_tbi(), 3000, 1)
        out = run.outcome
        items = sorted((label, key, value) for label, acc in out.counts.items()
                       for key, value in acc.counts.items())
        assert len(items) == 65
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "e7c9c9d431d3132744fddaf1a8f5b682b24e183b52de3fd2966addd494606968")
        assert out.n_heralded == {"ZZ": 41.0, "M1": 40.0, "M2": 39.0, "M3": 37.0,
                                  "M4": 42.0}
        assert (out.fidelity, out.fidelity_err) == (0.29157940773794433,
                                                    0.05471439407701364)
        assert out.leak_event_fraction == 0.01507537688442211
        assert run.coincidence_rate_hz == 825550.0


class TestTargetState:
    def test_bell_amplitudes(self):
        lay = RegisterLayout(photon_slots=1, slot_dim=3)
        psi = bell_target(phi_e=0.5).state(lay)
        up_l = psi.amplitudes[lay.basis_index([SPIN_UP, SLOT_LATE])]
        down_e = psi.amplitudes[lay.basis_index([SPIN_DOWN, SLOT_EARLY])]
        assert up_l == pytest.approx(np.exp(0.5j) / math.sqrt(2))
        assert down_e == pytest.approx(-1 / math.sqrt(2))

    def test_requires_two_qubits(self):
        with pytest.raises(ContractError):
            TargetState(1)
