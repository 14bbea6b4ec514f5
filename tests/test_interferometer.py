import math

import numpy as np
import pytest

from timebin.coincidence import WindowConfig, cell_click
from timebin.detection import DetectionModel
from timebin.emitter import ideal_noise
from timebin.errors import ConfigurationError
from timebin.hilbert import SLOT_EARLY, SLOT_LATE, SPIN_DOWN, RegisterLayout
from timebin.interferometer import (Detector, TBIParams, Window,
                                    classical_fringe, effective_phase,
                                    excitation_phase, fit_fringe,
                                    slot_window_povm)


def window_probabilities(slot_label, splitting_ratio):
    """Click-window distribution of |down, slot_label> in the detection model."""
    lay = RegisterLayout(photon_slots=1, slot_dim=3)
    model = DetectionModel(lay, TBIParams(splitting_ratio=splitting_ratio),
                           ideal_noise(), WindowConfig())
    psi = np.zeros(lay.total_dim, complex)
    psi[lay.basis_index([SPIN_DOWN, slot_label])] = 1.0
    probs = {}
    for record, _spin, p in model.distribution(psi):
        cell = (record.bit_length() - 1) // 8
        assert record == 1 << 8 * cell  # exactly one click
        _slot, window, _det = cell_click(cell)
        probs[window] = probs.get(window, 0.0) + p
    return probs


def middle_click_probabilities(tbi, early_amp, late_amp):
    """P(D1), P(D2) given a middle-window click, from slot_window_povm."""
    povm = slot_window_povm(tbi, 3)
    vec = np.zeros(3, complex)
    vec[SLOT_EARLY], vec[SLOT_LATE] = early_amp, late_amp
    p1, p2 = (np.vdot(vec, povm[(Window.MIDDLE, det)] @ vec).real
              for det in (Detector.D1, Detector.D2))
    return p1 / (p1 + p2), p2 / (p1 + p2)


class TestEffectivePhase:
    def test_x_basis_condition(self):
        tbi = TBIParams(theta0=0.4, theta_pol=0.4)
        assert effective_phase(tbi) == pytest.approx(0.0)

    def test_y_basis_condition(self):
        tbi = TBIParams(theta0=0.4, theta_pol=0.4 + math.pi / 4)
        assert effective_phase(tbi) == pytest.approx(math.pi / 2)

    def test_half_turn_swaps_detectors(self):
        tbi = TBIParams(theta0=0.0, theta_pol=math.pi / 2)
        assert effective_phase(tbi) == pytest.approx(math.pi)


class TestRouting:
    def test_early_photon_split(self):
        for s in (0.5, 0.3):
            probs = window_probabilities(SLOT_EARLY, s)
            assert set(probs) == {Window.EARLY, Window.MIDDLE}
            assert probs[Window.EARLY] == pytest.approx(s, abs=1e-12)
            assert probs[Window.MIDDLE] == pytest.approx(1 - s, abs=1e-12)

    def test_late_photon_split(self):
        for s in (0.5, 0.3):
            probs = window_probabilities(SLOT_LATE, s)
            assert set(probs) == {Window.MIDDLE, Window.LATE}
            assert probs[Window.MIDDLE] == pytest.approx(s, abs=1e-12)
            assert probs[Window.LATE] == pytest.approx(1 - s, abs=1e-12)

    def test_superposition_window_probabilities(self):
        # (|e> + |l>)/sqrt(2): quarter early, quarter late, half middle
        povm = slot_window_povm(TBIParams(classical_visibility=1.0), slot_dim=3)
        vec = np.zeros(3, complex)
        vec[SLOT_EARLY] = vec[SLOT_LATE] = 1 / math.sqrt(2)
        probs = {}
        for (window, det), mat in povm.items():
            probs[(window, det)] = probs.get((window, det), 0.0) \
                + np.vdot(vec, mat @ vec).real
        p_early = probs[(Window.EARLY, Detector.D1)] + probs[(Window.EARLY, Detector.D2)]
        p_late = probs[(Window.LATE, Detector.D1)] + probs[(Window.LATE, Detector.D2)]
        p_mid = probs[(Window.MIDDLE, Detector.D1)] + probs[(Window.MIDDLE, Detector.D2)]
        assert p_early == pytest.approx(0.25)
        assert p_late == pytest.approx(0.25)
        assert p_mid == pytest.approx(0.5)

    def test_probability_conservation(self):
        # the window POVM resolves the identity on span{e, l}
        for v_c in (1.0, 0.9):
            for s in (0.5, 0.3):
                povm = slot_window_povm(
                    TBIParams(classical_visibility=v_c, splitting_ratio=s), 3)
                total = sum(povm.values())
                expected = np.diag([0.0, 1.0, 1.0]).astype(complex)
                assert np.max(np.abs(total - expected)) < 1e-12


class TestMiddleProjectors:
    """The (MIDDLE, D1/D2) elements of slot_window_povm."""

    def test_plus_state_clicks_d1(self):
        p1, p2 = middle_click_probabilities(TBIParams(classical_visibility=1.0),
                                            1 / math.sqrt(2), 1 / math.sqrt(2))
        assert p1 == pytest.approx(1.0)
        assert p2 == pytest.approx(0.0, abs=1e-12)

    def test_minus_state_clicks_d2(self):
        _, p2 = middle_click_probabilities(TBIParams(classical_visibility=1.0),
                                           1 / math.sqrt(2), -1 / math.sqrt(2))
        assert p2 == pytest.approx(1.0)

    def test_visibility_mixing(self):
        # V_c = 0.9: the plus state reaches D1 with (1 + V_c)/2 = 0.95
        p1, _ = middle_click_probabilities(TBIParams(classical_visibility=0.9),
                                           1 / math.sqrt(2), 1 / math.sqrt(2))
        assert p1 == pytest.approx(0.95)

    def test_completeness_on_logical_span(self):
        # D1 + D2 add up to the middle-window routing probability of e and l,
        # so a middle-window click always lands on one of the two detectors
        for s in (0.5, 0.3):
            povm = slot_window_povm(TBIParams(classical_visibility=0.97,
                                              splitting_ratio=s), 3)
            total = povm[(Window.MIDDLE, Detector.D1)] + povm[(Window.MIDDLE, Detector.D2)]
            expected = np.zeros((3, 3))
            expected[SLOT_EARLY, SLOT_EARLY], expected[SLOT_LATE, SLOT_LATE] = 1 - s, s
            assert np.allclose(total, expected, atol=1e-12)


class TestClassicalFringe:
    def test_reference_angle(self):
        tbi = TBIParams(theta0=0.2, theta_pol=0.2, classical_visibility=1.0)
        assert classical_fringe(0.2, tbi)[0] == pytest.approx(1.0)

    def test_quadrature_zero(self):
        tbi = TBIParams(theta0=0.2, classical_visibility=1.0)
        assert classical_fringe(0.2 + math.pi / 4, tbi)[0] == pytest.approx(0.0, abs=1e-12)

    def test_periodicity(self):
        tbi = TBIParams(theta0=0.15, classical_visibility=0.93)
        theta = np.linspace(0, math.pi, 17)
        assert np.allclose(classical_fringe(theta, tbi),
                           classical_fringe(theta + math.pi, tbi))

    def test_fit_recovers_parameters(self):
        tbi = TBIParams(theta0=0.31, classical_visibility=0.94)
        theta = np.linspace(0, math.pi, 40)
        amp, theta0 = fit_fringe(theta, classical_fringe(theta, tbi))
        assert amp == pytest.approx(0.94, abs=1e-9)
        assert theta0 == pytest.approx(0.31, abs=1e-9)


class TestDriftImmunity:
    def test_common_phase_cancels(self):
        # adding a common drift to phi_e and phi_d leaves every detection
        # probability unchanged
        lay = RegisterLayout(photon_slots=1, slot_dim=3)
        probs = []
        for drift in (0.0, 0.9, 2.2, -1.3):
            tbi = TBIParams(theta0=0.1, theta_pol=0.45, drift_phase=drift)
            phi_e = excitation_phase(tbi)
            vec = np.zeros(6, complex)
            vec[lay.basis_index([0, SLOT_EARLY])] = 1 / math.sqrt(2)
            vec[lay.basis_index([0, SLOT_LATE])] = np.exp(1j * phi_e) / math.sqrt(2)
            povm = slot_window_povm(tbi, 3)
            v3 = vec.reshape(2, 3)[0]
            probs.append(sorted(np.vdot(v3, m @ v3).real
                                for m in povm.values()))
        for p in probs[1:]:
            assert np.allclose(p, probs[0], atol=1e-12)


def test_splitting_ratio_validation():
    with pytest.raises(ConfigurationError):
        TBIParams(splitting_ratio=0.0)
    with pytest.raises(ConfigurationError):
        TBIParams(classical_visibility=1.2)
