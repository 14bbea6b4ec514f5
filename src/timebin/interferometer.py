"""Double-pass time-bin interferometer model.

The photon enters an unbalanced interferometer: the short arm maps an early
photon to the early detection window and a late photon to the middle window,
the long arm maps early -> middle and late -> late.  Both middle-window paths
recombine on a beamsplitter feeding detectors D1 and D2, so the middle window
measures the time-bin qubit in an equatorial basis set by the phase between
the excitation pulses and the analysis pass.

Because the excitation pulses are themselves derived from a pass through the
same interferometer, only the phase difference phi_e - phi_d =
2*(theta_pol - theta0) is observable (`effective_phase`), and a common
drift of both passes has no effect.  So `TBIParams` describes the device
alone; the polarizer angle is a setting of each measurement, and the
click POVM takes its observable phase (`slot_window_povm`): a state
evolved at excitation phase 0 and read with it gives the probabilities of
the state evolved at phi_e and read at phi_d.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .emitter import check_fields
from .errors import ConfigurationError
from .hilbert import SLOT_EARLY, SLOT_LATE


class Window(str, Enum):
    EARLY = "early"
    MIDDLE = "middle"
    LATE = "late"
    READOUT = "readout"


class Detector(str, Enum):
    D1 = "D1"
    D2 = "D2"


@dataclass(frozen=True)
class TBIParams:
    """The interferometer device: its imperfections and the polarizer angle
    theta0 at which the detection pass matches the excitation pass."""

    theta0: float = 0.0            # polarizer angle at which phi_d = phi_e (rad)
    classical_visibility: float = 0.99
    splitting_ratio: float = 0.5   # routing splitter transmission
    detector_efficiency: float = 1.0

    def __post_init__(self):
        check_fields("tbi", TBIParams, vars(self))
        if not 0.0 < self.splitting_ratio < 1.0:
            raise ConfigurationError("splitting_ratio must lie strictly in (0, 1)")
        for name in ("classical_visibility", "detector_efficiency"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")


def effective_phase(theta_pol, params: TBIParams):
    """Observable phase difference phi_e - phi_d = 2*(theta_pol - theta0)
    at polarizer angle theta_pol (a float or an array)."""
    return 2.0 * (theta_pol - params.theta0)


def slot_window_povm(params: TBIParams, phase: float, slot_dim: int = 3
                     ) -> dict[tuple[Window, Detector], np.ndarray]:
    """Click POVM of one photon in a slot, on its {e, l} levels, read at the
    observable phase phi_e - phi_d (`effective_phase`).

    Keys are (window, detector); elements sum to the identity on span{e, l}
    (a photon is always detected somewhere before efficiency losses).  The
    detection layer builds the no-click element and the doubly occupied
    levels' elements from these (`DetectionModel`).

    The elements expect a state evolved at excitation phase 0.  The
    physical element, with coherence exp(-i phi_d), read on the state
    evolved at phi_e is the same as D^dagger M D read on the phase-0 state,
    D = exp(i phi_e L) with L the late-photon count; D changes only the
    middle-window coherence, to exp(i (phi_e - phi_d)) = exp(i phase).
    """
    s = params.splitting_ratio
    povm: dict[tuple[Window, Detector], np.ndarray] = {}

    def slot_mat(fill) -> np.ndarray:
        m = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
        for (i, j), val in fill.items():
            m[i, j] = val
        return m

    for det in (Detector.D1, Detector.D2):
        povm[(Window.EARLY, det)] = slot_mat({(SLOT_EARLY, SLOT_EARLY): 0.5 * s})
        povm[(Window.LATE, det)] = slot_mat({(SLOT_LATE, SLOT_LATE): 0.5 * (1.0 - s)})
    # middle window: the early photon arrives through the long arm (weight
    # 1-s), the late one through the short arm (weight s); the recombiner
    # shows their coherence with the classical visibility, with opposite
    # signs on D1 and D2, at the observable phase
    coherence = (0.5 * params.classical_visibility * np.sqrt(s * (1.0 - s))
                 * np.exp(1j * phase))
    for det, sign in ((Detector.D1, 1.0), (Detector.D2, -1.0)):
        povm[(Window.MIDDLE, det)] = slot_mat({
            (SLOT_EARLY, SLOT_EARLY): 0.5 * (1.0 - s), (SLOT_LATE, SLOT_LATE): 0.5 * s,
            (SLOT_EARLY, SLOT_LATE): sign * coherence,
            (SLOT_LATE, SLOT_EARLY): sign * coherence.conjugate()})
    return povm


def classical_fringe(theta_pol, params: TBIParams) -> np.ndarray:
    """Normalized intensity difference of the two detectors for a classical input.

    Follows V_c * cos(2*(theta_pol - theta0)).
    """
    theta = np.atleast_1d(np.asarray(theta_pol, dtype=float))
    return params.classical_visibility * np.cos(effective_phase(theta, params))


def fit_fringe(theta: np.ndarray, contrast: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of contrast = V*cos(2*(theta - theta0)).

    Linearizes to A cos(2 theta) + B sin(2 theta); returns (V, theta0) with
    V >= 0 and theta0 in (-pi/2, pi/2].
    """
    theta = np.asarray(theta, dtype=float)
    contrast = np.asarray(contrast, dtype=float)
    design = np.column_stack([np.cos(2 * theta), np.sin(2 * theta)])
    (a, b), *_ = np.linalg.lstsq(design, contrast, rcond=None)
    amp = float(np.hypot(a, b))
    theta0 = float(0.5 * np.arctan2(b, a))
    return amp, theta0
