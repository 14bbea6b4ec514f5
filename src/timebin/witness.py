"""Entanglement-fidelity witness: settings, counting, and the exact few-setting
decomposition.

Logical qubit convention: |0> = spin-up / late photon, |1> = spin-down /
early photon.  The generated n-qubit target state is

    (e^{i Phi} |up, l, ..., l> - |down, e, ..., e>) / sqrt(2),

and its fidelity decomposes exactly into the population of the two target
basis states plus n equatorial correlators

    F = pop/2 + (1/2n) * sum_k (-1)^(k+1) <M_k>,
    M_k = (cos(k pi/n) sx + sin(k pi/n) sy)^{(x) n},

which for n = 2 reduces to pop/2 + (<M_y> - <M_x>)/4.  Each M_k needs one
polarizer angle (theta0 + k pi/2n) and a pair of spin pre-readout rotations;
the population setting uses the early/late windows with the readout rotation
toggled between 0 and pi.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coincidence import DETECTORS, WINDOWS
from .errors import ContractError, UndefinedEstimateError
from .hilbert import (SLOT_EARLY, SLOT_LATE, SPIN_DOWN, SPIN_UP,
                      DensityOperator, LinearOperator, QuditState,
                      RegisterLayout)
from .interferometer import Detector, Window

# logical |0> and |1> per register kind
_SPIN_LOGICAL = (SPIN_UP, SPIN_DOWN)
_PHOTON_LOGICAL = (SLOT_LATE, SLOT_EARLY)


def _logical_pair(dim: int, register: int) -> tuple[np.ndarray, np.ndarray]:
    zero = np.zeros(dim, dtype=np.complex128)
    one = np.zeros(dim, dtype=np.complex128)
    if register == 0:
        zero[_SPIN_LOGICAL[0]] = 1.0
        one[_SPIN_LOGICAL[1]] = 1.0
    else:
        zero[_PHOTON_LOGICAL[0]] = 1.0
        one[_PHOTON_LOGICAL[1]] = 1.0
    return zero, one


def _equatorial_single(theta: float, dim: int, register: int) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y on the logical pair of one register."""
    zero, one = _logical_pair(dim, register)
    m = np.exp(-1j * theta) * np.outer(zero, one.conj())
    return m + m.conj().T


def equatorial_operator(theta: float, layout: RegisterLayout) -> LinearOperator:
    """M(theta) = (cos sx + sin sy)^{(x) n} embedded on the full register."""
    full = _equatorial_single(theta, 2, 0)
    for k in range(layout.photon_slots):
        full = np.kron(full, _equatorial_single(theta, layout.slot_dim, 1 + k))
    return LinearOperator(layout, full, label=f"M({theta:.4f})")


def population_operator(layout: RegisterLayout) -> LinearOperator:
    """Projector onto the two target basis states |up,l,..,l> and |down,e,..,e>."""
    n = layout.photon_slots
    up_l = [SPIN_UP] + [SLOT_LATE] * n
    down_e = [SPIN_DOWN] + [SLOT_EARLY] * n
    dim = layout.total_dim
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for labels in (up_l, down_e):
        i = layout.basis_index(labels)
        mat[i, i] = 1.0
    return LinearOperator(layout, mat, label="P_target")


@dataclass(frozen=True)
class TargetState:
    """The generated entangled state for a given qubit count and pulse phase."""

    n_qubits: int
    phi_e: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ContractError("target needs at least 2 qubits")

    @property
    def n_photons(self) -> int:
        return self.n_qubits - 1

    def layout(self, slot_dim: int = 3) -> RegisterLayout:
        return RegisterLayout(photon_slots=self.n_photons, slot_dim=slot_dim)

    def state(self, layout: RegisterLayout | None = None) -> QuditState:
        lay = layout if layout is not None else self.layout()
        if lay.photon_slots != self.n_photons:
            raise ContractError("layout does not match qubit count")
        vec = np.zeros(lay.total_dim, dtype=np.complex128)
        up_l = lay.basis_index([SPIN_UP] + [SLOT_LATE] * self.n_photons)
        down_e = lay.basis_index([SPIN_DOWN] + [SLOT_EARLY] * self.n_photons)
        vec[up_l] = np.exp(1j * self.n_photons * self.phi_e) / math.sqrt(2)
        vec[down_e] = -1.0 / math.sqrt(2)
        return QuditState(lay, vec)


def bell_target(phi_e: float = 0.0) -> TargetState:
    return TargetState(2, phi_e)


# ---------------------------------------------------------------------------
# measurement settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinSubsetting:
    axis: object          # rotation axis ('x', 'y' or equatorial azimuth)
    angle: float          # rotation angle of R_i
    eigenvalue: int       # logical eigenvalue a readout click assigns


@dataclass(frozen=True)
class MeasurementSetting:
    """One of the n+1 witness settings.

    For equatorial settings the photon outcome lives in the middle window
    (D1 -> +1, D2 -> -1) and the spin pre-readout rotation is toggled
    between the two subsettings; Z settings use the early/late windows with
    both detectors treated equally.
    """

    label: str
    theta: float | None                 # equatorial angle; None for the Z setting
    theta_pol_offset: float             # polarizer offset from theta0
    subsettings: tuple[SpinSubsetting, ...]
    photon_outcome_map: dict
    allowed_windows: tuple[Window, ...]

    def photon_eigenvalue(self, window: Window, detector: Detector) -> int | None:
        return self.photon_outcome_map.get((window, detector))


def _z_setting() -> MeasurementSetting:
    photon_map = {(Window.EARLY, Detector.D1): -1, (Window.EARLY, Detector.D2): -1,
                  (Window.LATE, Detector.D1): +1, (Window.LATE, Detector.D2): +1}
    subs = (SpinSubsetting("y", 0.0, +1), SpinSubsetting("y", math.pi, -1))
    return MeasurementSetting("ZZ", None, 0.0, subs, photon_map,
                              (Window.EARLY, Window.LATE))


def _equatorial_setting(label: str, theta: float) -> MeasurementSetting:
    """Setting measuring M(theta) on every qubit.

    The spin rotation R(pi/2) about the equatorial axis at azimuth
    pi/2 - theta maps the +1 eigenvector of M(theta) onto spin-up; the
    polarizer offset theta/2 sets the photonic analysis phase to theta.
    """
    axis = math.pi / 2 - theta
    photon_map = {(Window.MIDDLE, Detector.D1): +1, (Window.MIDDLE, Detector.D2): -1}
    subs = (SpinSubsetting(axis, math.pi / 2, +1), SpinSubsetting(axis, -math.pi / 2, -1))
    return MeasurementSetting(label, theta, theta / 2.0, subs, photon_map,
                              (Window.MIDDLE,))


def ghz_settings(n_qubits: int) -> list[MeasurementSetting]:
    """The n+1 settings: population plus M_k at angles k*pi/n, k = 1..n."""
    if n_qubits < 2:
        raise ContractError("witness needs at least 2 qubits")
    settings = [_z_setting()]
    for k in range(1, n_qubits + 1):
        theta = k * math.pi / n_qubits
        label = f"M{k}"
        if n_qubits == 2:
            label = "YY" if k == 1 else "XX"
        settings.append(_equatorial_setting(label, theta))
    return settings


def bell_settings() -> list[MeasurementSetting]:
    return ghz_settings(2)


def mk_signs(n_qubits: int) -> list[int]:
    """Signs of the equatorial correlators in the fidelity decomposition."""
    return [(-1) ** (k + 1) for k in range(1, n_qubits + 1)]


# ---------------------------------------------------------------------------
# fidelity arithmetic
# ---------------------------------------------------------------------------


def bell_fidelity(pz: float, mx: float, my: float,
                  pz_err: float = 0.0, mx_err: float = 0.0, my_err: float = 0.0
                  ) -> tuple[float, float]:
    """F = pz/2 + (my - mx)/4 with quadrature error propagation."""
    if not 0.0 <= pz <= 1.0:
        raise ContractError(f"pz={pz} outside [0, 1]")
    for name, v in (("mx", mx), ("my", my)):
        if not -1.0 <= v <= 1.0:
            raise ContractError(f"{name}={v} outside [-1, 1]")
    f = pz / 2.0 + (my - mx) / 4.0
    err = math.sqrt((pz_err / 2.0) ** 2 + (mx_err / 4.0) ** 2 + (my_err / 4.0) ** 2)
    return f, err


def ghz_fidelity(n_qubits: int, population: float, mk_expectations: Sequence[float],
                 population_err: float = 0.0,
                 mk_errors: Sequence[float] | None = None) -> tuple[float, float]:
    """Exact witness fidelity from the population and the n equatorial correlators.

    Reduces to the Bell formula for n_qubits = 2 with
    mk_expectations = [<M_y>, <M_x>].
    """
    if len(mk_expectations) != n_qubits:
        raise ContractError(f"need {n_qubits} correlators, got {len(mk_expectations)}")
    if not 0.0 <= population <= 1.0:
        raise ContractError(f"population={population} outside [0, 1]")
    for v in mk_expectations:
        if not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
            raise ContractError(f"correlator {v} outside [-1, 1]")
    signs = mk_signs(n_qubits)
    f = population / 2.0
    f += sum(s * m for s, m in zip(signs, mk_expectations)) / (2.0 * n_qubits)
    if mk_errors is None:
        mk_errors = [0.0] * n_qubits
    var = (population_err / 2.0) ** 2
    var += sum((e / (2.0 * n_qubits)) ** 2 for e in mk_errors)
    return f, math.sqrt(var)


def witness_fidelity_exact(rho: DensityOperator) -> float:
    """Witness decomposition evaluated with exact operator expectations."""
    from .hilbert import expectation

    lay = rho.layout
    n = 1 + lay.photon_slots
    pop = expectation(rho, population_operator(lay))
    mks = [expectation(rho, equatorial_operator(k * math.pi / n, lay))
           for k in range(1, n + 1)]
    f, _ = ghz_fidelity(n, min(max(pop, 0.0), 1.0),
                        [min(max(m, -1.0), 1.0) for m in mks])
    return f


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

Outcome = tuple[int, tuple[int, ...]]  # (spin eigenvalue, per-slot photon eigenvalues)


@dataclass
class SettingCounts:
    """Accumulated heralded events of one setting; a commutative merge monoid.

    Sums over outcomes are exactly rounded (math.fsum), so the estimates do
    not depend on the order in which outcomes were added.
    """

    setting: MeasurementSetting
    n_slots: int
    counts: dict = field(default_factory=dict)

    def add(self, outcome: Outcome, weight: float = 1.0) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0.0) + weight

    def merge(self, other: "SettingCounts") -> "SettingCounts":
        for k, v in other.counts.items():
            self.add(k, v)
        return self

    @property
    def total(self) -> float:
        return math.fsum(self.counts.values())

    def probabilities(self) -> dict:
        t = self.total
        if t <= 0:
            raise UndefinedEstimateError(
                f"no post-selected events for setting {self.setting.label}")
        return {k: v / t for k, v in self.counts.items()}

    def expectation(self) -> tuple[float, float]:
        """Mean joint eigenvalue (equatorial settings) with binomial error."""
        probs = self.probabilities()
        e = math.fsum(spin * math.prod(ph) * p for (spin, ph), p in probs.items())
        n = self.total
        var = max(1.0 - e * e, 0.0) / n
        return e, math.sqrt(var)

    def population(self) -> tuple[float, float]:
        """P(all-zero) + P(all-one) for the Z setting, with binomial error."""
        probs = self.probabilities()
        zero = (+1, (+1,) * self.n_slots)
        one = (-1, (-1,) * self.n_slots)
        p = probs.get(zero, 0.0) + probs.get(one, 0.0)
        return p, math.sqrt(max(p * (1.0 - p), 0.0) / self.total)


def pattern_outcomes(setting: MeasurementSetting, sub: SpinSubsetting,
                     record: int, n_slots: int) -> list[Outcome]:
    """Heralded outcomes contributed by one repetition's click record.

    Reads the record's cells (`coincidence.click_record`) in cell order.
    Requires an eligible click in every slot; repetitions with a slot
    missing are discarded, and multi-click slots contribute one event per
    click combination (each combination is a valid herald at the rates the
    post-selected estimator normalizes over).
    """
    per_slot: list[list[int]] = [[] for _ in range(n_slots)]
    cells = record.to_bytes(-(-record.bit_length() // 8), "little")
    for cell, k in enumerate(cells[:6 * n_slots]):
        if k:
            eig = setting.photon_eigenvalue(WINDOWS[cell // 2 % 3], DETECTORS[cell % 2])
            if eig is not None:
                per_slot[cell // 6] += [eig] * k
    if any(not s for s in per_slot):
        return []
    outcomes: list[Outcome] = [(sub.eigenvalue, ())]
    for slot_eigs in per_slot:
        outcomes = [(s, ph + (e,)) for s, ph in outcomes for e in slot_eigs]
    return outcomes


def estimate_setting(events, setting: MeasurementSetting,
                     n_slots: int = 1) -> tuple[float, float]:
    """Expectation +- error from heralded (record, readout, subsetting) events.

    events iterates over (click record, readout_clicked, subsetting_index)
    tuples; only repetitions with a readout click and a full photonic herald
    count.  Each distinct event is evaluated once, with its multiplicity.
    """
    acc = SettingCounts(setting, n_slots)
    for (record, readout, sub_i), n in Counter(events).items():
        if not readout:
            continue
        sub = setting.subsettings[sub_i]
        for outcome in pattern_outcomes(setting, sub, record, n_slots):
            acc.add(outcome, n)
    if acc.total <= 0:
        raise UndefinedEstimateError(f"no post-selected events for {setting.label}")
    if setting.theta is None:
        return acc.population()
    return acc.expectation()


def background_correct(counts: dict, leak_fraction: float
                       ) -> tuple[dict, bool]:
    """Subtract a uniform uncorrelated-background share and renormalize.

    leak_fraction is the estimated fraction of heralded events caused by
    background clicks, assumed uniform over the setting's outcomes and
    uncorrelated with the spin readout.  Returns (corrected counts, clamped)
    where clamped flags any bucket that went negative and was zeroed.
    """
    if not 0.0 <= leak_fraction < 1.0:
        raise ContractError("leak fraction must lie in [0, 1)")
    total = math.fsum(counts.values())
    if total <= 0 or leak_fraction == 0.0:
        return dict(counts), False
    per_bucket = leak_fraction * total / len(counts)
    clamped = False
    corrected = {}
    for k, v in counts.items():
        c = v - per_bucket
        if c < 0:
            c, clamped = 0.0, True
        corrected[k] = c
    new_total = math.fsum(corrected.values())
    if new_total > 0:
        scale = total * (1.0 - leak_fraction) / new_total
        corrected = {k: v * scale for k, v in corrected.items()}
    return corrected, clamped


def outcome_label(outcome: Outcome, setting: MeasurementSetting) -> str:
    """Human-readable outcome name, e.g. 'up,l' (Z) or '+,-' (equatorial)."""
    spin, photons = outcome
    if setting.theta is None:
        spin_part = "up" if spin > 0 else "down"
        photon_part = ",".join("l" if e > 0 else "e" for e in photons)
    else:
        spin_part = "+" if spin > 0 else "-"
        photon_part = ",".join("+" if e > 0 else "-" for e in photons)
    return f"{spin_part},{photon_part}" if photon_part else spin_part
