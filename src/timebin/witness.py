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

Heralded events are counted with one outcome multiplicity, prod_k n_k(e_k)
over the slots' clicks of each eigenvalue
(`SettingCounts.outcome_multiplicities`).  `SettingCounts.add_expected`
adds it in closed form for every click row: a sampled or analyzed
repetition once, an exact-mode row with its expected weight and the
weight of one first-order background click in any one cell.
`estimate_setting` turns one setting's counts into its population or
correlator, and `fidelity_estimate` assembles the fidelity from them.
"""
from __future__ import annotations

import math
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
    subsettings: tuple[SpinSubsetting, ...]
    photon_outcome_map: dict
    allowed_windows: tuple[Window, ...]

    @property
    def phase(self) -> float:
        """The photons' analysis phase phi_e - phi_d: theta, or 0 for the Z
        setting, whose windows see no coherence."""
        return 0.0 if self.theta is None else self.theta

    def photon_eigenvalue(self, window: Window, detector: Detector) -> int | None:
        return self.photon_outcome_map.get((window, detector))


def _z_setting() -> MeasurementSetting:
    photon_map = {(Window.EARLY, Detector.D1): -1, (Window.EARLY, Detector.D2): -1,
                  (Window.LATE, Detector.D1): +1, (Window.LATE, Detector.D2): +1}
    subs = (SpinSubsetting("y", 0.0, +1), SpinSubsetting("y", math.pi, -1))
    return MeasurementSetting("ZZ", None, subs, photon_map, (Window.EARLY, Window.LATE))


def _equatorial_setting(label: str, theta: float) -> MeasurementSetting:
    """Setting measuring M(theta) on every qubit.

    The spin rotation R(pi/2) about the equatorial axis at azimuth
    pi/2 - theta maps the +1 eigenvector of M(theta) onto spin-up; the
    photons are read at analysis phase theta (the polarizer at theta0 +
    theta/2).
    """
    axis = math.pi / 2 - theta
    photon_map = {(Window.MIDDLE, Detector.D1): +1, (Window.MIDDLE, Detector.D2): -1}
    subs = (SpinSubsetting(axis, math.pi / 2, +1), SpinSubsetting(axis, -math.pi / 2, -1))
    return MeasurementSetting(label, theta, subs, photon_map, (Window.MIDDLE,))


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


def _outcome_signs(n_slots: int) -> np.ndarray:
    """Every e in {+1, -1}^n as rows, slot 0 most significant, -1 as a set bit."""
    return 1 - 2 * ((np.arange(2 ** n_slots)[:, None] >> np.arange(n_slots)[::-1]) & 1)


def _outcome_products(pairs: np.ndarray) -> np.ndarray:
    """prod_k pairs[k, e_k] for every outcome e of `_outcome_signs`, as a
    (2^n, groups) array.

    pairs[k] holds a value per group for e_k = +1, then one for e_k = -1;
    with slot k's click counts of each eigenvalue (`_eigen_counts`) the
    product is an outcome's multiplicity.  Groups run along the last axis,
    so every step is a long vector operation.
    """
    out = np.ones((1, pairs.shape[2]), dtype=pairs.dtype)
    for pair in pairs:
        out = (out[:, None] * pair).reshape(2 * len(out), -1)
    return out


@dataclass
class SettingCounts:
    """Accumulated heralded events of one setting.

    Sums over outcomes are exactly rounded (math.fsum), so the estimates do
    not depend on the order in which outcomes were added.
    """

    setting: MeasurementSetting
    n_slots: int
    counts: dict = field(default_factory=dict)

    def _cell_eig(self) -> np.ndarray:
        """The photon eigenvalue of each of a slot's 6 cells, 0 if ineligible."""
        return np.array([self.setting.photon_eigenvalue(WINDOWS[c // 2], DETECTORS[c % 2])
                         or 0 for c in range(6)])

    def _eigen_counts(self, rows) -> np.ndarray:
        """n_k(+-1): each slot's clicks of eigenvalue +1 and -1 per row, as an
        (n_slots, 2, rows) int64 array, of a (rows, 6 * n_slots) matrix of
        per-cell click counts (`coincidence.click_cell`)."""
        cells = np.asarray(rows).reshape(len(rows), self.n_slots, 6)
        cell_eig = self._cell_eig()
        return np.stack([cells[:, :, cell_eig == e].sum(axis=2, dtype=np.int64).T
                         for e in (1, -1)], axis=1)

    def outcome_multiplicities(self, rows) -> np.ndarray:
        """prod_k n_k(e_k) of every outcome e of `_outcome_signs` for each
        click-count row, as a (2^n, rows) int64 array.

        A row needs an eligible click in every slot; outcome (eigenvalue, e)
        then occurs once per click combination, and its column sums to the
        row's event count prod_k (n_k(+1) + n_k(-1)).
        """
        return _outcome_products(self._eigen_counts(rows))

    def _outcome_keys(self, sub_index: int) -> list[Outcome]:
        """The counts key of every outcome of `_outcome_signs`, in order."""
        eigenvalue = self.setting.subsettings[sub_index].eigenvalue
        return [(eigenvalue, tuple(e)) for e in _outcome_signs(self.n_slots).tolist()]

    def add_expected(self, sub_index: int, rows, weights, leak=0.0) -> np.ndarray:
        """Add the heralded counts of click rows with first-order background
        clicks, measured in sub-setting sub_index; returns the weight added
        to each outcome of `_outcome_signs`.

        rows is a (heads, 6 * n_slots) matrix of click counts with a readout
        click; weights weighs each row as it is, and leak (one per row, or
        one for all) weighs the row plus one background click in any one of
        its 6 * n_slots cells (`DetectionModel.readout_terms`).  A sampled
        or analyzed repetition is a row of weight 1 and leak 0.  Each term
        adds its weight times the multiplicity prod_k n_k(e_k)
        (`outcome_multiplicities`) to every outcome e, summed in closed
        form: a click in an eligible cell of slot j with eigenvalue eps
        raises n_j(eps) by one, which adds [e_j = eps] * prod_{k != j}
        n_k(e_k), and a click in an ineligible cell leaves the product as
        it is.  So slot j's raised counts are c_eps * leak, with c_eps the
        number of a slot's cells of eigenvalue eps.  Outcomes whose sum is
        positive are added, in outcome order.
        """
        n = self.n_slots
        weights = np.asarray(weights, dtype=float)
        leak = np.broadcast_to(np.asarray(leak, dtype=float), weights.shape)
        # in floats, so the product below runs in BLAS: an int64 matrix
        # would be summed in another order
        per_eig = self._eigen_counts(rows).astype(float)
        sums = _outcome_products(per_eig) @ (weights + 6 * n * leak)
        if leak.any():
            cell_eig = self._cell_eig()
            raised = np.outer([np.sum(cell_eig == 1), np.sum(cell_eig == -1)], leak)
            for j in range(n):
                swapped = per_eig.copy()
                swapped[j] = raised
                sums += _outcome_products(swapped).sum(axis=1)
        keys = self._outcome_keys(sub_index)
        for o in np.flatnonzero(sums > 0).tolist():
            self.counts[keys[o]] = self.counts.get(keys[o], 0.0) + float(sums[o])
        return sums

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


def estimate_setting(acc: SettingCounts) -> tuple[float, float]:
    """One setting's estimate +- error: the target population for the Z
    setting, the correlator <M_k> for an equatorial one."""
    if acc.setting.theta is None:
        return acc.population()
    return acc.expectation()


def fidelity_estimate(n_qubits: int, counts: dict
                      ) -> tuple[dict, tuple[float, float]]:
    """Each setting's estimate (label -> (value, error), in setting order)
    and the witness fidelity +- error assembled from them.

    counts maps every setting label of `ghz_settings(n_qubits)` to its
    SettingCounts; a setting without heralded events raises
    UndefinedEstimateError.
    """
    estimates = {s.label: estimate_setting(counts[s.label])
                 for s in ghz_settings(n_qubits)}
    (pop, pop_err), *mks = estimates.values()
    fidelity = ghz_fidelity(n_qubits, pop, [m for m, _ in mks], pop_err,
                            [e for _, e in mks])
    return estimates, fidelity


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
