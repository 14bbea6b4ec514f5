"""Quantum-dot spin-photon interface model.

Implements optical pumping, noisy ground-state rotations, conditional
time-bin photon emission with finite cyclicity, and the protocol pulse
sequences (Bell, GHZ, two-photon indistinguishability).

Error model
-----------
* Pumping is a reset channel leaving residual up population p_init_error.
* A rotation by angle theta is the ideal unitary followed, with
  angle-proportional probabilities, by an incoherent spin flip (sigma_x)
  or a dephasing kick (sigma_z).  The flip probability is pinned by the
  measured pi-pulse fidelity: a pi pulse on the pumped state transfers
  exactly f_pi of the population, independent of the dephasing share,
  which is a separate calibration constant anchored to the entanglement
  ceiling of imperfect rotations (NoiseParams.rot_dephasing_ratio).
* Excitation drives the up-spin component only.  The trion decays
  spin-preservingly with probability C/(C+1) (photon collected) and
  flips the spin with probability 1/(C+1) (photon cross-polarized and
  filtered away: modeled as loss).  Re-excitation scatters one extra,
  temporally distinguishable photon into the driven bin (p_double) and
  the detuned transition of the down-spin component can scatter a
  background photon (p_wrong_transition); both are classical flagged
  clicks that live outside the register.

Evolution modes
---------------
Both modes consume one list of Kraus branches per pulse step
(step_branches): 2 x 2 factors on the spin for pump, rotate and wait steps,
full-register matrices for excite steps.  A spin factor acts on the leading
register axis, so it is applied to a ket reshaped to (2, rest) and to a
density operator through its two spin axes.  Exact mode propagates density
operators through the branches and returns the pre-detection mixture,
opening a classically flagged component for each flagged branch.
Trajectory mode samples one branch per repetition with counter-based
randomness, so a repetition's record is reproducible regardless of how the
run is chunked.  A blinked-off component or repetition skips the excite
steps.

Both engines can continue from the result of a sequence's leading steps
(start=...).  A witness uses this to evolve its generation sequence once:
the late-pulse phase factors out of the evolution (K_phi = D K_0 D^dagger,
D = exp(i phi L) with L the late-photon count, which commutes with every
other step), so each sub-run conjugates the phase-0 result by its
setting's D (`with_late_phase`) and then runs only its wait and readout
rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import rng as crng
from .errors import ConfigurationError, ContractError
from .hilbert import (SIGMA_X, SIGMA_Y, SIGMA_Z, SLOT_EARLY, SLOT_EE, SLOT_EL,
                      SLOT_LATE, SLOT_LL, SLOT_VACUUM, SPIN_DOWN, SPIN_UP,
                      DensityOperator, RegisterLayout)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EmitterParams:
    """Physical constants of the emitter and protocol timing."""

    gamma_y: float = 2.54 * 14.7 / 15.7   # spin-preserving decay rate (1/ns)
    gamma_x: float = 2.54 / 15.7          # spin-flipping decay rate (1/ns)
    delta0: float = TWO_PI * 17.0         # trion Zeeman splitting sum (rad/ns)
    t_opt: float = 0.035                  # optical pi-pulse FWHM (ns)
    t_inf: float = 11.8                   # time-bin separation / long arm delay (ns)
    rotation_ns: float = 7.0              # Raman pi-rotation duration (ns)
    photon_spacing_ns: float = 28.0       # emission block spacing for extra photons (ns)
    repetition_rate_mhz: float = 1.65

    def __post_init__(self):
        if self.gamma_y <= 0 or self.gamma_x < 0:
            raise ConfigurationError("decay rates must be positive (gamma_x may be 0)")
        if self.gamma_x > 0 and self.gamma_y / self.gamma_x <= 1.0:
            raise ConfigurationError("cyclicity gamma_y/gamma_x must exceed 1")

    @property
    def cyclicity(self) -> float:
        return math.inf if self.gamma_x == 0 else self.gamma_y / self.gamma_x

    @property
    def gamma0(self) -> float:
        return self.gamma_x + self.gamma_y

    @property
    def spin_preserving_probability(self) -> float:
        c = self.cyclicity
        return 1.0 if math.isinf(c) else c / (c + 1.0)

    @property
    def repetition_period_ns(self) -> float:
        return 1e3 / self.repetition_rate_mhz


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated error probabilities and efficiencies.

    All fields are probabilities in [0, 1] except p_leak, a background click
    rate per nanosecond (both detectors combined) at unit photon-path
    efficiency; the detection layer scales it with the applied efficiency so
    the background-to-signal ratio is independent of thinning mode.
    """

    f_pi: float = 0.885
    rot_dephasing_ratio: float = 0.458     # dephasing share relative to 1 - f_pi
    p_init_error: float = 0.005
    p_wrong_transition: float = 0.0
    p_double: float = 0.0
    p_leak: float = 0.0
    p_wait_dephasing: float = 0.0          # spin sigma_z kick in the pre-readout wait
    eta_total: float = 1.0
    eta_readout: float = 1.0
    readout_fidelity: float = 1.0
    readout_dark: float = 0.0
    indistinguishability: float = 1.0
    blink_block_len: int = 0               # 0 disables charge blinking
    blink_on_fraction: float = 1.0

    def __post_init__(self):
        for name in ("p_init_error", "p_wrong_transition", "p_double", "eta_total",
                     "eta_readout", "readout_fidelity", "readout_dark",
                     "indistinguishability", "blink_on_fraction", "p_wait_dephasing"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name}={v} outside [0, 1]")
        if not 0.5 < self.f_pi <= 1.0:
            raise ConfigurationError(f"f_pi={self.f_pi} outside (0.5, 1]")
        if self.p_leak < 0:
            raise ConfigurationError("p_leak must be non-negative")
        if self.rot_dephasing_ratio < 0:
            raise ConfigurationError("rot_dephasing_ratio must be non-negative")

    def flip_probability(self, angle: float) -> float:
        return (1.0 - self.f_pi) * abs(angle) / math.pi

    def dephasing_probability(self, angle: float) -> float:
        return self.rot_dephasing_ratio * (1.0 - self.f_pi) * abs(angle) / math.pi

    @property
    def needs_double_slots(self) -> bool:
        # rotation flips can leave the spin excited with a photon already in
        # the bin, so the next pulse fills the second occupation level
        return self.f_pi < 1.0


def ideal_noise() -> NoiseParams:
    return NoiseParams(f_pi=1.0, p_init_error=0.0)


def ideal_emitter() -> EmitterParams:
    return EmitterParams(gamma_y=2.54, gamma_x=0.0)


# ---------------------------------------------------------------------------
# pulse sequences
# ---------------------------------------------------------------------------

AXIS_ANGLES = {"x": 0.0, "y": math.pi / 2.0}


def _axis_angle(axis) -> float:
    if isinstance(axis, str):
        try:
            return AXIS_ANGLES[axis]
        except KeyError:
            raise ContractError(f"unsupported rotation axis {axis!r}") from None
    return float(axis)


@dataclass(frozen=True)
class PulseOp:
    """One protocol step.

    kind: pump | rotate | excite | readout.  Rotations carry an axis (either
    'x'/'y' or an equatorial azimuth in radians) and an angle; excitations
    carry the slot index, bin ('early'/'late') and optical phase.
    """

    kind: str
    axis: object = "y"
    angle: float = 0.0
    slot: int = 0
    bin: str = "early"
    phase: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("pump", "rotate", "excite", "wait", "readout"):
            raise ContractError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "rotate":
            if not -TWO_PI <= self.angle <= TWO_PI:
                raise ContractError("rotation angle outside [-2pi, 2pi]")
            _axis_angle(self.axis)
        if self.kind == "excite" and self.bin not in ("early", "late"):
            raise ContractError(f"unknown time bin {self.bin!r}")


@dataclass(frozen=True)
class PulseSequence:
    steps: tuple[PulseOp, ...]
    repetition_period: float = 606.06
    name: str = ""

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        readouts = [i for i, s in enumerate(steps) if s.kind == "readout"]
        if len(readouts) != 1 or readouts[0] != len(steps) - 1:
            raise ContractError("sequence must end with exactly one readout step")
        bins = [(s.slot, s.bin) for s in steps if s.kind == "excite"]
        if len(bins) != len(set(bins)):
            raise ContractError("excitation steps must target distinct time bins")

    @property
    def n_slots(self) -> int:
        slots = [s.slot for s in self.steps if s.kind == "excite"]
        return max(slots) + 1 if slots else 0

    def excite_steps(self) -> list[PulseOp]:
        return [s for s in self.steps if s.kind == "excite"]

    def with_readout_rotation(self, axis, angle: float) -> "PulseSequence":
        """Insert the basis-selection rotation R_i just before readout.

        A wait step precedes R_i: the interval between the last emission and
        the basis rotation is the only unechoed idle time of the protocol,
        so residual spin dephasing is attached here.
        """
        wait = PulseOp("wait", duration=WAIT_REFERENCE_NS)
        rot = PulseOp("rotate", axis=axis, angle=angle, duration=7.0)
        steps = self.steps[:-1] + (wait, rot) + self.steps[-1:]
        return PulseSequence(steps, self.repetition_period, self.name)


def build_bell_sequence(params: EmitterParams, phase_e: float = 0.0) -> PulseSequence:
    """Pump, half rotation, early excitation, pi swap, late excitation, readout.

    phase_e is the relative phase between the late and early pulses; the
    readout rotation R_i is inserted per measurement setting.
    """
    steps = (
        PulseOp("pump", duration=100.0),
        PulseOp("rotate", axis="y", angle=math.pi / 2, duration=params.rotation_ns),
        PulseOp("excite", slot=0, bin="early", phase=0.0, duration=params.t_opt),
        PulseOp("rotate", axis="y", angle=math.pi, duration=params.rotation_ns),
        PulseOp("excite", slot=0, bin="late", phase=phase_e, duration=params.t_opt),
        PulseOp("readout", duration=50.0),
    )
    return PulseSequence(steps, params.repetition_period_ns, name="bell")


def build_ghz_sequence(n_photons: int, params: EmitterParams,
                       phase_e: float = 0.0) -> PulseSequence:
    """Bell sequence extended by one (pi swap, excitation pair) block per photon."""
    if n_photons < 2:
        raise ContractError("GHZ generation requires at least 2 photons")
    steps = [
        PulseOp("pump", duration=100.0),
        PulseOp("rotate", axis="y", angle=math.pi / 2, duration=params.rotation_ns),
    ]
    for slot in range(n_photons):
        if slot > 0:
            # each further emission block adds two unechoed idle segments
            # (trailing the previous block and leading this one)
            steps.append(PulseOp("wait", duration=2 * WAIT_REFERENCE_NS))
            steps.append(PulseOp("rotate", axis="y", angle=math.pi,
                                 duration=params.rotation_ns))
        steps.append(PulseOp("excite", slot=slot, bin="early", phase=0.0,
                             duration=params.t_opt))
        steps.append(PulseOp("rotate", axis="y", angle=math.pi,
                             duration=params.rotation_ns))
        steps.append(PulseOp("excite", slot=slot, bin="late", phase=phase_e,
                             duration=params.t_opt))
    steps.append(PulseOp("readout", duration=50.0))
    return PulseSequence(tuple(steps), params.repetition_period_ns, name="ghz")


def build_hom_sequence(params: EmitterParams) -> PulseSequence:
    """Prepare up, then emit two separable photons into the early and late bins."""
    steps = (
        PulseOp("pump", duration=100.0),
        PulseOp("rotate", axis="y", angle=math.pi, duration=params.rotation_ns),
        PulseOp("excite", slot=0, bin="early", phase=0.0, duration=params.t_opt),
        PulseOp("excite", slot=0, bin="late", phase=0.0, duration=params.t_opt),
        PulseOp("readout", duration=50.0),
    )
    return PulseSequence(steps, params.repetition_period_ns, name="hom")


def sequence_layout(seq: PulseSequence, noise: NoiseParams) -> RegisterLayout:
    """Smallest register that can hold the sequence output under this noise."""
    slot_dim = 6 if (noise.needs_double_slots or seq.name == "hom") else 3
    return RegisterLayout(photon_slots=max(seq.n_slots, 1), slot_dim=slot_dim)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def rotation_unitary(axis, angle: float) -> np.ndarray:
    alpha = _axis_angle(axis)
    n_sigma = math.cos(alpha) * SIGMA_X + math.sin(alpha) * SIGMA_Y
    return (math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * n_sigma)


def rotation_kraus(axis, angle: float, noise: NoiseParams) -> list[tuple[str, np.ndarray]]:
    """Branches of one noisy rotation: ideal, flip-after, dephase-after."""
    u = rotation_unitary(axis, angle)
    eps = noise.flip_probability(angle)
    delta = noise.dephasing_probability(angle)
    if eps + delta >= 1.0:
        raise ConfigurationError("rotation error probabilities exceed 1")
    branches = [("ideal", math.sqrt(1.0 - eps - delta) * u)]
    if eps > 0:
        branches.append(("flip", math.sqrt(eps) * (SIGMA_X @ u)))
    if delta > 0:
        branches.append(("dephase", math.sqrt(delta) * (SIGMA_Z @ u)))
    return branches


WAIT_REFERENCE_NS = 7.0


def wait_kraus(noise: NoiseParams, duration: float = WAIT_REFERENCE_NS
               ) -> list[tuple[str, np.ndarray]]:
    """Idle-interval dephasing channel on the spin.

    The kick probability p_wait_dephasing refers to one 7 ns idle segment
    (the gap between the last emission and the readout rotation) and scales
    linearly with the interval duration.
    """
    d = min(noise.p_wait_dephasing * duration / WAIT_REFERENCE_NS, 0.5)
    branches = [("idle", math.sqrt(1.0 - d) * np.eye(2, dtype=np.complex128))]
    if d > 0:
        branches.append(("dephase", math.sqrt(d) * SIGMA_Z))
    return branches


def pump_kraus(p_init_error: float) -> list[tuple[str, np.ndarray]]:
    """Reset channel: down with probability 1-p, up with probability p."""
    p = p_init_error
    k = [("reset[down<-down]", math.sqrt(1 - p) * _spin_matrix({(SPIN_DOWN, SPIN_DOWN): 1})),
         ("reset[down<-up]", math.sqrt(1 - p) * _spin_matrix({(SPIN_DOWN, SPIN_UP): 1}))]
    if p > 0:
        k += [("reset[up<-down]", math.sqrt(p) * _spin_matrix({(SPIN_UP, SPIN_DOWN): 1})),
              ("reset[up<-up]", math.sqrt(p) * _spin_matrix({(SPIN_UP, SPIN_UP): 1}))]
    return k


_BIN_INDEX = {"early": SLOT_EARLY, "late": SLOT_LATE}
_SINGLE_ADD = {"early": {SLOT_VACUUM: SLOT_EARLY, SLOT_EARLY: SLOT_EE, SLOT_LATE: SLOT_EL},
               "late": {SLOT_VACUUM: SLOT_LATE, SLOT_EARLY: SLOT_EL, SLOT_LATE: SLOT_LL}}


def _slot_matrix(mapping: dict[int, int], slot_dim: int) -> np.ndarray:
    m = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
    for src, dst in mapping.items():
        if dst < slot_dim and src < slot_dim:
            m[dst, src] = 1.0
    return m


def _slot_projector(indices: Iterable[int], slot_dim: int) -> np.ndarray:
    m = np.zeros((slot_dim, slot_dim), dtype=np.complex128)
    for i in indices:
        if i < slot_dim:
            m[i, i] = 1.0
    return m


def _spin_matrix(entries: dict[tuple[int, int], complex]) -> np.ndarray:
    m = np.zeros((2, 2), dtype=np.complex128)
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


def _embed_pair(spin_m: np.ndarray, slot_m: np.ndarray, layout: RegisterLayout,
                slot: int) -> np.ndarray:
    full = spin_m
    for k in range(layout.photon_slots):
        full = np.kron(full, slot_m if k == slot else np.eye(layout.slot_dim))
    return full


def excite_kraus(bin_label: str, phase: float, params: EmitterParams,
                 noise: NoiseParams, layout: RegisterLayout, slot: int
                 ) -> list[tuple[str, np.ndarray, bool]]:
    """Branches of one excitation pulse on the full register: (label, K, extra).

    'emit' keeps the down component untouched and appends a photon to the
    driven bin of the up component (spin preserved); 'jump' is the
    cross-polarized decay (photon lost, spin flipped).  Re-excitation
    ('emit_double', probability p_double) scatters one additional photon
    that is temporally distinguishable from the coherent one: it is flagged
    as a classical click in the driven bin (extra=True) rather than stored
    in the register, which also records the which-path information it
    carries.  Fully occupied bins ('sat_*') cannot accept the coherent
    photon, so the whole emission becomes a flagged click there.  The
    down-spin wrong-transition click is added by step_branches.
    """
    slot_dim = layout.slot_dim
    p_keep = params.spin_preserving_probability
    p_d = noise.p_double
    proj_single = _slot_projector((SLOT_VACUUM, SLOT_EARLY, SLOT_LATE), slot_dim)
    add1 = _slot_matrix(_SINGLE_ADD[bin_label], slot_dim)
    if slot_dim < 6:
        add1 = _slot_matrix({SLOT_VACUUM: _BIN_INDEX[bin_label]}, slot_dim)

    spin_down = _spin_matrix({(SPIN_DOWN, SPIN_DOWN): 1.0})
    spin_up = _spin_matrix({(SPIN_UP, SPIN_UP): 1.0})
    spin_flip = _spin_matrix({(SPIN_DOWN, SPIN_UP): 1.0})
    phase_f = np.exp(1j * phase)
    emit_op = _embed_pair(spin_up, add1 @ proj_single, layout, slot)

    branches = [("emit",
                 _embed_pair(spin_down, np.eye(slot_dim), layout, slot)
                 + math.sqrt(p_keep * (1.0 - p_d)) * phase_f * emit_op,
                 False)]
    if p_d > 0:
        branches.append(("emit_double",
                         math.sqrt(p_keep * p_d) * phase_f * emit_op, True))
    if slot_dim == 6:
        proj_double = _slot_projector((SLOT_EE, SLOT_EL, SLOT_LL), slot_dim)
        if p_keep > 0:
            branches.append(("sat_emit", math.sqrt(p_keep)
                             * _embed_pair(spin_up, proj_double, layout, slot), True))
        if p_keep < 1.0:
            branches.append(("sat_jump", math.sqrt(1.0 - p_keep)
                             * _embed_pair(spin_flip, proj_double, layout, slot), False))
    if p_keep < 1.0:
        branches.append(("jump", math.sqrt(1.0 - p_keep)
                         * _embed_pair(spin_flip, proj_single, layout, slot), False))
    return branches


def _spin_down_diagonal(layout: RegisterLayout) -> np.ndarray:
    """Diagonal of the spin-down projector on the full register."""
    spin = np.arange(layout.total_dim) // (layout.total_dim // 2)
    return (spin == SPIN_DOWN).astype(float)


def step_branches(op: PulseOp, params: EmitterParams, noise: NoiseParams,
                  layout: RegisterLayout) -> list[tuple[str, np.ndarray, bool]]:
    """Kraus branches (label, K, flagged) of one non-readout step.

    K is a 2 x 2 factor on the spin for pump, rotate and wait steps and a
    full-register matrix for excite steps; `apply_branch` and
    `conjugate_branches` apply either.  A flagged branch carries a classical
    click in the driven bin of an excite step.  The excite list starts with
    the detuned-transition scatter of the down component ('wrong',
    probability p_wrong_transition times the down population); every
    excite_kraus branch follows the no-scatter operator, whose diagonal
    scales its columns.  Both engines consume this one list: exact mode sums
    K rho K^dagger, trajectory mode samples one branch per repetition.
    """
    if op.kind == "excite":
        branches = excite_kraus(op.bin, op.phase, params, noise, layout, op.slot)
        p_w = noise.p_wrong_transition
        if p_w == 0:
            return branches
        down = _spin_down_diagonal(layout)
        no_scatter = 1.0 - (1.0 - math.sqrt(1.0 - p_w)) * down
        return ([("wrong", math.sqrt(p_w) * np.diag(down).astype(np.complex128), True)]
                + [(label, k * no_scatter, flagged) for label, k, flagged in branches])
    if op.kind == "pump":
        kraus = pump_kraus(noise.p_init_error)
    elif op.kind == "wait":
        kraus = wait_kraus(noise, op.duration)
    elif op.kind == "rotate":
        kraus = rotation_kraus(op.axis, op.angle, noise)
    else:
        raise ContractError(f"{op.kind} step has no Kraus branches")
    return [(label, k, False) for label, k in kraus]


def verify_kraus_complete(branches: Sequence[tuple], dim: int) -> float:
    total = sum(b[1].conj().T @ b[1] for b in branches)
    return float(np.max(np.abs(total - np.eye(dim))))


def apply_branch(k: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """K psi for a step_branches K: the spin is the leading register axis,
    so a 2 x 2 spin factor multiplies psi reshaped to (2, rest)."""
    return (k @ psi.reshape(len(k), -1)).ravel()


def conjugate_branches(ks: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Sum of K rho K^dagger over step_branches factors ks of one step.

    Full-register factors are summed product by product.  2 x 2 spin
    factors act on the two spin axes of rho as a (2, m, 2, m) array, all at
    once: output block (i, j) is sum_ab S[(i, j), (a, b)] rho_ab over the
    m x m spin blocks, with S = sum_K K (x) conj(K).
    """
    if len(ks[0]) == len(rho):
        return sum(k @ rho @ k.conj().T for k in ks)
    m = len(rho) // 2
    blocks = rho.reshape(2, m, 2, m).transpose(0, 2, 1, 3).reshape(4, m * m)
    out = sum(np.kron(k, k.conj()) for k in ks) @ blocks
    return out.reshape(2, 2, m, m).transpose(0, 2, 1, 3).reshape(rho.shape)


_LATE_PHOTONS = np.array([0, 0, 1, 0, 1, 2])   # vacuum, e, l, ee, el, ll


def _late_phase_diagonal(layout: RegisterLayout, phase: float) -> np.ndarray:
    """Diagonal of D = exp(i phase L), L the late-photon count of each basis
    state of the register.  Advancing every late excitation's optical phase
    by phase turns its Kraus operators K into D K D^dagger and leaves every
    other step's operators unchanged, because they commute with D."""
    late = np.zeros(1, dtype=int)
    for _ in range(layout.photon_slots):
        late = (late[:, None] + _LATE_PHOTONS[:layout.slot_dim]).ravel()
    return np.exp(1j * phase * np.tile(late, layout.spin_dim))


def _advance_late_phase(seq: PulseSequence, phase: float) -> PulseSequence:
    steps = tuple(replace(s, phase=s.phase + phase)
                  if s.kind == "excite" and s.bin == "late" else s for s in seq.steps)
    return PulseSequence(steps, seq.repetition_period, seq.name)


def _continued_steps(seq: PulseSequence, done: PulseSequence) -> int:
    """Number of seq's leading steps already run by a start result of done."""
    steps = done.steps[:-1]
    if seq.steps[:len(steps)] != steps:
        raise ContractError("the start result did not run this sequence's leading steps")
    return len(steps)


# ---------------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------------


@dataclass
class ExactComponent:
    """One classically-flagged branch of the exact mixture.

    flag_clicks lists (slot, bin) labels of distinguishable photons that
    accompany this branch (wrong-transition scatter or re-excitation); they
    produce detector clicks but live outside the register.
    """

    weight: float
    rho: np.ndarray          # may carry trace < 1; branch mass = weight * trace
    flag_clicks: tuple[tuple[int, str], ...] = ()
    blink_off: bool = False


@dataclass
class ExactResult:
    layout: RegisterLayout
    components: list[ExactComponent]
    sequence: PulseSequence

    def density(self) -> DensityOperator:
        """Pre-detection density operator, traced over classical flags."""
        mat = sum(c.weight * c.rho for c in self.components)
        return DensityOperator(self.layout, mat, validate=False)

    def with_late_phase(self, phase: float) -> "ExactResult":
        """The result of the same sequence with every late excitation's
        optical phase advanced by phase: each component conjugated by D."""
        d = _late_phase_diagonal(self.layout, phase)
        dd = np.outer(d, d.conj())
        return ExactResult(self.layout,
                           [replace(c, rho=c.rho * dd) for c in self.components],
                           _advance_late_phase(self.sequence, phase))


def _initial_vector(layout: RegisterLayout) -> np.ndarray:
    psi = np.zeros(layout.total_dim, dtype=np.complex128)
    psi[layout.basis_index([SPIN_DOWN] + [SLOT_VACUUM] * layout.photon_slots)] = 1.0
    return psi


def run_sequence_exact(seq: PulseSequence, params: EmitterParams, noise: NoiseParams,
                       layout: RegisterLayout | None = None,
                       start: ExactResult | None = None) -> ExactResult:
    """Propagate the exact pre-detection mixture through the sequence.

    start, the result of a sequence whose steps before its readout are
    seq's leading steps, continues from its components (and its layout)
    with the steps after those.
    """
    first = 0
    if start is not None:
        layout, comps = start.layout, start.components
        first = _continued_steps(seq, start.sequence)
    else:
        if layout is None:
            layout = sequence_layout(seq, noise)
        psi0 = _initial_vector(layout)
        rho0 = np.outer(psi0, psi0.conj())
        comps = [ExactComponent(1.0, rho0)]
        if noise.blink_block_len > 0 and noise.blink_on_fraction < 1.0:
            comps = [ExactComponent(noise.blink_on_fraction, rho0),
                     ExactComponent(1.0 - noise.blink_on_fraction, rho0, blink_off=True)]

    for op in seq.steps[first:-1]:
        branches = step_branches(op, params, noise, layout)
        new_comps: list[ExactComponent] = []
        for comp in comps:
            if op.kind == "excite" and comp.blink_off:
                new_comps.append(comp)
                continue
            plain = conjugate_branches([k for _, k, flagged in branches if not flagged],
                                       comp.rho)
            kept = 0.0
            for _, k, flagged in branches:
                if not flagged:
                    continue
                out = conjugate_branches([k], comp.rho)
                w = float(np.trace(out).real)
                kept += w
                if w > 1e-15:
                    new_comps.append(ExactComponent(
                        comp.weight * w, out / w,
                        comp.flag_clicks + ((op.slot, op.bin),), comp.blink_off))
            mass = float(np.trace(comp.rho).real)
            _check_overflow(mass - kept - float(np.trace(plain).real), mass)
            new_comps.append(replace(comp, rho=plain))
        comps = _merge_components(new_comps)
    return ExactResult(layout, comps, seq)


def _merge_components(comps: list[ExactComponent]) -> list[ExactComponent]:
    """Sum components sharing the same classical record (flag multiset, blink)."""
    merged: dict[tuple, ExactComponent] = {}
    for c in comps:
        key = (tuple(sorted(c.flag_clicks)), c.blink_off)
        # a merged component has weight 1, and 1.0 * rho is rho
        rho = c.rho if c.weight == 1.0 else c.weight * c.rho
        if key in merged:
            m = merged[key]
            m.rho = m.rho + rho
        else:
            merged[key] = ExactComponent(1.0, rho, *key)
    return list(merged.values())


def _check_overflow(lost: float, mass: float = 1.0) -> None:
    """Kraus branches lose mass only where slot_dim = 3 cannot hold a second
    photon in an occupied slot."""
    if lost > 1e-9 * mass:
        raise ConfigurationError(
            "excitation would doubly occupy a time bin; enable slot_dim = 6")


# ---------------------------------------------------------------------------
# trajectory evolution
# ---------------------------------------------------------------------------

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


@dataclass
class TrajectoryResult:
    """Per-repetition branch outcomes of a trajectory run.

    state_ids maps each repetition to an entry of state_table (the pure
    pre-detection state conditioned on that repetition's sampled noise
    branches).  Record arrays hold one row per repetition; emission codes
    are 0 none, 1 emit, 2 jump (cross-polarized loss + spin flip), 3 double.
    """

    layout: RegisterLayout
    sequence: PulseSequence
    rep_indices: np.ndarray
    state_table: list[np.ndarray]
    state_ids: np.ndarray
    rotation_flips: np.ndarray
    emission_results: np.ndarray
    wrong_clicks: np.ndarray     # detuned-transition background photon per excite op
    extra_clicks: np.ndarray     # re-excitation / saturated-bin photon per excite op
    blink_off: np.ndarray
    excite_ops: list[PulseOp]

    def flag_click_matrix(self) -> np.ndarray:
        """All classical background photons: columns [wrong ops..., extra ops...]."""
        return np.concatenate([self.wrong_clicks, self.extra_clicks], axis=1)

    def select(self, rows) -> "TrajectoryResult":
        """The repetitions at rows, with a table of only the states they use."""
        ids = self.state_ids[rows]
        used = np.flatnonzero(np.bincount(ids, minlength=len(self.state_table)))
        renumber = np.zeros(len(self.state_table), dtype=np.int64)
        renumber[used] = np.arange(used.size)
        return replace(self, rep_indices=self.rep_indices[rows],
                       state_table=[self.state_table[i] for i in used],
                       state_ids=renumber[ids],
                       rotation_flips=self.rotation_flips[rows],
                       emission_results=self.emission_results[rows],
                       wrong_clicks=self.wrong_clicks[rows],
                       extra_clicks=self.extra_clicks[rows],
                       blink_off=self.blink_off[rows])

    def with_late_phase(self, phase: float) -> "TrajectoryResult":
        """The result of the same sequence with every late excitation's
        optical phase advanced by phase: each table state multiplied by D.
        Branch probabilities do not depend on the phase, so the records
        stay those of the sampled repetitions."""
        d = _late_phase_diagonal(self.layout, phase)
        seq = _advance_late_phase(self.sequence, phase)
        return replace(self, sequence=seq, state_table=[d * v for v in self.state_table],
                       excite_ops=seq.excite_steps())


def _canonical_key(vec: np.ndarray) -> bytes:
    idx = int(np.argmax(np.abs(vec) > 1e-9))
    phase = vec[idx] / abs(vec[idx])
    canon = np.round(vec / phase, 10) + 0.0
    return canon.tobytes()


class _StateTable:
    def __init__(self):
        self.states: list[np.ndarray] = []
        self._index: dict[bytes, int] = {}

    def add(self, vec: np.ndarray) -> int:
        key = _canonical_key(vec)
        sid = self._index.get(key)
        if sid is None:
            sid = len(self.states)
            self.states.append(vec)
            self._index[key] = sid
        return sid


_EMISSION_CODE = {"wrong": 0, "emit": 1, "jump": 2, "emit_double": 3,
                  "sat_emit": 1, "sat_jump": 2}
_ROTATION_CODE = {"ideal": 0, "flip": 1, "dephase": 2}


def run_sequence_trajectory(seq: PulseSequence, params: EmitterParams,
                            noise: NoiseParams, master_seed: int,
                            rep_indices: np.ndarray,
                            layout: RegisterLayout | None = None,
                            start: TrajectoryResult | None = None) -> TrajectoryResult:
    """Sample one noise-branch path per repetition.

    Randomness is addressed by (master_seed, repetition index, step), so each
    repetition samples the same branches however the repetitions are split
    across calls.  start, the result of a sequence whose steps before its
    readout are seq's leading steps, for the same repetitions, continues
    from its states, records and layout with the steps after those; they
    keep their step indices in seq, so each repetition draws what a run of
    the whole sequence draws.
    """
    reps = np.asarray(rep_indices, dtype=np.uint64)
    n = reps.size
    n_rot = sum(1 for s in seq.steps if s.kind == "rotate")
    excite_ops = [s for s in seq.steps if s.kind == "excite"]
    rotation_flips = np.zeros((n, max(n_rot, 1)), dtype=np.int8)
    emission_results = np.zeros((n, max(len(excite_ops), 1)), dtype=np.int8)
    wrong_clicks = np.zeros((n, max(len(excite_ops), 1)), dtype=bool)
    extra_clicks = np.zeros((n, max(len(excite_ops), 1)), dtype=bool)
    table = _StateTable()

    first = rot_i = exc_i = 0
    if start is not None:
        if not np.array_equal(start.rep_indices, reps):
            raise ContractError("the start result holds other repetitions")
        first = _continued_steps(seq, start.sequence)
        done = seq.steps[:first]
        rot_i = sum(1 for s in done if s.kind == "rotate")
        exc_i = sum(1 for s in done if s.kind == "excite")
        layout, blink_off = start.layout, start.blink_off
        ids = np.array([table.add(v) for v in start.state_table],
                       dtype=np.int64)[start.state_ids]
        rotation_flips[:, :rot_i] = start.rotation_flips[:, :rot_i]
        for out, got in ((emission_results, start.emission_results),
                         (wrong_clicks, start.wrong_clicks),
                         (extra_clicks, start.extra_clicks)):
            out[:, :exc_i] = got[:, :exc_i]
    else:
        if layout is None:
            layout = sequence_layout(seq, noise)
        ids = np.full(n, table.add(_initial_vector(layout)), dtype=np.int64)
        if noise.blink_block_len > 0 and noise.blink_on_fraction < 1.0:
            blocks = reps // np.uint64(noise.blink_block_len)
            blink_off = (crng.uniforms(master_seed, blocks, crng.stream("emitter.blink"))
                         >= noise.blink_on_fraction)
        else:
            blink_off = np.zeros(n, dtype=bool)

    down = _spin_down_diagonal(layout)
    for step_i, op in enumerate(seq.steps[first:-1], start=first):
        branches = step_branches(op, params, noise, layout)
        u = crng.uniforms(master_seed, reps, crng.stream("emitter.step", step_i))
        rows = np.nonzero(~blink_off)[0] if op.kind == "excite" else np.arange(n)
        for sid, sel in group_by_id(ids[rows]):
            idx = rows[sel]
            psi = table.states[sid]
            outs, probs, taken = [], [], []
            for label, k, flagged in branches:
                phi = apply_branch(k, psi)
                p = float(np.vdot(phi, phi).real)
                if p > 1e-14:
                    outs.append(phi / math.sqrt(p))
                    probs.append(p)
                    taken.append((label, flagged))
            _check_overflow(1.0 - sum(probs))
            choice = crng.choose(probs, u[idx])
            local_ids = np.array([table.add(v) for v in outs], dtype=np.int64)
            ids[idx] = local_ids[choice]
            if op.kind == "rotate":
                codes = np.array([_ROTATION_CODE[l] for l, _ in taken], dtype=np.int8)
                rotation_flips[idx, rot_i] = codes[choice]
            elif op.kind == "excite":
                codes = np.array([_EMISSION_CODE[l] for l, _ in taken], dtype=np.int8)
                emitted = codes[choice]
                if np.vdot(psi, down * psi).real > 1 - 1e-12:
                    # a pure down state never emits in the 'emit' branch
                    emitted = np.where(emitted == 1, 0, emitted)
                emission_results[idx, exc_i] = emitted
                wrong = np.array([l == "wrong" for l, _ in taken])
                extra = np.array([f and l != "wrong" for l, f in taken])
                wrong_clicks[idx, exc_i] = wrong[choice]
                extra_clicks[idx, exc_i] = extra[choice]
        rot_i += op.kind == "rotate"
        exc_i += op.kind == "excite"
    return TrajectoryResult(layout, seq, reps, table.states, ids, rotation_flips,
                            emission_results, wrong_clicks, extra_clicks,
                            blink_off, excite_ops)


# ---------------------------------------------------------------------------
# calibration helpers
# ---------------------------------------------------------------------------


def rabi_population(angle: float, noise: NoiseParams) -> float:
    """Exact up population after one rotation of given pulse area on the pumped state."""
    psi = np.zeros(2, dtype=np.complex128)
    psi[SPIN_DOWN] = 1.0
    pop = 0.0
    for _, k in rotation_kraus("y", angle, noise):
        phi = k @ psi
        pop += abs(phi[SPIN_UP]) ** 2
    return float(pop)


def rabi_curve(angles: np.ndarray, noise: NoiseParams) -> np.ndarray:
    return np.array([rabi_population(a, noise) for a in np.asarray(angles, float)])
