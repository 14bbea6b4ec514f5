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
(step_branches).  Every branch is a local factor on the spin and the
step's photon slot: 2 x 2 for pump, rotate and wait steps (the case of slot
dimension 1) and (2 slot_dim) x (2 slot_dim) for excite steps.  A factor
acts on a ket with its spin and slot axes moved together (apply_branch)
and on a density operator through the (spin, slot) ket-bra blocks
(conjugate_branches; exact mode builds each step's superoperator once), so
no step builds a full-register matrix.  Exact mode
propagates density operators through the branches and returns the
pre-detection mixture, opening a classically flagged component for each
flagged branch.  Trajectory mode samples one branch per repetition with
counter-based randomness, so a repetition's record is reproducible
regardless of how the run is chunked.  A blinked-off component or
repetition skips the excite steps.  Given a detection model, trajectory
mode also detects each photon slot as it is emitted, as one more step of
Kraus branches right after the slot's last excite step, and projects the
spin at the readout: the pure-state unravelling of continuous detection
(Dalibard, Castin & Molmer, PRL 68, 580 (1992)) applied to sequential
photon emission (Schon et al., PRL 95, 110503 (2005)).  Nothing acts on a
slot after its last excite step, so its detection commutes with every
later step.

The two engines share a witness's generation sequence differently.  Exact
mode evolves the generation once: a sub-run's wait and readout rotation
act on the spin alone, so they commute with the detection and are read as
one 4 x 4 spin map (`tail_map`) on the generation's contracted spin blocks.
Trajectory mode samples every sub-run's whole sequence on one
`TrajectoryTables`, which holds one branch table per pulse operation and
per (detection model, slot), so each state is evolved through each
operation once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from . import rng as crng
from .errors import ConfigurationError, ContractError
from .hilbert import (SIGMA_X, SIGMA_Y, SIGMA_Z, SLOT_EARLY, SLOT_EE, SLOT_EL,
                      SLOT_LATE, SLOT_LL, SLOT_VACUUM, SPIN_DOWN, SPIN_UP,
                      DensityOperator, RegisterLayout)

TWO_PI = 2.0 * math.pi


def finite_number(value) -> bool:
    """Whether value is a finite int or float (a bool is not a number here)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# what a field of each declared type takes (a field of any other type is
# checked by its class)
_FIELD_TYPES = {
    "float": ("a finite number", finite_number),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_fields(section: str, cls, values: dict) -> None:
    """Raise ConfigurationError naming `section.key` for a key that is not
    a field of the dataclass cls or a value that is not of its field's
    declared type.  The parameter dataclasses run it on their own fields
    before their range checks, which would meet a wrong type as a TypeError
    or pass it (True as 1.0)."""
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        if key not in declared:
            raise ConfigurationError(f"unknown key {section}.{key}")
        kind, accepts = _FIELD_TYPES.get(declared[key], (None, None))
        if accepts and not accepts(value):
            raise ConfigurationError(f"{section}.{key} must be {kind}, not {value!r}")


@dataclass(frozen=True)
class EmitterParams:
    """Decay rates of the emitter and the timings that place its detection
    windows.  Pulses have no duration: the pi pulse and the spin rotations act
    only through the calibrated probabilities of `NoiseParams` (f_pi, ...)."""

    gamma_y: float = 2.54 * 14.7 / 15.7   # spin-preserving decay rate (1/ns)
    gamma_x: float = 2.54 / 15.7          # spin-flipping decay rate (1/ns)
    t_inf: float = 11.8                   # time-bin separation / long arm delay (ns)
    photon_spacing_ns: float = 28.0       # emission block spacing for extra photons (ns)
    repetition_rate_mhz: float = 1.65

    def __post_init__(self):
        for name in ("t_inf", "photon_spacing_ns", "repetition_rate_mhz"):
            v = getattr(self, name)
            if not (finite_number(v) and v > 0):
                raise ConfigurationError(f"{name}={v!r} must be finite and positive")
        check_fields("emitter", EmitterParams, vars(self))
        if not (self.gamma_y > 0 and self.gamma_x >= 0):
            raise ConfigurationError(
                f"decay rates gamma_y={self.gamma_y!r}, gamma_x={self.gamma_x!r} must "
                "be positive (gamma_x may be 0)")
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
        check_fields("noise", NoiseParams, vars(self))
        for name in ("p_init_error", "p_wrong_transition", "p_double", "eta_total",
                     "eta_readout", "readout_fidelity", "readout_dark",
                     "indistinguishability", "blink_on_fraction", "p_wait_dephasing"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name}={v} outside [0, 1]")
        if not 0.5 < self.f_pi <= 1.0:
            raise ConfigurationError(f"f_pi={self.f_pi} outside (0.5, 1]")
        for name in ("p_leak", "rot_dephasing_ratio", "blink_block_len"):
            if (v := getattr(self, name)) < 0:
                raise ConfigurationError(f"{name}={v} must not be negative")

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

    kind: pump | rotate | excite | wait | readout.  Rotations carry an axis
    (either 'x'/'y' or an equatorial azimuth in radians) and an angle;
    excitations carry the slot index, bin ('early'/'late') and a finite
    optical phase.  duration is a wait's idle length in ns, which scales its
    dephasing (`wait_kraus`); no other kind has one.
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
        if self.kind == "excite":
            if self.bin not in ("early", "late"):
                raise ContractError(f"unknown time bin {self.bin!r}")
            if not finite_number(self.phase):
                raise ContractError(f"excitation phase {self.phase!r} is not finite")
        if self.kind == "wait":
            if not (finite_number(self.duration) and self.duration >= 0):
                raise ContractError(f"wait duration {self.duration!r} must be finite "
                                    "and non-negative")
        elif self.duration != 0:
            raise ContractError(f"a {self.kind} step has no duration")


@dataclass(frozen=True)
class PulseSequence:
    """The steps of one repetition, ending with its one readout."""

    steps: tuple[PulseOp, ...]

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

    @property
    def tail_start(self) -> int:
        """Index of the first step of the tail, the steps after the last
        excite step and before the readout; they act on the spin alone."""
        excites = [i for i, s in enumerate(self.steps) if s.kind == "excite"]
        return excites[-1] + 1 if excites else 0

    def with_readout_rotation(self, axis, angle: float) -> "PulseSequence":
        """Insert the basis-selection rotation R_i just before readout.

        A wait step precedes R_i: the interval between the last emission and
        the basis rotation is the only unechoed idle time of the protocol,
        so residual spin dephasing is attached here.
        """
        wait = PulseOp("wait", duration=WAIT_REFERENCE_NS)
        rot = PulseOp("rotate", axis=axis, angle=angle)
        return PulseSequence(self.steps[:-1] + (wait, rot) + self.steps[-1:])


def build_bell_sequence() -> PulseSequence:
    """Pump, half rotation, early excitation, pi swap, late excitation, readout.

    Both pulses have phase 0; the readout rotation R_i is inserted per
    measurement setting.
    """
    steps = (
        PulseOp("pump"),
        PulseOp("rotate", axis="y", angle=math.pi / 2),
        PulseOp("excite", slot=0, bin="early"),
        PulseOp("rotate", axis="y", angle=math.pi),
        PulseOp("excite", slot=0, bin="late"),
        PulseOp("readout"),
    )
    return PulseSequence(steps)


def build_ghz_sequence(n_photons: int) -> PulseSequence:
    """Bell sequence extended by one (pi swap, excitation pair) block per photon."""
    if n_photons < 2:
        raise ContractError("GHZ generation requires at least 2 photons")
    steps = [PulseOp("pump"), PulseOp("rotate", axis="y", angle=math.pi / 2)]
    for slot in range(n_photons):
        if slot > 0:
            # each further emission block adds two unechoed idle segments
            # (trailing the previous block and leading this one)
            steps.append(PulseOp("wait", duration=2 * WAIT_REFERENCE_NS))
            steps.append(PulseOp("rotate", axis="y", angle=math.pi))
        steps.append(PulseOp("excite", slot=slot, bin="early"))
        steps.append(PulseOp("rotate", axis="y", angle=math.pi))
        steps.append(PulseOp("excite", slot=slot, bin="late"))
    steps.append(PulseOp("readout"))
    return PulseSequence(tuple(steps))


def build_hom_sequence() -> PulseSequence:
    """Prepare up, then emit two separable photons into the early and late bins."""
    steps = (
        PulseOp("pump"),
        PulseOp("rotate", axis="y", angle=math.pi),
        PulseOp("excite", slot=0, bin="early"),
        PulseOp("excite", slot=0, bin="late"),
        PulseOp("readout"),
    )
    return PulseSequence(steps)


def sequence_layout(seq: PulseSequence, noise: NoiseParams) -> RegisterLayout:
    """Smallest register that can hold the sequence output under this noise:
    a slot holds two photons if a rotation flip can leave the spin up with a
    photon in the bin (f_pi < 1) or if it is excited twice with no rotation
    between (hom)."""
    excited, refilled = set(), False
    for step in seq.steps:
        if step.kind == "rotate":
            excited.clear()
        elif step.kind == "excite":
            refilled |= step.slot in excited
            excited.add(step.slot)
    slot_dim = 6 if (noise.needs_double_slots or refilled) else 3
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


def excite_kraus(bin_label: str, phase: float, params: EmitterParams,
                 noise: NoiseParams, slot_dim: int) -> list[tuple[str, np.ndarray, bool]]:
    """Branches of one excitation pulse: (label, K, extra), K a factor on the
    spin and the driven slot (spin index major).

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
    emit_op = np.kron(spin_up, add1 @ proj_single)

    branches = [("emit",
                 np.kron(spin_down, np.eye(slot_dim))
                 + math.sqrt(p_keep * (1.0 - p_d)) * phase_f * emit_op,
                 False)]
    if p_d > 0:
        branches.append(("emit_double",
                         math.sqrt(p_keep * p_d) * phase_f * emit_op, True))
    if slot_dim == 6:
        proj_double = _slot_projector((SLOT_EE, SLOT_EL, SLOT_LL), slot_dim)
        if p_keep > 0:
            branches.append(("sat_emit", math.sqrt(p_keep)
                             * np.kron(spin_up, proj_double), True))
        if p_keep < 1.0:
            branches.append(("sat_jump", math.sqrt(1.0 - p_keep)
                             * np.kron(spin_flip, proj_double), False))
    if p_keep < 1.0:
        branches.append(("jump", math.sqrt(1.0 - p_keep)
                         * np.kron(spin_flip, proj_single), False))
    return branches


# every branch label of step_branches; a label's index is its code in
# TrajectoryResult.branches, and 'skipped' marks a blinked-off excite step
BRANCH_LABELS = ("skipped", "reset[down<-down]", "reset[down<-up]", "reset[up<-down]",
                 "reset[up<-up]", "ideal", "flip", "dephase", "idle", "wrong", "emit",
                 "emit_double", "sat_emit", "sat_jump", "jump")
BRANCH_CODES = {label: code for code, label in enumerate(BRANCH_LABELS)}
# the flagged excite branches other than 'wrong': their photon is a
# re-excitation or saturated-bin click
EXTRA_PHOTON_BRANCHES = ("emit_double", "sat_emit")


def step_branches(op: PulseOp, params: EmitterParams, noise: NoiseParams,
                  layout: RegisterLayout) -> list[tuple[str, np.ndarray, bool]]:
    """Kraus branches (label, K, flagged) of one non-readout step.

    K is a factor on the spin and the step's slot, spin index major: 2 x 2
    for pump, rotate and wait steps, (2 slot_dim) x (2 slot_dim) for excite
    steps; `apply_branch` and `conjugate_branches` apply it.  A flagged
    branch carries a classical click in the driven bin of an excite step.
    The excite list starts with the detuned-transition scatter of the down
    component ('wrong', probability p_wrong_transition times the down
    population); every excite_kraus branch follows the no-scatter operator,
    whose diagonal scales its columns.  Both engines consume this one list:
    exact mode sums K rho K^dagger, trajectory mode samples one branch per
    repetition.
    """
    if op.kind == "excite":
        branches = excite_kraus(op.bin, op.phase, params, noise, layout.slot_dim)
        p_w = noise.p_wrong_transition
        if p_w == 0:
            return branches
        down = (np.arange(2 * layout.slot_dim) // layout.slot_dim == SPIN_DOWN).astype(float)
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


def _factor_view(f: int, dim: int, slot: int) -> tuple[int, int, int, int]:
    """(2, before, f, after): the shape that views a register vector of
    length dim so that a (2 f) x (2 f) factor on the spin and slot acts on
    axes 0 and 2.  A spin factor (f = 1) acts on the leading axis alone."""
    before = f ** slot
    return 2, before, f, dim // (2 * before * f)


def apply_branch(k: np.ndarray, psi: np.ndarray, slot: int) -> np.ndarray:
    """K psi for a step_branches factor k of a step on slot: the spin and
    slot axes of psi move together and k multiplies them."""
    _, a, f, b = shape = _factor_view(len(k) // 2, len(psi), slot)
    local = psi.reshape(shape).transpose(0, 2, 1, 3).reshape(2 * f, a * b)
    return (k @ local).reshape(2, f, a, b).transpose(0, 2, 1, 3).ravel()


def conjugate_branches(ks: Sequence[np.ndarray], rho: np.ndarray, slot: int) -> np.ndarray:
    """Sum of K rho K^dagger over step_branches factors ks of one step on slot."""
    return _conjugate(_superoperator(ks), rho, slot)


def _superoperator(ks: Sequence[np.ndarray]) -> np.ndarray:
    """S = sum_K K (x) conj(K) over step_branches factors ks of one step, the
    map `_conjugate` applies; exact mode builds it once per step."""
    return sum(np.kron(k, k.conj()) for k in ks)


def _conjugate(s: np.ndarray, rho: np.ndarray, slot: int) -> np.ndarray:
    """S applied to rho on the spin and slot.

    The (spin, slot) axes of both sides of rho move to the front, so rho is
    a (2 f)^2 x r^2 array of ket-bra blocks over the r untouched register
    states, and all factors act at once: output block (i, i') is
    sum_jj' S[(i, i'), (j, j')] rho_jj'.
    """
    n = len(rho)
    _, a, f, b = shape = _factor_view(math.isqrt(len(s)) // 2, n, slot)
    blocks = (rho.reshape(shape + shape).transpose(0, 2, 4, 6, 1, 3, 5, 7)
              .reshape(4 * f * f, (a * b) ** 2))
    out = s @ blocks
    return out.reshape(2, f, 2, f, a, b, a, b).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(n, n)


def tail_map(seq: PulseSequence, params: EmitterParams, noise: NoiseParams,
             layout: RegisterLayout) -> np.ndarray:
    """The channel of seq's spin-only tail (`PulseSequence.tail_start`) on a
    spin block's flattened (ket, bra) entries: the product, last step
    first, of each tail step's `_superoperator`."""
    s = np.eye(4, dtype=np.complex128)
    for op in seq.steps[seq.tail_start:-1]:
        s = _superoperator([k for _, k, _ in step_branches(op, params, noise, layout)]) @ s
    return s


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


def _initial_vector(layout: RegisterLayout) -> np.ndarray:
    psi = np.zeros(layout.total_dim, dtype=np.complex128)
    psi[layout.basis_index([SPIN_DOWN] + [SLOT_VACUUM] * layout.photon_slots)] = 1.0
    return psi


def run_sequence_exact(seq: PulseSequence, params: EmitterParams, noise: NoiseParams,
                       layout: RegisterLayout | None = None) -> ExactResult:
    """Propagate the exact pre-detection mixture through the sequence."""
    if layout is None:
        layout = sequence_layout(seq, noise)
    psi0 = _initial_vector(layout)
    rho0 = np.outer(psi0, psi0.conj())
    comps = [ExactComponent(1.0, rho0)]
    if noise.blink_block_len > 0 and noise.blink_on_fraction < 1.0:
        comps = [ExactComponent(noise.blink_on_fraction, rho0),
                 ExactComponent(1.0 - noise.blink_on_fraction, rho0, blink_off=True)]

    for op in seq.steps[:-1]:
        branches = step_branches(op, params, noise, layout)
        plain_map = _superoperator([k for _, k, flagged in branches if not flagged])
        flag_maps = [_superoperator([k]) for _, k, flagged in branches if flagged]
        new_comps: list[ExactComponent] = []
        for comp in comps:
            if op.kind == "excite" and comp.blink_off:
                new_comps.append(comp)
                continue
            plain = _conjugate(plain_map, comp.rho, op.slot)
            kept = 0.0
            for flag_map in flag_maps:
                out = _conjugate(flag_map, comp.rho, op.slot)
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

@dataclass
class TrajectoryResult:
    """Per-repetition branch outcomes of a trajectory run.

    state_ids maps each repetition to an entry of state_table (the pure
    pre-detection state conditioned on that repetition's sampled noise
    branches).  branches holds one row per repetition and one column per
    step before the readout: the code of the branch the repetition took
    there, its label BRANCH_LABELS[code] ('skipped' for an excite step of a
    blinked-off repetition).

    A run detected as it goes (`run_sequence_trajectory`'s detection) also
    records entries, each repetition's alphabet entry per photon slot, and
    spins, its spin at the readout; its states are then those after the
    readout.  Otherwise detection, entries and spins are None.
    """

    layout: RegisterLayout
    sequence: PulseSequence
    rep_indices: np.ndarray
    state_table: list[np.ndarray]
    state_ids: np.ndarray
    branches: np.ndarray         # int8 (n_reps, n_steps)
    blink_off: np.ndarray
    detection: object = None
    entries: np.ndarray | None = None     # int8 (n_reps, photon slots)
    spins: np.ndarray | None = None       # int8 (n_reps,)

    def took(self, step: int, *labels: str) -> np.ndarray:
        """Mask of the repetitions whose branch at step is one of labels."""
        column = self.branches[:, step]
        mask = np.zeros(column.size, dtype=bool)
        for label in labels:
            mask |= column == BRANCH_CODES[label]
        return mask


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


class _StepTable:
    """One step's Kraus branches, (code, factor) pairs, and, per state id,
    the normalised CDF of the branches the state keeps, padded with 2 (above
    every draw), and the state id and code each leads to."""

    def __init__(self, branches):
        self.codes = np.array([code for code, _ in branches], dtype=np.int8)
        self.factors = [k for _, k in branches]
        width = len(branches)
        self.cum = np.full((0, width), 2.0)
        self.next_ids = np.zeros((0, width), dtype=np.int64)
        self.next_codes = np.zeros((0, width), dtype=np.int8)
        self.known = np.zeros(0, dtype=bool)
        # the most branches a known state keeps
        self.widest = 0

    def fill(self, table: _StateTable, occupied: np.ndarray, slot: int) -> None:
        """Evolve the occupied states not yet known, in ascending id order."""
        counts = np.bincount(occupied, minlength=self.known.size)
        grow = counts.size - self.known.size
        if grow:
            width = len(self.factors)
            self.cum = np.concatenate([self.cum, np.full((grow, width), 2.0)])
            self.next_ids = np.concatenate([self.next_ids, np.zeros((grow, width), np.int64)])
            self.next_codes = np.concatenate([self.next_codes,
                                              np.zeros((grow, width), np.int8)])
            self.known = np.concatenate([self.known, np.zeros(grow, bool)])
        for sid in np.flatnonzero((counts > 0) & ~self.known).tolist():
            psi = table.states[sid]
            outs, probs, taken = [], [], []
            for b, k in enumerate(self.factors):
                phi = apply_branch(k, psi, slot)
                p = float(np.vdot(phi, phi).real)
                if p > 1e-14:
                    outs.append(phi / math.sqrt(p))
                    probs.append(p)
                    taken.append(b)
            _check_overflow(1.0 - sum(probs))
            kept = len(probs)
            self.widest = max(self.widest, kept)
            self.cum[sid, :kept] = crng.cdf(probs)
            self.next_ids[sid, :kept] = [table.add(v) for v in outs]
            self.next_codes[sid, :kept] = self.codes[taken]
            self.known[sid] = True


# the readout step's branches: the spin's projectors, coded by the spin
_READOUT_BRANCHES = [(spin, _spin_matrix({(spin, spin): 1.0})) for spin in (SPIN_DOWN, SPIN_UP)]


class TrajectoryTables:
    """What `run_sequence_trajectory` learns of a run's states, kept across
    its calls: the state table and one branch table per pulse operation,
    and per (detection model, photon slot) when the run is detected as it
    goes.  A branch table depends only on its key and the params, noise and
    layout, which the first call records and every later call must repeat.
    Passed to every call of a run, on each block of its repetitions and
    each sequence (a witness's sub-runs share their generation steps), the
    tables evolve each state through each operation once per run."""

    def __init__(self):
        self.states = _StateTable()
        self.steps: dict[object, _StepTable] = {}
        self.inputs: tuple | None = None

    def check(self, params: EmitterParams, noise: NoiseParams,
              layout: RegisterLayout) -> None:
        """Record the first call's inputs; raise ContractError on others,
        whose branches these tables do not hold."""
        inputs = (params, noise, layout)
        if self.inputs is None:
            self.inputs = inputs
        elif inputs != self.inputs:
            raise ContractError("the trajectory tables hold another run's params, "
                                "noise or layout")

    def step(self, key, branches) -> _StepTable:
        """The branch table of key, built from branches() on first use."""
        step = self.steps.get(key)
        if step is None:
            step = self.steps[key] = _StepTable(branches())
        return step


def run_sequence_trajectory(seq: PulseSequence, params: EmitterParams,
                            noise: NoiseParams, master_seed: int,
                            rep_indices: np.ndarray,
                            layout: RegisterLayout | None = None,
                            tables: TrajectoryTables | None = None,
                            detection=None) -> TrajectoryResult:
    """Sample one noise-branch path per repetition.

    Randomness is addressed by (master_seed, repetition index, step), so each
    repetition samples the same branches however the repetitions are split
    across calls.

    Each step evolves every state that repetitions occupy once, in
    ascending id order, and builds one table: per state, the normalised
    CDF of the branches it keeps and the state id and code each leads to.
    A repetition's branch is then one count, of its state's CDF entries at
    or below its draw, and one lookup in that table.  tables, passed again
    with each block of a run's repetitions and each of its sequences, keeps
    the states and the branch tables of the calls before, so only the
    states new to a step's operation are evolved; the result's state_table
    is then the run's table so far.

    detection, if given, detects each photon slot as it is emitted: an
    object with the layout's `layout` and `slot_branches`, the (alphabet
    entry, factor) Kraus branches of one slot's readout on the spin and
    that slot (`detection.DetectionModel`).  A slot is detected right after
    its last excite step, by one more branch table (key (detection, slot),
    draws on stream detection.slot + slot), which nothing after it touches;
    the readout step then projects the spin (`_READOUT_BRANCHES`).  The
    result records each repetition's entries and spin.
    """
    reps = np.asarray(rep_indices, dtype=np.uint64)
    n = reps.size
    if layout is None:
        layout = sequence_layout(seq, noise)
    if tables is None:
        tables = TrajectoryTables()
    tables.check(params, noise, layout)
    if detection is not None and detection.layout != layout:
        raise ContractError("the detection model reads another register layout")
    table = tables.states
    # each step writes every repetition's entry, except the excite steps of
    # blinked-off repetitions, which stay 'skipped'
    record = np.full((n, len(seq.steps) - 1), BRANCH_CODES["skipped"], dtype=np.int8)
    ids = np.full(n, table.add(_initial_vector(layout)), dtype=np.int64)
    if noise.blink_block_len > 0 and noise.blink_on_fraction < 1.0:
        blocks = reps // np.uint64(noise.blink_block_len)
        blink_off = (crng.uniforms(master_seed, blocks, crng.stream("emitter.blink"))
                     >= noise.blink_on_fraction)
    else:
        blink_off = np.zeros(n, dtype=bool)

    def take(step: _StepTable, stream: int, rows, slot: int) -> np.ndarray:
        # each repetition of rows takes a branch of step, the count of its
        # state's CDF entries at or below its draw, the index crng.choose
        # returns (from column widest - 1 on every entry is 1 or 2, above
        # every draw); returns the branches' codes
        u = crng.uniforms(master_seed, reps, stream)[rows]
        occupied = ids[rows]
        step.fill(table, occupied, slot)
        choice = np.zeros(u.size, dtype=np.uint8)
        for column in step.cum.T[:step.widest - 1]:
            choice += column[occupied] <= u
        flat = occupied * len(step.factors)
        flat += choice
        ids[rows] = step.next_ids.ravel()[flat]
        return step.next_codes.ravel()[flat]

    blinking = bool(blink_off.any())
    last_excite = {op.slot: i for i, op in enumerate(seq.steps) if op.kind == "excite"}
    entries = spins = None
    if detection is not None:
        # a slot with no excite step stays at entry 0, the no-click row
        entries = np.zeros((n, layout.photon_slots), dtype=np.int8)
    for step_i, op in enumerate(seq.steps[:-1]):
        step = tables.step(op, lambda: [(BRANCH_CODES[label], k) for label, k, _
                                        in step_branches(op, params, noise, layout)])
        # an excite step skips the blinked-off repetitions
        rows = np.flatnonzero(~blink_off) if op.kind == "excite" and blinking else slice(None)
        record[rows, step_i] = take(step, crng.stream("emitter.step", step_i), rows, op.slot)
        if detection is not None and last_excite.get(op.slot) == step_i:
            step = tables.step((detection, op.slot), lambda: detection.slot_branches)
            entries[:, op.slot] = take(step, crng.stream("detection.slot", op.slot),
                                       slice(None), op.slot)
    if detection is not None:
        step = tables.step(seq.steps[-1], lambda: _READOUT_BRANCHES)
        spins = take(step, crng.stream("emitter.step", len(seq.steps) - 1), slice(None), 0)
    return TrajectoryResult(layout, seq, reps, table.states, ids, record, blink_off,
                            detection, entries, spins)


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
