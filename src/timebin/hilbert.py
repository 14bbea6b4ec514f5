"""Dense complex linear algebra over spin x time-bin-slot registers.

Basis conventions used by every module in the package:

* register order: spin first, then photon slots in emission order
* spin basis: index 0 = spin-down (pumped ground state), index 1 = spin-up
* slot basis: 0 = vacuum, 1 = early photon, 2 = late photon, and with
  slot_dim = 6 the double-occupancy labels 3 = ee, 4 = el, 5 = ll

Logical qubits (the witness convention) are |0> = spin-up / late photon and
|1> = spin-down / early photon; see :mod:`timebin.witness`.

Everything is dense complex128 with explicit tolerance checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, LayoutError

SPIN_DOWN = 0
SPIN_UP = 1

SLOT_VACUUM = 0
SLOT_EARLY = 1
SLOT_LATE = 2
SLOT_EE = 3
SLOT_EL = 4
SLOT_LL = 5

CHANNEL_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Shape of the composite register: one two-level spin plus photon_slots
    time-bin slots."""

    photon_slots: int
    slot_dim: int = 3

    def __post_init__(self):
        if self.slot_dim not in (3, 6):
            raise LayoutError(f"slot_dim must be 3 or 6, got {self.slot_dim}")
        if self.photon_slots < 0:
            raise LayoutError("photon_slots must be non-negative")

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) + (self.slot_dim,) * self.photon_slots

    @property
    def total_dim(self) -> int:
        return 2 * self.slot_dim**self.photon_slots

    @property
    def n_registers(self) -> int:
        return 1 + self.photon_slots

    def basis_index(self, labels: Sequence[int]) -> int:
        """Flat index of a product basis state given per-register labels."""
        if len(labels) != self.n_registers:
            raise LayoutError("one label per register required")
        idx = 0
        for label, dim in zip(labels, self.dims):
            if not 0 <= label < dim:
                raise LayoutError(f"label {label} out of range for dim {dim}")
            idx = idx * dim + label
        return idx


def _as_vector(amplitudes, dim: int) -> np.ndarray:
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if vec.shape != (dim,):
        raise LayoutError(f"amplitude vector has length {vec.size}, expected {dim}")
    return vec


@dataclass(frozen=True)
class QuditState:
    """Normalized pure state over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _as_vector(self.amplitudes, self.layout.total_dim).copy()
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ContractError(f"state norm {norm} too far from 1 to be a state")
        vec /= norm
        vec.flags.writeable = False
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def basis(cls, layout: RegisterLayout, labels: Sequence[int]) -> "QuditState":
        vec = np.zeros(layout.total_dim, dtype=np.complex128)
        vec[layout.basis_index(labels)] = 1.0
        return cls(layout, vec)

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    layout: RegisterLayout
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        dim = self.layout.total_dim
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise LayoutError(f"matrix shape {mat.shape} does not match dim {dim}")
        mat = mat.copy()
        if self.validate:
            if np.max(np.abs(mat - mat.conj().T)) > 1e-9:
                raise ContractError("density matrix is not Hermitian")
            if abs(np.trace(mat).real - 1.0) > 1e-9:
                raise ContractError(f"trace {np.trace(mat)} is not 1")
            if np.min(np.linalg.eigvalsh(mat)) < -PSD_TOL:
                raise ContractError("density matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class LinearOperator:
    """Labeled square operator on a register layout."""

    layout: RegisterLayout
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        dim = self.layout.total_dim
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise LayoutError(f"operator shape {mat.shape} does not match layout dim {dim}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def is_hermitian(self, tol: float = CHANNEL_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) < tol)


def _require_same_layout(a: RegisterLayout, b: RegisterLayout) -> None:
    if a != b:
        raise LayoutError(f"layouts differ: {a} vs {b}")


def tensor_embed(op: np.ndarray | LinearOperator, target: int, layout: RegisterLayout,
                 label: str = "") -> LinearOperator:
    """Embed a single-register operator as op (x) identity on all other registers."""
    mat = op.matrix if isinstance(op, LinearOperator) else np.asarray(op, dtype=np.complex128)
    dims = layout.dims
    if not 0 <= target < layout.n_registers:
        raise LayoutError(f"register index {target} out of range")
    if mat.shape != (dims[target], dims[target]):
        raise LayoutError(
            f"operator dim {mat.shape} does not match register {target} dim {dims[target]}")
    full = np.eye(1, dtype=np.complex128)
    for i, d in enumerate(dims):
        full = np.kron(full, mat if i == target else np.eye(d, dtype=np.complex128))
    if not label and isinstance(op, LinearOperator):
        label = f"{op.label}@{target}"
    return LinearOperator(layout, full, label)


def expectation(state: QuditState | DensityOperator, op: LinearOperator) -> float:
    """<psi|O|psi> or Tr(rho O) for a Hermitian operator."""
    _require_same_layout(state.layout, op.layout)
    if not op.is_hermitian():
        raise ContractError(f"operator {op.label!r} is not Hermitian")
    if isinstance(state, QuditState):
        val = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    else:
        val = complex(np.trace(op.matrix @ state.matrix))
    if abs(val.imag) > 1e-9:
        raise ContractError(f"expectation has imaginary residue {val.imag}")
    return val.real


def direct_fidelity(rho: DensityOperator, target: QuditState) -> float:
    """<target|rho|target>; the exact oracle the witness decomposition is tested against."""
    _require_same_layout(rho.layout, target.layout)
    val = np.vdot(target.amplitudes, rho.matrix @ target.amplitudes).real
    return float(val)


# Pauli matrices in the package spin ordering (index 0 = down, 1 = up).
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
