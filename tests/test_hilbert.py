import math

import numpy as np
import pytest

from timebin.coincidence import WindowConfig
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.detection import DetectionModel
from timebin.emitter import (NoiseParams, PulseOp, build_bell_sequence,
                             ideal_emitter, ideal_noise, run_sequence_exact,
                             run_sequence_trajectory)
from timebin.errors import ContractError, LayoutError
from timebin.experiments import witness_trajectory
from timebin.hilbert import (SIGMA_Z, SLOT_EARLY, SLOT_LATE, SPIN_DOWN,
                             SPIN_UP, DensityOperator, LinearOperator,
                             QuditState, RegisterLayout, direct_fidelity,
                             expectation, tensor_embed)
from timebin.interferometer import TBIParams

from test_emitter import exact_rho, rotate, short_sequence

LAYOUT = RegisterLayout(photon_slots=1, slot_dim=3)


def bell_state(layout=LAYOUT, phi_e=0.0):
    """(e^{i phi} |up,l> - |down,e>)/sqrt(2), built by hand."""
    vec = np.zeros(layout.total_dim, dtype=np.complex128)
    vec[layout.basis_index([SPIN_UP, SLOT_LATE])] = np.exp(1j * phi_e) / np.sqrt(2)
    vec[layout.basis_index([SPIN_DOWN, SLOT_EARLY])] = -1 / np.sqrt(2)
    return QuditState(layout, vec)


class TestLayout:
    def test_dims(self):
        lay = RegisterLayout(photon_slots=2, slot_dim=6)
        assert lay.total_dim == 2 * 36
        assert lay.dims == (2, 6, 6)

    def test_invalid_slot_dim(self):
        with pytest.raises(LayoutError):
            RegisterLayout(photon_slots=1, slot_dim=4)

    def test_basis_index_roundtrip(self):
        lay = RegisterLayout(photon_slots=2, slot_dim=3)
        seen = set()
        for s in range(2):
            for a in range(3):
                for b in range(3):
                    seen.add(lay.basis_index([s, a, b]))
        assert seen == set(range(lay.total_dim))


class TestTensorEmbed:
    def test_sigma_z_padding(self):
        # sigma_z on the spin of a (2, 3) register is diag(+1 x3, -1 x3)
        op = tensor_embed(SIGMA_Z, 0, LAYOUT)
        assert np.allclose(np.diag(op.matrix), [1, 1, 1, -1, -1, -1])

    def test_identity_any_register(self):
        op = tensor_embed(np.eye(3), 1, LAYOUT)
        assert np.allclose(op.matrix, np.eye(6))

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            tensor_embed(np.eye(3), 0, LAYOUT)

    def test_sigma_x_pair_on_bell(self):
        # independent 6x6 oracle: build sx(s) (x) sx(p) by explicit kron of
        # hand-written matrices in the logical subspace and apply it directly
        sx_spin = np.zeros((2, 2), complex)
        sx_spin[SPIN_UP, SPIN_DOWN] = sx_spin[SPIN_DOWN, SPIN_UP] = 1.0
        sx_phot = np.zeros((3, 3), complex)
        sx_phot[SLOT_LATE, SLOT_EARLY] = sx_phot[SLOT_EARLY, SLOT_LATE] = 1.0
        oracle = np.kron(sx_spin, sx_phot)
        psi = bell_state().amplitudes
        assert np.vdot(psi, oracle @ psi).real == pytest.approx(-1.0, abs=1e-12)
        # and the same operator through tensor_embed composition
        built = tensor_embed(sx_spin, 0, LAYOUT).matrix @ tensor_embed(sx_phot, 1, LAYOUT).matrix
        assert np.allclose(built, oracle)


class TestExpectation:
    def test_bell_pz(self):
        psi = bell_state()
        pz = np.zeros((6, 6), complex)
        pz[LAYOUT.basis_index([SPIN_UP, SLOT_LATE]),
           LAYOUT.basis_index([SPIN_UP, SLOT_LATE])] = 1.0
        pz[LAYOUT.basis_index([SPIN_DOWN, SLOT_EARLY]),
           LAYOUT.basis_index([SPIN_DOWN, SLOT_EARLY])] = 1.0
        assert expectation(psi, LinearOperator(LAYOUT, pz)) == pytest.approx(1.0)

    def test_bell_mx_my(self):
        # brute-force matrix oracle for the logical-pair Pauli products
        from timebin.witness import equatorial_operator
        psi = bell_state(phi_e=0.0)
        my = equatorial_operator(np.pi / 2, LAYOUT)
        mx = equatorial_operator(np.pi, LAYOUT)
        assert expectation(psi, mx) == pytest.approx(-1.0, abs=1e-12)
        assert expectation(psi, my) == pytest.approx(+1.0, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        from timebin.witness import equatorial_operator
        rho = DensityOperator(LAYOUT, np.eye(6) / 6)
        assert expectation(rho, equatorial_operator(np.pi, LAYOUT)) == pytest.approx(0.0)

    def test_non_hermitian_rejected(self):
        mat = np.zeros((6, 6), complex)
        mat[0, 1] = 1.0
        with pytest.raises(ContractError):
            expectation(bell_state(), LinearOperator(LAYOUT, mat))


SPIN_ONLY = RegisterLayout(photon_slots=0)


def exact_spin_rho(noise, *steps):
    """Spin density matrix the exact engine leaves before readout."""
    return exact_rho(ideal_emitter(), noise, *steps, layout=SPIN_ONLY)


def spin_model(noise, layout=SPIN_ONLY):
    return DetectionModel(layout, TBIParams(), 0.0, noise, WindowConfig())


class TestApplyChannel:
    """Kraus channels applied to the spin by the exact engine."""

    def test_identity(self):
        # a wait without dephasing is the identity channel
        noise = NoiseParams(f_pi=0.9, p_wait_dephasing=0.0)
        with_wait = exact_spin_rho(noise, PulseOp("pump"), rotate(0.7),
                                   PulseOp("wait", duration=7.0))
        without = exact_spin_rho(noise, PulseOp("pump"), rotate(0.7))
        assert np.allclose(with_wait, without, atol=1e-14)

    def test_full_spin_flip(self):
        rho = exact_spin_rho(ideal_noise(), PulseOp("pump"), rotate(math.pi))
        assert rho[SPIN_UP, SPIN_UP].real == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_flip_half(self):
        # hand-computed: a 2 pi rotation is -1 up to a flip of probability
        # (1 - f_pi) * 2 = 0.5, which leaves diag(0.5, 0.5) on the spin
        noise = NoiseParams(f_pi=0.75, rot_dephasing_ratio=0.0, p_init_error=0.0)
        rho = exact_spin_rho(noise, PulseOp("pump"), rotate(2 * math.pi))
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserved(self):
        noise = NoiseParams(f_pi=0.85, p_init_error=0.02, p_wait_dephasing=0.3)
        rho = exact_spin_rho(noise, PulseOp("pump"), rotate(0.7),
                             PulseOp("wait", duration=7.0),
                             PulseOp("rotate", axis="x", angle=math.pi / 2))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        DensityOperator(SPIN_ONLY, rho)  # Hermitian and positive


class TestSampleProjective:
    """Born-rule spin readout and click sampling of the detection model."""

    def test_deterministic_eigenstate(self):
        seq = short_sequence(PulseOp("pump"), rotate(math.pi))
        traj = run_sequence_trajectory(seq, ideal_emitter(), ideal_noise(), 1,
                                       np.arange(2000, dtype=np.uint64))
        clicks = spin_model(ideal_noise(), traj.layout).sample_run(traj, 1)
        assert np.all(clicks.spins == SPIN_UP)
        assert np.all(clicks.readout_clicks)

    def test_plus_state_frequencies(self):
        # after R(pi/2) on the pumped spin the readout marginals are exactly 1/2
        seq = short_sequence(PulseOp("pump"), rotate(math.pi / 2))
        exact = run_sequence_exact(seq, ideal_emitter(), ideal_noise())
        model = spin_model(ideal_noise(), exact.layout)
        marginal = {SPIN_DOWN: 0.0, SPIN_UP: 0.0}
        dist = model.distribution(exact.density().matrix)
        for spin, p in zip(dist.label.tolist(), dist.probs.tolist()):
            marginal[spin] += p
        assert marginal[SPIN_DOWN] == pytest.approx(0.5, abs=1e-12)
        assert marginal[SPIN_UP] == pytest.approx(0.5, abs=1e-12)

    def test_bell_zz_outcomes(self):
        # an ideal Bell run heralds only (up, l) and (down, e) in ZZ
        n_reps = 8000
        run = witness_trajectory(2, ideal_emitter(), ideal_noise(),
                                 TBIParams(classical_visibility=1.0), n_reps, 3)
        zz = run.outcome.counts["ZZ"]
        seen = {k for k, v in zz.counts.items() if v > 0}
        assert seen == {(+1, (+1,)), (-1, (-1,))}
        sigma = math.sqrt(0.25 / zz.total)
        for p in zz.probabilities().values():
            assert abs(p - 0.5) < 3 * sigma

    def test_seed_reproducibility(self):
        params, noise = paper_emitter(), paper_noise()
        seq = build_bell_sequence().with_readout_rotation("y", math.pi / 2)
        traj = run_sequence_trajectory(seq, params, noise, 42,
                                       np.arange(5000, dtype=np.uint64))
        model = DetectionModel(traj.layout, paper_tbi(), 0.0, noise, WindowConfig())
        a, b = model.sample_run(traj, 42), model.sample_run(traj, 42)
        assert np.array_equal(a.pattern_catalog, b.pattern_catalog)
        for name in ("spins", "readout_signal", "readout_leak", "signal",
                     "flagged", "background"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestDirectFidelity:
    def test_pure_match(self):
        psi = bell_state()
        assert direct_fidelity(psi.to_density(), psi) == pytest.approx(1.0)

    def test_maximally_mixed_logical(self):
        # dim-4 logical subspace of the (2,3) register
        mat = np.zeros((6, 6), complex)
        for s in (SPIN_DOWN, SPIN_UP):
            for p in (SLOT_EARLY, SLOT_LATE):
                i = LAYOUT.basis_index([s, p])
                mat[i, i] = 0.25
        rho = DensityOperator(LAYOUT, mat)
        assert direct_fidelity(rho, bell_state()) == pytest.approx(0.25)


class TestTrajectoryExactEquivalence:
    def test_channel_unraveling_tvd(self):
        # pump, noisy rotation and a dephasing wait: the exact engine gives
        # the hand-computed spin state, and the readout frequencies of 1e6
        # sampled trajectories match its populations
        p, theta, d = 0.02, 0.7, 0.1
        noise = NoiseParams(f_pi=0.85, p_init_error=p, p_wait_dephasing=d)
        eps, delta = noise.flip_probability(theta), noise.dephasing_probability(theta)
        steps = (PulseOp("pump"), rotate(theta), PulseOp("wait", duration=7.0))
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        p_up = (1 - eps) * ((1 - p) * s**2 + p * c**2) + eps * ((1 - p) * c**2 + p * s**2)
        coherence = (1 - 2 * delta) * (1 - 2 * d) * (1 - 2 * p) * c * s
        expected = np.array([[1 - p_up, coherence], [coherence, p_up]])
        assert np.allclose(exact_spin_rho(noise, *steps), expected, atol=1e-12)

        n = 1_000_000
        traj = run_sequence_trajectory(short_sequence(*steps), ideal_emitter(), noise,
                                       13, np.arange(n, dtype=np.uint64), SPIN_ONLY)
        clicks = spin_model(noise).sample_run(traj, 13)
        emp = np.bincount(clicks.spins, minlength=2) / n
        tvd = 0.5 * np.sum(np.abs(emp - np.array([1 - p_up, p_up])))
        assert tvd < 5e-3


def test_state_normalization_guard():
    with pytest.raises(ContractError):
        QuditState(LAYOUT, np.ones(6))


def test_rotation_unitarity():
    from timebin.emitter import rotation_unitary
    for axis in ("x", "y", 0.3, 1.2):
        for angle in (0.1, np.pi / 2, np.pi, 2 * np.pi):
            u = rotation_unitary(axis, angle)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
