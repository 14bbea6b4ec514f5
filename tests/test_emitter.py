import dataclasses
import math

import numpy as np
import pytest

from kernel_reference import dense_factor, verify_kraus_complete
from timebin.coincidence import WindowConfig
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.detection import DetectionModel
from timebin.emitter import (BRANCH_LABELS, NoiseParams, PulseOp,
                             PulseSequence, apply_branch, build_bell_sequence,
                             build_ghz_sequence, build_hom_sequence,
                             conjugate_branches, excite_kraus, ideal_emitter,
                             ideal_noise, pump_kraus, rabi_curve,
                             rabi_population, rotation_kraus,
                             run_sequence_exact, run_sequence_trajectory,
                             sequence_layout, step_branches, wait_kraus)
from timebin.errors import ConfigurationError, ContractError
from timebin.hilbert import (SLOT_EARLY, SLOT_EL, SLOT_LATE, SLOT_VACUUM,
                             SPIN_DOWN, SPIN_UP, QuditState, RegisterLayout,
                             direct_fidelity)
from timebin.witness import TargetState

SLOT_LAYOUT = RegisterLayout(photon_slots=1, slot_dim=3)


def short_sequence(*steps):
    return PulseSequence(tuple(steps) + (PulseOp("readout"),), name="short")


def exact_rho(params, noise, *steps, layout=SLOT_LAYOUT):
    """Pre-readout density matrix of a short sequence from the exact engine."""
    return run_sequence_exact(short_sequence(*steps), params, noise,
                              layout).density().matrix


def rotate(angle):
    return PulseOp("rotate", axis="y", angle=angle)


class TestParams:
    def test_paper_cyclicity(self):
        p = paper_emitter()
        assert p.cyclicity == pytest.approx(14.7)
        assert p.gamma0 == pytest.approx(2.54)
        assert p.spin_preserving_probability == pytest.approx(14.7 / 15.7, abs=1e-9)

    def test_ideal_emitter_infinite_cyclitity(self):
        p = ideal_emitter()
        assert math.isinf(p.cyclicity)
        assert p.spin_preserving_probability == 1.0

    def test_bad_probability(self):
        with pytest.raises(ConfigurationError):
            NoiseParams(p_double=1.5)
        with pytest.raises(ConfigurationError):
            NoiseParams(f_pi=0.4)


class TestSequences:
    def test_bell_structure(self):
        seq = build_bell_sequence(paper_emitter())
        kinds = [s.kind for s in seq.steps]
        assert kinds == ["pump", "rotate", "excite", "rotate", "excite", "readout"]
        bins = [(s.slot, s.bin) for s in seq.steps if s.kind == "excite"]
        assert bins == [(0, "early"), (0, "late")]

    def test_readout_must_be_last(self):
        with pytest.raises(ContractError):
            PulseSequence((PulseOp("readout"), PulseOp("pump")))

    def test_distinct_bins(self):
        with pytest.raises(ContractError):
            PulseSequence((PulseOp("excite", slot=0, bin="early"),
                           PulseOp("excite", slot=0, bin="early"),
                           PulseOp("readout")))

    def test_ghz_requires_two_photons(self):
        with pytest.raises(ContractError):
            build_ghz_sequence(1, paper_emitter())


class TestPump:
    def test_exact_reset(self):
        # rotate pi, then pump: the spin is back in down
        rho = exact_rho(ideal_emitter(), NoiseParams(f_pi=1.0, p_init_error=0.0),
                        rotate(math.pi), PulseOp("pump"))
        down_idx = SLOT_LAYOUT.basis_index([SPIN_DOWN, SLOT_VACUUM])
        assert rho[down_idx, down_idx].real == pytest.approx(1.0)

    def test_residual_population(self):
        # p_init_error = 0.01 on |up> leaves diag(0.99, 0.01) on the spin
        rho = exact_rho(ideal_emitter(), NoiseParams(f_pi=1.0, p_init_error=0.01),
                        rotate(math.pi), PulseOp("pump"))
        down_idx = SLOT_LAYOUT.basis_index([SPIN_DOWN, SLOT_VACUUM])
        up_idx = SLOT_LAYOUT.basis_index([SPIN_UP, SLOT_VACUUM])
        assert rho[down_idx, down_idx].real == pytest.approx(0.99)
        assert rho[up_idx, up_idx].real == pytest.approx(0.01)

    def test_init_error_budget(self):
        # at the default p_init_error the Bell infidelity moves by < 1 pp
        from timebin.config import paper_tbi
        from timebin.experiments import witness_exact
        import dataclasses
        noise = paper_noise()
        f_with = witness_exact(2, paper_emitter(), noise, paper_tbi()).fidelity
        f_without = witness_exact(2, paper_emitter(),
                                  dataclasses.replace(noise, p_init_error=0.0),
                                  paper_tbi()).fidelity
        assert abs(f_with - f_without) < 0.01


class TestRotationModel:
    def test_ideal_half_rotation(self):
        rho = exact_rho(ideal_emitter(), ideal_noise(), PulseOp("pump"),
                        rotate(math.pi / 2), layout=RegisterLayout(photon_slots=0))
        # (|down> + |up>)/sqrt(2) up to global phase
        assert rho[0, 0].real == pytest.approx(0.5)
        assert rho[1, 1].real == pytest.approx(0.5)
        assert rho[0, 1].real == pytest.approx(0.5)

    def test_two_pi_rotations_identity(self):
        rho = exact_rho(ideal_emitter(), ideal_noise(), PulseOp("pump"),
                        rotate(math.pi), rotate(math.pi),
                        layout=RegisterLayout(photon_slots=0))
        assert rho[0, 0].real == pytest.approx(1.0)

    def test_unsupported_axis(self):
        with pytest.raises(ContractError):
            rotation_kraus("z", math.pi, ideal_noise())

    def test_pi_population_matches_f_pi(self):
        # the calibration invariant: exact pi-pulse transfer equals f_pi
        for f_pi in (0.885, 0.95, 0.988):
            noise = NoiseParams(f_pi=f_pi)
            assert abs(rabi_population(math.pi, noise) - f_pi) < 1e-6

    def test_rabi_is_damped(self):
        noise = NoiseParams(f_pi=0.885)
        angles = np.linspace(0, 2 * math.pi, 41)
        pops = rabi_curve(angles, noise)
        assert pops[20] == pytest.approx(0.885, abs=1e-9)   # pi point
        # flip probability grows linearly with pulse area: 2(1-f_pi) at 2 pi
        assert pops[-1] == pytest.approx(2 * (1 - 0.885), abs=1e-9)
        assert np.max(pops) < 1.0 - 1e-6

    def test_kraus_completeness(self):
        for angle in (0.2, math.pi / 2, math.pi):
            branches = rotation_kraus("y", angle, NoiseParams(f_pi=0.9))
            assert verify_kraus_complete(branches) < 1e-12
        assert verify_kraus_complete(pump_kraus(0.02)) < 1e-12
        assert verify_kraus_complete(wait_kraus(NoiseParams(p_wait_dephasing=0.2))) < 1e-12


class TestExcitation:
    def test_kraus_completeness_paper_steps(self):
        # every branch is a factor on the spin and the step's slot, complete
        # on its own dimension: 2 x 2 for spin-only steps, 12 x 12 for
        # excite steps, at every step of the paper Bell, GHZ-3 and GHZ-4
        # sub-runs with detuned-transition scatter and re-excitation
        branches = excite_kraus("early", 0.4, paper_emitter(),
                                NoiseParams(f_pi=0.9, p_double=0.02), 6)
        assert verify_kraus_complete(branches) < 1e-12
        params, noise = paper_emitter(), paper_noise()
        assert noise.p_wrong_transition > 0 and noise.p_double > 0
        for seq in (build_bell_sequence(params), build_ghz_sequence(2, params),
                    build_ghz_sequence(3, params)):
            seq = seq.with_readout_rotation("y", math.pi / 2)
            lay = sequence_layout(seq, noise)
            assert lay.slot_dim == 6
            for op in seq.steps[:-1]:
                branches = step_branches(op, params, noise, lay)
                dim = 12 if op.kind == "excite" else 2
                assert all(k.shape == (dim, dim) for _, k, _ in branches), op
                assert {label for label, _, _ in branches} <= set(BRANCH_LABELS), op
                assert verify_kraus_complete(branches) < 1e-12, op

    def test_local_factors_match_dense_embedding(self):
        # each step's local factors applied by moving the spin and slot axes
        # equal their dense full-register embeddings, on a ket, and on a
        # density operator branch by branch and summed over the step
        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), p_wait_dephasing=0.3,
                                    p_wrong_transition=0.05, p_double=0.04)
        lay = RegisterLayout(photon_slots=3, slot_dim=6)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=lay.total_dim) + 1j * rng.normal(size=lay.total_dim)
        rho = np.outer(psi, psi.conj()) + rng.normal(size=(lay.total_dim,) * 2)
        ops = [PulseOp("pump"), PulseOp("wait", duration=14.0), rotate(0.7),
               PulseOp("rotate", axis=0.3, angle=-math.pi / 2)]
        ops += [PulseOp("excite", slot=slot, bin=b, phase=0.6)
                for slot in range(3) for b in ("early", "late")]
        for op in ops:
            branches = step_branches(op, params, noise, lay)
            labels = [label for label, _, _ in branches]
            if op.kind == "excite":
                assert labels == ["wrong", "emit", "emit_double", "sat_emit",
                                  "sat_jump", "jump"]
            assert len(branches) > 1
            ks = [k for _, k, _ in branches]
            full = [dense_factor(k, lay, op.slot) for k in ks]
            for k, f in zip(ks, full):
                assert np.max(np.abs(apply_branch(k, psi, op.slot) - f @ psi)) < 1e-13
                assert np.max(np.abs(conjugate_branches([k], rho, op.slot)
                                     - f @ rho @ f.conj().T)) < 1e-12
            assert np.max(np.abs(conjugate_branches(ks, rho, op.slot)
                                 - sum(f @ rho @ f.conj().T for f in full))) < 1e-12

    def test_exact_blinking_skips_excitation(self):
        # a blinked-off component passes the excite steps untouched; the
        # blinked-on part evolves exactly like a run without blinking
        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), blink_block_len=40,
                                    blink_on_fraction=0.7)
        seq = build_bell_sequence(params).with_readout_rotation("y", math.pi / 2)
        lay = sequence_layout(seq, noise)
        res = run_sequence_exact(seq, params, noise)

        def part(off):
            comps = [c for c in res.components if c.blink_off == off]
            return sum(c.weight * c.rho for c in comps)

        dark = PulseSequence(tuple(s for s in seq.steps if s.kind != "excite"),
                             seq.repetition_period, seq.name)
        no_blink = dataclasses.replace(noise, blink_block_len=0)
        expect_off = run_sequence_exact(dark, params, no_blink, lay).density().matrix
        expect_on = run_sequence_exact(seq, params, no_blink, lay).density().matrix
        assert np.trace(part(True)).real == pytest.approx(0.3, abs=1e-12)
        assert np.max(np.abs(part(True) / 0.3 - expect_off)) < 1e-12
        assert np.max(np.abs(part(False) / 0.7 - expect_on)) < 1e-12

    def test_conditional_emission(self):
        # noise off: rotate theta, then excite; the photon number in the
        # driven bin equals the up population sin^2(theta/2)
        for theta in (0.0, 0.6, math.pi / 2, math.pi):
            rho = exact_rho(ideal_emitter(), ideal_noise(), rotate(theta),
                            PulseOp("excite", slot=0, bin="early"))
            occupied = sum(rho[i, i].real for i in range(SLOT_LAYOUT.total_dim)
                           if i % 3 == SLOT_EARLY)
            assert occupied == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-12)

    def test_pure_down_never_emits(self):
        rho = exact_rho(paper_emitter(), NoiseParams(f_pi=1.0, p_init_error=0),
                        PulseOp("pump"), PulseOp("excite", slot=0, bin="early"))
        idx = SLOT_LAYOUT.basis_index([SPIN_DOWN, SLOT_VACUUM])
        assert rho[idx, idx].real == pytest.approx(1.0)

    def test_overflow_guard_slot3(self):
        # the HOM sequence puts two photons in one slot: slot_dim = 3 refuses
        params = paper_emitter()
        with pytest.raises(ConfigurationError):
            run_sequence_exact(build_hom_sequence(params), params, ideal_noise(),
                               RegisterLayout(1, 3))


class TestIdealProtocols:
    def test_bell_sequence_gives_target(self):
        params = ideal_emitter()
        seq = build_bell_sequence(params, phase_e=0.7)
        rho = run_sequence_exact(seq, params, ideal_noise()).density()
        target = TargetState(2, phi_e=0.7).state(rho.layout)
        assert direct_fidelity(rho, target) == pytest.approx(1.0, abs=1e-10)

    def test_ghz3_hand_applied_algebra(self):
        # apply the sequence by hand: after each block the state keeps the
        # (|up, l..l> - |down, e..e>)/sqrt(2) pattern
        params = ideal_emitter()
        seq = build_ghz_sequence(2, params)
        res = run_sequence_exact(seq, params, ideal_noise())
        lay = res.layout
        expected = np.zeros(lay.total_dim, complex)
        expected[lay.basis_index([SPIN_UP, SLOT_LATE, SLOT_LATE])] = 1 / np.sqrt(2)
        expected[lay.basis_index([SPIN_DOWN, SLOT_EARLY, SLOT_EARLY])] = -1 / np.sqrt(2)
        target = QuditState(lay, expected)
        assert direct_fidelity(res.density(), target) == pytest.approx(1.0, abs=1e-10)

    def test_hom_sequence_separable(self):
        # |up> (x) one early photon + one late photon, no spin-photon
        # correlations in any equatorial basis
        params = ideal_emitter()
        seq = build_hom_sequence(params)
        rho = run_sequence_exact(seq, params, ideal_noise()).density()
        lay = rho.layout
        idx = lay.basis_index([SPIN_UP, SLOT_EL])
        assert rho.matrix[idx, idx].real == pytest.approx(1.0, abs=1e-10)
        from timebin.hilbert import expectation
        from timebin.witness import equatorial_operator
        for theta in (np.pi / 2, np.pi):
            assert abs(expectation(rho, equatorial_operator(theta, lay))) < 1e-10


class TestTrajectoryEngine:
    def test_seed_idempotence(self):
        params = paper_emitter()
        noise = paper_noise()
        seq = build_bell_sequence(params).with_readout_rotation("y", math.pi / 2)
        reps = np.arange(5000, dtype=np.uint64)
        a = run_sequence_trajectory(seq, params, noise, 99, reps)
        b = run_sequence_trajectory(seq, params, noise, 99, reps)
        assert np.array_equal(a.state_ids, b.state_ids)
        assert np.array_equal(a.branches, b.branches)
        assert a.branches.shape == (5000, len(seq.steps) - 1)

    def test_partition_independence(self):
        # chunked execution reproduces the full run repetition by repetition
        params = paper_emitter()
        noise = paper_noise()
        seq = build_bell_sequence(params).with_readout_rotation("y", 0.0)
        reps = np.arange(4000, dtype=np.uint64)
        full = run_sequence_trajectory(seq, params, noise, 7, reps)
        first = run_sequence_trajectory(seq, params, noise, 7, reps[:1500])
        rest = run_sequence_trajectory(seq, params, noise, 7, reps[1500:])
        key_full = [full.state_table[i].tobytes() for i in full.state_ids]
        key_parts = [first.state_table[i].tobytes() for i in first.state_ids] + \
                    [rest.state_table[i].tobytes() for i in rest.state_ids]
        assert key_full == key_parts

    def test_cyclicity_trajectory_frequency(self):
        params = paper_emitter()
        seq = PulseSequence((PulseOp("pump"),
                             PulseOp("rotate", axis="y", angle=math.pi),
                             PulseOp("excite", slot=0, bin="early"),
                             PulseOp("readout")), 606.06, name="cyc")
        traj = run_sequence_trajectory(seq, params, ideal_noise(), 5,
                                       np.arange(200_000, dtype=np.uint64))
        emits = int(np.sum(traj.took(2, "emit")))
        jumps = int(np.sum(traj.took(2, "jump")))
        assert emits + jumps == 200_000
        p = 14.7 / 15.7
        frac = emits / (emits + jumps)
        assert abs(frac - p) < 3 * np.sqrt(p * (1 - p) / (emits + jumps))

    def test_branch_record_labels(self):
        # each entry names a branch of its step, and a blinked-off
        # repetition skips exactly the excite steps
        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), **BLINKING)
        seq = build_ghz_sequence(2, params).with_readout_rotation("y", math.pi / 2)
        traj = run_sequence_trajectory(seq, params, noise, 8,
                                       np.arange(4000, dtype=np.uint64))
        assert traj.branches.shape == (4000, len(seq.steps) - 1)
        assert traj.blink_off.any() and not traj.blink_off.all()
        for step_i, op in enumerate(seq.steps[:-1]):
            labels = {label for label, _, _ in step_branches(op, params, noise,
                                                             traj.layout)}
            got = {BRANCH_LABELS[c] for c in np.unique(traj.branches[:, step_i])}
            if op.kind == "excite":
                assert np.array_equal(traj.took(step_i, "skipped"), traj.blink_off)
                got.discard("skipped")
            assert got and got <= labels, op

    def test_flagged_photons_keep_their_streams(self):
        # the wrong-transition photon of the i-th excite step draws on
        # flagged stream i, a re-excitation or saturated-bin photon on
        # stream n_excite + i
        from timebin import rng as crng
        from timebin.detection import _pattern_rows, _single_photon_outcomes
        from timebin.experiments import _witness_subruns

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), p_wrong_transition=0.2, p_double=0.2)
        run = _witness_subruns(3, params, paper_tbi())[0]
        reps = np.arange(3000, dtype=np.uint64)
        traj = run_sequence_trajectory(run.sequence, params, noise, 5, reps)
        model = DetectionModel(traj.layout, run.tbi, noise, run.windows)
        clicks = model.sample_run(traj, 5)
        excites = [(i, op) for i, op in enumerate(run.sequence.steps) if op.kind == "excite"]
        want = np.zeros_like(clicks.flagged)
        for e_i, (step_i, op) in enumerate(excites):
            outs = _single_photon_outcomes(SLOT_EARLY if op.bin == "early" else SLOT_LATE,
                                           run.tbi, model.eta)
            patterns = _pattern_rows([c for c, _ in outs], want.shape[1], op.slot)
            for stream, labels in ((e_i, ("wrong",)),
                                   (len(excites) + e_i, ("emit_double", "sat_emit"))):
                mask = traj.took(step_i, *labels)
                assert mask.any(), (op, labels)
                u = crng.uniforms(5, reps[mask], crng.stream("detection.flagged", stream))
                want[mask] += patterns[crng.choose([w for _, w in outs], u)]
        assert np.array_equal(clicks.flagged, want)

    def test_exact_trajectory_marginals(self):
        # sampled click/readout outcome frequencies match the exact-mode
        # distribution at the 1e6-sample scale the invariant is stated for
        from timebin.config import paper_tbi
        from timebin.experiments import trajectory_exact_tvd
        for setting in (0, 1):
            tvd = trajectory_exact_tvd(2, paper_emitter(), paper_noise(),
                                       paper_tbi(), 1_000_000, 31,
                                       thinned=False, setting_index=setting)
            assert tvd < 5e-3, f"setting {setting}: tvd={tvd}"

    def test_sliced_clicks_match_single_call(self):
        # repetitions 0..N-1 in one call and in five disjoint slices give every
        # repetition the same clicks, spin, readout and time tags, for a Bell
        # run and a GHZ-3 sub-run
        params, noise = paper_emitter(), paper_noise()
        bell = build_bell_sequence(params).with_readout_rotation("y", math.pi / 2)
        ghz3 = build_ghz_sequence(2, params).with_readout_rotation("x", math.pi / 2)
        for seq, n_slots, n_reps in ((bell, 1, 6000), (ghz3, 2, 3000)):
            windows = WindowConfig.for_sequence(n_slots, t_inf=params.t_inf,
                                                slot_spacing=params.photon_spacing_ns)
            reps = np.arange(n_reps, dtype=np.uint64)

            def per_repetition(rep_slice):
                traj = run_sequence_trajectory(seq, params, noise, 17, rep_slice)
                model = DetectionModel(traj.layout, paper_tbi(), noise, windows)
                c = model.sample_run(traj, 17)
                tags = c.to_tags(params.gamma0)
                bounds = np.searchsorted(tags.repetition, rep_slice.astype(np.int64),
                                         side="right")
                rows = []
                for r in range(c.n_reps):
                    lo = bounds[r - 1] if r else 0
                    rows.append((tuple(c.signal[r]), tuple(c.flagged[r]),
                                 tuple(c.background[r]), int(c.spins[r]),
                                 bool(c.readout_signal[r]), bool(c.readout_leak[r]),
                                 tuple(tags.detector[lo:bounds[r]]),
                                 tuple(tags.time[lo:bounds[r]])))
                return rows

            single = per_repetition(reps)
            sliced = [row for part in np.array_split(reps, 5)
                      for row in per_repetition(part)]
            assert single == sliced
            assert any(any(row[1]) for row in single)    # flagged clicks occur
            assert any(any(row[2]) for row in single)    # background clicks occur
            assert sum(len(row[7]) for row in single) > n_reps // 10

    def test_fringe_scan_streams_disjoint(self, monkeypatch):
        # every (point, label) sub-run of a spin-conditioned fringe scan draws
        # on its own repetition indices, also above a million per point
        from timebin import experiments
        from timebin.interferometer import TBIParams

        ranges = []
        run = experiments.run_sequence_trajectory

        def recording(seq, params, noise, seed, reps, *args):
            assert np.all(np.diff(reps) == 1)
            ranges.append((int(reps[0]), int(reps[-1]), reps.size))
            return run(seq, params, noise, seed, reps[:50], *args)

        monkeypatch.setattr(experiments, "run_sequence_trajectory", recording)
        experiments.spin_conditioned_fringe_scan(
            ideal_emitter(), ideal_noise(), TBIParams(),
            np.linspace(0, math.pi, 3), reps_per_point=1_500_000, master_seed=5)
        assert len(ranges) == 6
        assert all(n == 1_500_000 for _, _, n in ranges)
        for a, b in ((a, b) for i, a in enumerate(ranges) for b in ranges[i + 1:]):
            assert a[1] < b[0] or b[1] < a[0]


class TestExactMassBudget:
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_first_subrun_mass(self, n_qubits):
        # paper defaults, every component of the first witness sub-run:
        # PRUNE_TOL loses at most 1e-6 of a component's trace, and the
        # first-order background convolution loses at most the probability
        # that two or more photonic windows hold a background click
        from timebin.experiments import _witness_subruns

        params, noise = paper_emitter(), paper_noise()
        run = _witness_subruns(n_qubits, params, paper_tbi())[0]
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, run.tbi, noise, run.windows)
        lams = [lam for _, _, lam in model.leak_window_probs()]
        p_none = math.prod(1 - lam for lam in lams)
        p_one = sum(lam * p_none / (1 - lam) for lam in lams)
        p_two_or_more = 1 - p_none - p_one
        assert p_two_or_more > 0
        for comp in exact.components:
            trace = np.trace(comp.rho).real
            base = model.distribution(comp.rho, comp.flag_clicks)
            assert abs(math.fsum(base.probs) - trace) <= 1e-6
            full = model.full_distribution(comp.rho, comp.flag_clicks)
            deficit = trace - math.fsum(full.probs)
            assert -1e-12 <= deficit <= p_two_or_more + 1e-6


class TestRotationCeiling:
    def test_f_pi_only_limits_bell(self):
        # rotation errors alone pin the entanglement ceiling
        from timebin.experiments import witness_exact
        from timebin.interferometer import TBIParams
        noise = NoiseParams(f_pi=0.885, p_init_error=0.0)
        f = witness_exact(2, ideal_emitter(), noise,
                          TBIParams(classical_visibility=1.0)).fidelity
        assert f == pytest.approx(0.77, abs=0.02)

    def test_improved_rotations(self):
        from timebin.experiments import witness_exact
        from timebin.interferometer import TBIParams
        noise = NoiseParams(f_pi=0.988, p_init_error=0.0)
        f = witness_exact(2, ideal_emitter(), noise,
                          TBIParams(classical_visibility=1.0)).fidelity
        assert f == pytest.approx(0.973, abs=0.01)


BLINKING = {"blink_block_len": 40, "blink_on_fraction": 0.7}


class TestSharedGeneration:
    """A witness evolves its generation once, at late-pulse phase 0, and
    finishes each sub-run from it; a direct evolution of each sub-run's
    whole sequence is the reference."""

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_exact_components_match_direct_runs(self, n_qubits, blink):
        from timebin.experiments import _exact_subruns

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        n_subruns = 0
        for run, shared in _exact_subruns(n_qubits, params, noise, paper_tbi()):
            direct = run_sequence_exact(run.sequence, params, noise)
            assert shared.sequence == run.sequence
            assert shared.layout == direct.layout
            assert [(c.flag_clicks, c.blink_off) for c in shared.components] == \
                [(c.flag_clicks, c.blink_off) for c in direct.components]
            assert any(c.blink_off for c in shared.components) == blink
            for a, b in zip(shared.components, direct.components):
                assert abs(a.weight - b.weight) <= 1e-12
                assert np.max(np.abs(a.rho - b.rho)) <= 1e-12
            n_subruns += 1
        assert n_subruns == 2 * n_qubits + 2

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits, n_reps", [(2, 6000), (3, 3000)])
    def test_trajectory_repetitions_match_direct_runs(self, n_qubits, n_reps, blink):
        from timebin.experiments import witness_trajectory

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        run = witness_trajectory(n_qubits, params, noise, paper_tbi(), n_reps, 17,
                                 keep_clicks=True)
        assert len(run.clicks) == len(run.subruns) == 2 * n_qubits + 2
        for sub, reps, clicks in zip(run.subruns, run.rep_slices, run.clicks):
            shared = clicks.trajectory
            direct = run_sequence_trajectory(sub.sequence, params, noise, 17, reps)
            assert shared.sequence == direct.sequence
            for name in ("rep_indices", "branches", "blink_off"):
                assert np.array_equal(getattr(shared, name), getattr(direct, name)), name
            assert shared.blink_off.any() == blink
            # a table holds one representative per state up to a global phase
            for r in range(reps.size):
                a = shared.state_table[shared.state_ids[r]]
                b = direct.state_table[direct.state_ids[r]]
                overlap = np.vdot(b, a)
                assert np.max(np.abs(a - b * overlap / abs(overlap))) <= 1e-12
            model = DetectionModel(direct.layout, sub.tbi, noise, sub.windows)
            want = model.sample_run(direct, 17)
            for name in ("signal", "flagged", "background", "spins",
                         "readout_signal", "readout_leak"):
                assert np.array_equal(getattr(clicks, name), getattr(want, name)), name

    def test_start_must_hold_the_leading_steps(self):
        params, noise = paper_emitter(), paper_noise()
        generation = build_bell_sequence(params)
        seq = build_bell_sequence(params, phase_e=0.4).with_readout_rotation("y", 0.5)
        exact = run_sequence_exact(generation, params, noise)
        with pytest.raises(ContractError):
            run_sequence_exact(seq, params, noise, start=exact)
        tail = run_sequence_exact(seq, params, noise, start=exact.with_late_phase(0.4))
        assert len(tail.components) == len(exact.components)
        reps = np.arange(10, dtype=np.uint64)
        traj = run_sequence_trajectory(generation, params, noise, 3, reps)
        with pytest.raises(ContractError):
            run_sequence_trajectory(seq, params, noise, 3, reps, start=traj)
        with pytest.raises(ContractError):
            run_sequence_trajectory(seq, params, noise, 3, reps[:5],
                                    start=traj.with_late_phase(0.4))
