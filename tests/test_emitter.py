import dataclasses
import math

import numpy as np
import pytest

from kernel_reference import (dense_factor, grouped_trajectory, verify_kraus_complete,
                              with_late_phase)
from timebin.coincidence import WindowConfig
from timebin.config import paper_emitter, paper_noise, paper_tbi
from timebin.detection import DetectionModel
from timebin.emitter import (BRANCH_LABELS, EmitterParams, NoiseParams, PulseOp,
                             PulseSequence, TrajectoryTables, apply_branch,
                             build_bell_sequence, build_ghz_sequence, build_hom_sequence,
                             conjugate_branches, excite_kraus, ideal_emitter,
                             ideal_noise, pump_kraus, rabi_curve,
                             rabi_population, rotation_kraus,
                             run_sequence_exact, run_sequence_trajectory,
                             sequence_layout, step_branches, tail_map, wait_kraus)
from timebin.errors import ConfigurationError, ContractError
from timebin.hilbert import (SLOT_EARLY, SLOT_EL, SLOT_LATE, SLOT_VACUUM,
                             SPIN_DOWN, SPIN_UP, QuditState, RegisterLayout,
                             direct_fidelity)
from timebin.witness import TargetState

SLOT_LAYOUT = RegisterLayout(photon_slots=1, slot_dim=3)


def short_sequence(*steps):
    return PulseSequence(tuple(steps) + (PulseOp("readout"),))


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

    @pytest.mark.parametrize("name", ["t_inf", "photon_spacing_ns", "repetition_rate_mhz"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0, "7",
                                       True])
    def test_bad_timing(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name}=.* finite and positive"):
            dataclasses.replace(paper_emitter(), **{name: value})

    def test_bad_probability(self):
        with pytest.raises(ConfigurationError):
            NoiseParams(p_double=1.5)
        with pytest.raises(ConfigurationError):
            NoiseParams(f_pi=0.4)

    @pytest.mark.parametrize("params, kwargs", [
        (EmitterParams, {"gamma_y": math.inf}), (EmitterParams, {"gamma_y": math.nan}),
        (EmitterParams, {"gamma_x": math.inf}), (EmitterParams, {"gamma_x": math.nan}),
        (NoiseParams, {"p_leak": math.inf}), (NoiseParams, {"p_leak": math.nan}),
        (NoiseParams, {"rot_dephasing_ratio": math.inf}),
        (NoiseParams, {"rot_dephasing_ratio": math.nan}),
        (NoiseParams, {"blink_block_len": -3, "blink_on_fraction": 0.5}),
        (NoiseParams, {"blink_block_len": 2.5})])
    def test_non_finite_or_negative_parameter(self, params, kwargs):
        # a library caller gets the checks a config file gets: no rate is
        # infinite and blinking is not switched off by a negative block
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            params(**kwargs)


class TestSequences:
    def test_bell_structure(self):
        seq = build_bell_sequence()
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
            build_ghz_sequence(1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "wait", "duration": -70.0}, "wait duration"),
        ({"kind": "wait", "duration": math.nan}, "wait duration"),
        ({"kind": "wait", "duration": math.inf}, "wait duration"),
        ({"kind": "wait", "duration": True}, "wait duration"),
        ({"kind": "excite", "phase": math.nan}, "excitation phase"),
        ({"kind": "excite", "phase": -math.inf}, "excitation phase"),
        ({"kind": "rotate", "angle": math.pi, "duration": 7.0}, "rotate step has no"),
        ({"kind": "excite", "duration": 0.035}, "excite step has no"),
        ({"kind": "pump", "duration": 100.0}, "pump step has no"),
        ({"kind": "readout", "duration": 50.0}, "readout step has no")],
        ids=["wait-negative", "wait-nan", "wait-inf", "wait-bool", "phase-nan",
             "phase-inf", "rotate-duration", "excite-duration", "pump-duration",
             "readout-duration"])
    def test_bad_step_rejected(self, kwargs, message):
        # a negative wait would give an exact density of trace 2, a NaN one
        # NaN; only a wait's duration is read (wait_kraus)
        with pytest.raises(ContractError, match=message):
            PulseOp(**kwargs)

    @pytest.mark.parametrize("paper", [True, False], ids=["paper", "ideal"])
    def test_register_size(self, paper):
        # a slot holds two photons under rotation flips (f_pi < 1), or when
        # the sequence excites it twice with no rotation between (hom)
        noise = paper_noise() if paper else ideal_noise()
        for seq, slots, double in ((build_bell_sequence(), 1, paper),
                                   (build_ghz_sequence(2), 2, paper),
                                   (build_ghz_sequence(3), 3, paper),
                                   (build_hom_sequence(), 1, True)):
            for s in (seq, seq.with_readout_rotation("y", math.pi / 2)):
                assert sequence_layout(s, noise) == RegisterLayout(
                    photon_slots=slots, slot_dim=6 if double else 3)
        # an excitation of another slot between the two is no rotation
        twice = PulseSequence((PulseOp("pump"), PulseOp("rotate", angle=math.pi),
                               PulseOp("excite", slot=0, bin="early"),
                               PulseOp("excite", slot=1, bin="early"),
                               PulseOp("excite", slot=0, bin="late"), PulseOp("readout")))
        assert sequence_layout(twice, ideal_noise()).slot_dim == 6


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
        for seq in (build_bell_sequence(), build_ghz_sequence(2),
                    build_ghz_sequence(3)):
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
        seq = build_bell_sequence().with_readout_rotation("y", math.pi / 2)
        lay = sequence_layout(seq, noise)
        res = run_sequence_exact(seq, params, noise)

        def part(off):
            comps = [c for c in res.components if c.blink_off == off]
            return sum(c.weight * c.rho for c in comps)

        dark = PulseSequence(tuple(s for s in seq.steps if s.kind != "excite"))
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
            run_sequence_exact(build_hom_sequence(), params, ideal_noise(),
                               RegisterLayout(1, 3))


class TestIdealProtocols:
    def test_bell_sequence_gives_target(self):
        params = ideal_emitter()
        seq = with_late_phase(build_bell_sequence(), 0.7)
        rho = run_sequence_exact(seq, params, ideal_noise()).density()
        target = TargetState(2, phi_e=0.7).state(rho.layout)
        assert direct_fidelity(rho, target) == pytest.approx(1.0, abs=1e-10)

    def test_ghz3_hand_applied_algebra(self):
        # apply the sequence by hand: after each block the state keeps the
        # (|up, l..l> - |down, e..e>)/sqrt(2) pattern
        params = ideal_emitter()
        seq = build_ghz_sequence(2)
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
        seq = build_hom_sequence()
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
        seq = build_bell_sequence().with_readout_rotation("y", math.pi / 2)
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
        seq = build_bell_sequence().with_readout_rotation("y", 0.0)
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
                             PulseOp("readout")))
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
        seq = build_ghz_sequence(2).with_readout_rotation("y", math.pi / 2)
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
        from kernel_reference import pattern_rows, single_photon_outcomes
        from timebin.experiments import _witness_subruns

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), p_wrong_transition=0.2, p_double=0.2)
        run = _witness_subruns(3, params)[0]
        reps = np.arange(3000, dtype=np.uint64)
        model = DetectionModel(sequence_layout(run.sequence, noise), paper_tbi(), run.phase,
                               noise, run.windows)
        traj = run_sequence_trajectory(run.sequence, params, noise, 5, reps, detection=model)
        clicks = model.sample_run(traj, 5)
        excites = [(i, op) for i, op in enumerate(run.sequence.steps) if op.kind == "excite"]
        want = np.zeros_like(clicks.flagged)
        for e_i, (step_i, op) in enumerate(excites):
            outs = single_photon_outcomes(SLOT_EARLY if op.bin == "early" else SLOT_LATE,
                                          model.tbi, model.eta)
            patterns = pattern_rows([c for c, _ in outs], want.shape[1], op.slot)
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
        bell = build_bell_sequence().with_readout_rotation("y", math.pi / 2)
        ghz3 = build_ghz_sequence(2).with_readout_rotation("x", math.pi / 2)
        for seq, n_slots, n_reps in ((bell, 1, 6000), (ghz3, 2, 3000)):
            windows = WindowConfig.for_sequence(n_slots, t_inf=params.t_inf,
                                                slot_spacing=params.photon_spacing_ns)
            reps = np.arange(n_reps, dtype=np.uint64)

            def per_repetition(rep_slice):
                model = DetectionModel(sequence_layout(seq, noise), paper_tbi(), 0.0, noise,
                                       windows)
                traj = run_sequence_trajectory(seq, params, noise, 17, rep_slice,
                                               detection=model)
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

        def recording(seq, params, noise, seed, reps, **kwargs):
            assert np.all(np.diff(reps) == 1)
            ranges.append((int(reps[0]), int(reps[-1]), reps.size))
            return run(seq, params, noise, seed, reps[:50], **kwargs)

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
        run = _witness_subruns(n_qubits, params)[0]
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, paper_tbi(), run.phase, noise, run.windows)
        lams = [model.leak_window_prob()] * (3 * exact.layout.photon_slots)
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


def assert_same_repetitions(got, want):
    """got and want sample the same branches for the same repetitions, into
    states equal up to a global phase (a table holds one representative per
    state, the first one it meets)."""
    assert got.sequence == want.sequence and got.layout == want.layout
    for name in ("rep_indices", "branches", "blink_off"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for r in range(want.rep_indices.size):
        a = got.state_table[got.state_ids[r]]
        b = want.state_table[want.state_ids[r]]
        overlap = np.vdot(b, a)
        assert np.max(np.abs(a - b * overlap / abs(overlap))) <= 1e-12


class TestTableBranchChoice:
    """Each step draws every repetition's branch from one table per state;
    `kernel_reference.grouped_trajectory`, which sorts the repetitions into
    groups by state and searches each group's CDF, is the reference: the
    same ids, records and state table, bit for bit, on fresh tables, and the
    same records and states up to a global phase on tables that other
    sequences have filled."""

    @staticmethod
    def assert_same(got, want):
        assert got.layout == want.layout
        for name in ("rep_indices", "state_ids", "branches", "blink_off"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert [v.tobytes() for v in got.state_table] == \
            [v.tobytes() for v in want.state_table]

    @pytest.mark.parametrize("n_qubits, n_reps, blink", [
        (2, 6000, False), (2, 6000, True), (4, 300, False), (2, 0, False)],
        ids=["bell", "bell-blinking", "ghz4", "empty"])
    def test_generation_and_continued_subrun(self, n_qubits, n_reps, blink):
        from timebin.experiments import _generation_sequence, _witness_subruns

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        reps = np.arange(n_reps, dtype=np.uint64)
        seq = _generation_sequence(n_qubits)
        generation = run_sequence_trajectory(seq, params, noise, 5, reps)
        want, counts = grouped_trajectory(seq, params, noise, 5, reps)
        self.assert_same(generation, want)
        assert generation.blink_off.any() == blink
        if n_qubits == 4:
            # many states share each step
            assert max(len(kept) for kept, _ in counts) > 40
        # sub-run k samples its whole sequence on a table that sub-runs
        # 0..k-1 have filled, as in a witness run
        subruns = _witness_subruns(n_qubits, params)
        tables = TrajectoryTables()
        for k, run in enumerate(subruns[:4]):
            rows = reps[k::len(subruns)]
            got = run_sequence_trajectory(run.sequence, params, noise, 5, rows,
                                          tables=tables)
            want, _ = grouped_trajectory(run.sequence, params, noise, 5, rows)
            assert_same_repetitions(got, want)

    def test_hom(self):
        params = paper_emitter()
        seq = build_hom_sequence()
        reps = np.arange(6000, dtype=np.uint64)
        want, _ = grouped_trajectory(seq, params, paper_noise(), 9, reps)
        self.assert_same(run_sequence_trajectory(seq, params, paper_noise(), 9, reps),
                         want)

    def test_padded_rows(self):
        # at a step of the Bell generation one state keeps fewer branches
        # than another, so its padded entries lie among the counted columns
        from timebin.experiments import _generation_sequence

        params, noise = paper_emitter(), paper_noise()
        seq = _generation_sequence(2)
        reps = np.arange(2000, dtype=np.uint64)
        want, counts = grouped_trajectory(seq, params, noise, 2, reps)
        assert any(min(kept) < max(kept) for kept, _ in counts)
        assert any(min(kept) < width for kept, width in counts)
        self.assert_same(run_sequence_trajectory(seq, params, noise, 2, reps), want)


def assert_witness_matches_direct_runs(n_qubits, n_reps, blink, n_blocks):
    """Each sub-run of a witness_trajectory run in n_blocks blocks samples,
    block by block on the run's one table, the records and clicks of a
    direct run of its whole sequence over all its repetitions."""
    from timebin.experiments import witness_trajectory

    params = paper_emitter()
    noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
    blocks = []
    run = witness_trajectory(n_qubits, params, noise, paper_tbi(), n_reps, 17,
                             on_block=blocks.append)
    assert len(blocks) == n_blocks
    assert len(run.subruns) == 2 * n_qubits + 2
    assert all(len(block) == len(run.subruns) for block in blocks)
    for k, sub in enumerate(run.subruns):
        parts = [block[k] for block in blocks]
        shared = parts[0].trajectory
        assert all(p.trajectory.state_table is shared.state_table for p in parts)
        # repetitions go to the sub-runs round-robin
        reps = np.arange(k, n_reps, len(run.subruns), dtype=np.uint64)
        model = DetectionModel(sequence_layout(sub.sequence, noise), paper_tbi(), sub.phase,
                               noise, sub.windows)
        direct = run_sequence_trajectory(sub.sequence, params, noise, 17, reps,
                                         detection=model)
        assert direct.blink_off.any() == blink
        joined = dataclasses.replace(shared, **{
            name: np.concatenate([getattr(p.trajectory, name) for p in parts])
            for name in ("rep_indices", "state_ids", "branches", "blink_off", "entries",
                         "spins")})
        assert_same_repetitions(joined, direct)
        for name in ("entries", "spins"):
            assert np.array_equal(getattr(joined, name), getattr(direct, name)), name
        want = model.sample_run(direct, 17)
        for name in ("signal", "flagged", "background", "spins",
                     "readout_signal", "readout_leak"):
            got = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(got, getattr(want, name)), name


class TestSharedGeneration:
    """Exact mode evolves a witness's generation once and reads each
    sub-run's components where its spin-only tail starts, through the
    tail's spin map; trajectory mode samples every sub-run on one shared
    table.  A direct evolution of each sub-run's whole sequence is the
    reference."""

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_exact_components_match_direct_runs(self, n_qubits, blink):
        from timebin.experiments import _generation_sequence, _witness_subruns

        params = paper_emitter()
        noise = dataclasses.replace(paper_noise(), **(BLINKING if blink else {}))
        generation = run_sequence_exact(_generation_sequence(n_qubits), params, noise)
        assert any(c.blink_off for c in generation.components) == blink
        subruns = _witness_subruns(n_qubits, params)
        assert len(subruns) == 2 * n_qubits + 2
        n_entries = 0
        for run in subruns:
            direct = run_sequence_exact(run.sequence, params, noise)
            assert generation.layout == direct.layout
            assert [(c.flag_clicks, c.blink_off) for c in generation.components] == \
                [(c.flag_clicks, c.blink_off) for c in direct.components]
            tail = tail_map(run.sequence, params, noise, generation.layout)
            model = DetectionModel(generation.layout, paper_tbi(), run.phase, noise,
                                   run.windows)
            for a, b in zip(generation.components, direct.components):
                assert abs(a.weight - b.weight) <= 1e-12
                got = model.tail_distribution(a.rho, tail, a.flag_clicks)
                want = model.distribution(b.rho, b.flag_clicks)
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.label, want.label)
                np.testing.assert_allclose(got.probs, want.probs, rtol=1e-12, atol=0)
                n_entries += len(want)
        assert n_entries > 100 * len(subruns)

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits, n_reps", [(2, 6000), (3, 3000)])
    def test_trajectory_repetitions_match_direct_runs(self, n_qubits, n_reps, blink):
        assert_witness_matches_direct_runs(n_qubits, n_reps, blink, n_blocks=1)

    @pytest.mark.parametrize("blink", [False, True], ids=["steady", "blinking"])
    @pytest.mark.parametrize("n_qubits, block, n_reps, n_blocks", [
        (2, "subruns", 600, 100), (3, "subruns", 400, 50),
        (2, 500, 6000, 13), (3, 500, 3000, 7)])
    def test_trajectory_blocks_match_direct_runs(self, n_qubits, block, n_reps, n_blocks,
                                                 blink, monkeypatch):
        # one repetition per sub-run per block, or a few dozen: the run's
        # one table spans the sub-runs and the blocks
        from timebin import experiments

        size = 2 * n_qubits + 2 if block == "subruns" else block
        monkeypatch.setattr(experiments, "BLOCK_REPS", size)
        assert_witness_matches_direct_runs(n_qubits, n_reps, blink, n_blocks)

    def test_start_must_hold_the_leading_steps(self, monkeypatch):
        # the exact witness reads every sub-run where the generation ends: a
        # sub-run whose steps before its tail differ is refused
        from timebin import experiments

        params, noise = paper_emitter(), paper_noise()
        subruns = experiments._witness_subruns(2, params)
        assert experiments._exact_counts(2, params, noise, paper_tbi())
        # a late pulse at another phase is another leading step
        *same, last = subruns
        other = dataclasses.replace(last, sequence=with_late_phase(last.sequence, 0.4))
        assert other.sequence.tail_start == last.sequence.tail_start
        monkeypatch.setattr(experiments, "_witness_subruns", lambda *_: [*same, other])
        with pytest.raises(ContractError, match="generation"):
            experiments._exact_counts(2, params, noise, paper_tbi())

    def test_tables_hold_one_runs_inputs(self):
        # a table filled under one noise would hand another noise its
        # branches: hom at p_init_error 0.3 would sample the pump of 0.005
        params, noise = paper_emitter(), paper_noise()
        seq = build_hom_sequence()
        reps = np.arange(2000, dtype=np.uint64)
        tables = TrajectoryTables()
        first = run_sequence_trajectory(seq, params, noise, 4, reps, tables=tables)
        noisier = dataclasses.replace(noise, p_init_error=0.3)
        fresh = run_sequence_trajectory(seq, params, noisier, 4, reps)
        assert not np.array_equal(fresh.branches, first.branches)
        wider = RegisterLayout(photon_slots=2, slot_dim=6)
        for other_params, other_noise, layout in ((params, noisier, None),
                                                  (ideal_emitter(), noise, None),
                                                  (params, noise, wider)):
            with pytest.raises(ContractError):
                run_sequence_trajectory(seq, other_params, other_noise, 4, reps,
                                        layout=layout, tables=tables)
        # the same inputs, on the next block, still fill the tables
        more = np.arange(2000, 4000, dtype=np.uint64)
        again = run_sequence_trajectory(seq, params, noise, 4, more, tables=tables)
        alone = run_sequence_trajectory(seq, params, noise, 4, more)
        assert np.array_equal(again.branches, alone.branches)
