"""Acceptance suite: the quantitative checks the package must reproduce.

Each criterion prints one PASS/FAIL line (run with -s to see them all).
Monte Carlo sizes are chosen so the whole module completes in a few
minutes on a laptop while keeping statistical error well inside each
stated tolerance.
"""
import dataclasses
import json
import math

import numpy as np

from timebin.config import (V_CLASSICAL_BACKSOLVED, paper_emitter,
                            paper_noise, paper_tbi)
from timebin.emitter import (NoiseParams, PulseOp, PulseSequence,
                             ideal_emitter, ideal_noise,
                             run_sequence_trajectory)
from timebin.experiments import (simulate_hom, spin_conditioned_fringe_scan,
                                 trajectory_exact_tvd, witness_exact,
                                 witness_trajectory)
from timebin.hilbert import RegisterLayout, direct_fidelity
from timebin.interferometer import TBIParams
from timebin.witness import (TargetState, bell_fidelity,
                             witness_fidelity_exact)

from test_witness import random_logical_density


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_bell_fidelity_arithmetic():
    f, _ = bell_fidelity(0.893, -0.423, 0.421)
    ok = abs(f - 0.657) <= 5e-4 + 1e-12
    report(1, ok, f"bell_fidelity(0.893, -0.423, 0.421) = {f:.6f} "
                  f"(target 0.657 within 5e-4)")


def test_criterion_02_noise_free_bell():
    tbi = TBIParams(classical_visibility=1.0)
    exact = witness_exact(2, ideal_emitter(), ideal_noise(), tbi)
    mc = witness_trajectory(2, ideal_emitter(), ideal_noise(), tbi,
                            100_000, master_seed=2)
    f_mc = mc.outcome.fidelity
    sigma = max(mc.outcome.fidelity_err, 1e-12)
    ok = abs(exact.fidelity - 1.0) < 1e-10 and abs(f_mc - 1.0) <= 3 * sigma
    report(2, ok, f"exact F = {exact.fidelity:.12f}, "
                  f"MC F = {f_mc:.6f} +- {sigma:.2g} at 1e5 reps")


def test_criterion_03_rotation_error_ceiling():
    tbi = TBIParams(classical_visibility=1.0)
    f885 = witness_exact(2, ideal_emitter(),
                         NoiseParams(f_pi=0.885, p_init_error=0.0), tbi).fidelity
    f988 = witness_exact(2, ideal_emitter(),
                         NoiseParams(f_pi=0.988, p_init_error=0.0), tbi).fidelity
    ok = abs(f885 - 0.77) <= 0.02 and abs(f988 - 0.973) <= 0.01
    report(3, ok, f"F(f_pi=0.885 only) = {f885:.4f} (0.77 +- 0.02), "
                  f"F(f_pi=0.988 only) = {f988:.4f} (0.973 +- 0.01)")


def test_criterion_04_full_paper_defaults():
    run = witness_trajectory(2, paper_emitter(), paper_noise(), paper_tbi(),
                             420_000, master_seed=44)
    out = run.outcome
    f, pz = out.fidelity, out.population[0]
    zz = out.counts["ZZ"].probabilities()
    up_l = zz.get((+1, (+1,)), 0.0)
    down_e = zz.get((-1, (-1,)), 0.0)
    in_band = 0.638 <= f <= 0.698
    pz_ok = abs(pz - 0.893) <= 0.015
    pattern_ok = down_e < up_l
    ok = in_band and pz_ok and pattern_ok
    report(4, ok, f"F = {f:.4f} in [0.638, 0.698]; Pz = {pz:.4f} "
                  f"(0.893 +- 0.015); P(up,l) = {up_l:.3f} > P(down,e) = {down_e:.3f}")


def test_criterion_05_cyclicity_branching():
    params = paper_emitter()
    seq = PulseSequence((PulseOp("pump"),
                         PulseOp("rotate", axis="y", angle=math.pi),
                         PulseOp("excite", slot=0, bin="early"),
                         PulseOp("readout")))
    traj = run_sequence_trajectory(seq, params, ideal_noise(), 55,
                                   np.arange(1_000_000, dtype=np.uint64))
    emits = int(np.sum(traj.took(2, "emit")))
    jumps = int(np.sum(traj.took(2, "jump")))
    frac = emits / (emits + jumps)
    p = 14.7 / 15.7
    sigma = math.sqrt(p * (1 - p) / (emits + jumps))
    ok = abs(frac - p) <= 3 * sigma
    report(5, ok, f"spin-preserving fraction {frac:.5f} vs C/(C+1) = {p:.5f} "
                  f"({abs(frac - p) / sigma:.2f} sigma at 1e6 trials)")


def test_criterion_06_g2_hom_chain():
    noise = paper_noise()
    run = simulate_hom(paper_emitter(), noise, paper_tbi(), 400_000,
                       master_seed=66, v_classical_assumed=V_CLASSICAL_BACKSOLVED)
    leak_only = dataclasses.replace(
        noise, f_pi=1.0, p_init_error=0.0, p_double=0.0,
        p_wrong_transition=0.0, p_wait_dephasing=0.0)
    run_leak = simulate_hom(paper_emitter(), leak_only, paper_tbi(), 400_000,
                            master_seed=67)
    arithmetic = abs(0.865 * (1 + 2 * 0.047) / 1.0 - 0.946) <= 1e-3
    checks = {
        "g2 = 0.047 +- 0.010": abs(run.g2 - 0.047) <= 0.010,
        "leak-only g2 = 0.011 +- 0.005": abs(run_leak.g2 - 0.011) <= 0.005,
        "V_raw = 0.865 +- 0.015": abs(run.v_raw - 0.865) <= 0.015,
        "hom_correct arithmetic": arithmetic,
        "corrected V = 0.957 +- 0.01": abs(run.v_corrected - 0.957) <= 0.01,
    }
    ok = all(checks.values())
    detail = (f"g2 = {run.g2:.4f}, leak-only g2 = {run_leak.g2:.4f}, "
              f"V_raw = {run.v_raw:.4f}, V_corr = {run.v_corrected:.4f}")
    if not ok:
        detail += "; failed: " + "; ".join(k for k, v in checks.items() if not v)
    report(6, ok, detail)


def test_criterion_07_witness_oracle_identity():
    worst = 0.0
    for n_qubits in (2, 3):
        lay = RegisterLayout(photon_slots=n_qubits - 1, slot_dim=3)
        target = TargetState(n_qubits).state(lay)
        rng = np.random.default_rng(700 + n_qubits)
        for _ in range(100):
            rho = random_logical_density(lay, rng)
            delta = abs(witness_fidelity_exact(rho) - direct_fidelity(rho, target))
            worst = max(worst, delta)
    ok = worst < 1e-10
    report(7, ok, f"max |witness - direct| = {worst:.2e} over 200 random "
                  f"density operators (n = 2 and 3)")


def test_criterion_08_ghz3_paper_defaults(tmp_path):
    from timebin.cli import main
    out = tmp_path / "ghz"
    rc = main(["simulate", "ghz", "--photons", "3", "--defaults", "paper",
               "--reps", "120000", "--seed", "88", "--out", str(out),
               "--no-timetags"])
    rep = json.loads((out / "report.json").read_text())
    f = rep["fidelity"]["value"]
    ok = rc == 0 and abs(f - 0.423) <= 0.03
    report(8, ok, f"simulate ghz --photons 3 --defaults paper: "
                  f"F_GHZ = {f:.4f} (0.423 +- 0.03), "
                  f"exact reference {rep['exact_reference_fidelity']:.4f}")


def test_criterion_09_fringe_behavior():
    theta0 = 0.35
    tbi = TBIParams(theta0=theta0, classical_visibility=0.989)
    theta = np.linspace(0.0, math.pi, 20)
    # classical scan with shot noise, fit recovers theta0 within 1 degree
    from timebin.experiments import classical_fringe_scan
    scan_c = classical_fringe_scan(tbi, theta, photons_per_point=40_000,
                                   master_seed=91)
    amp, theta0_fit = scan_c.fits["classical"]
    theta0_err_deg = math.degrees(abs(theta0_fit - theta0))
    # spin-conditioned fringes: exactly in / anti phase with the classical one
    scan_s = spin_conditioned_fringe_scan(ideal_emitter(), ideal_noise(), tbi,
                                          np.linspace(0, math.pi, 9),
                                          reps_per_point=4000, master_seed=92)
    classical = np.cos(2 * (scan_s.theta - theta0))
    def phase_corr(curve):
        return float(np.dot(curve, classical)
                     / (np.linalg.norm(curve) * np.linalg.norm(classical)))
    corr_plus = phase_corr(scan_s.contrast["+X"])
    corr_minus = phase_corr(scan_s.contrast["-X"])
    aligned = {corr_plus < -0.98, corr_minus > 0.98} == {True}
    ok = theta0_err_deg <= 1.0 and abs(corr_plus) > 0.98 and abs(corr_minus) > 0.98 \
        and corr_plus * corr_minus < 0
    report(9, ok, f"classical fit theta0 err = {theta0_err_deg:.3f} deg, "
                  f"amplitude = {amp:.3f}; spin fringes phase corr "
                  f"+X: {corr_plus:+.3f}, -X: {corr_minus:+.3f} (one in phase, "
                  f"one anti-phase)")


def test_criterion_10_determinism(tmp_path):
    # the per-repetition invariance under splitting a run across calls is
    # test_emitter.py::TestTrajectoryEngine::test_sliced_clicks_match_single_call
    from timebin.cli import main
    same = {}
    written = {"report.json", "timetags.csv", "histogram.csv", "manifest.json"}
    for experiment, reps, files in (("bell", "30000", written | {"counts.csv"}),
                                    ("hom", "20000", written)):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / experiment / name
            rc = main(["simulate", experiment, "--defaults", "paper", "--reps", reps,
                       "--seed", "101", "--out", str(out)])
            assert rc == 0
            runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert set(runs[0]) == files
        same[experiment] = runs[0] == runs[1]
    ok = all(same.values())
    report(10, ok, "every artifact of simulate bell and simulate hom "
                   "byte-identical for two runs with the same seed")


def test_criterion_11_trajectory_exact_equivalence():
    tvd = trajectory_exact_tvd(2, paper_emitter(), paper_noise(), paper_tbi(),
                               1_000_000, master_seed=111, thinned=True)
    ok = tvd < 5e-3
    report(11, ok, f"TVD(trajectory, exact) = {tvd:.5f} < 5e-3 "
                   f"at 1e6 repetitions, full noise")


def test_supplementary_coincidence_rate():
    # consistency check on the efficiency bookkeeping: post-selected
    # coincidence rate within a factor 2 of 124 Hz at physical thinning
    run = witness_trajectory(2, paper_emitter(), paper_noise(), paper_tbi(),
                             1_000_000, master_seed=112, thinned=True)
    rate = run.coincidence_rate_hz
    ok = 62.0 <= rate <= 248.0
    report(12, ok, f"thinned coincidence rate = {rate:.1f} Hz "
                   f"(within factor 2 of 124 Hz)")
