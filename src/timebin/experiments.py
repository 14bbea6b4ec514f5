"""Experiment orchestration: entanglement witness runs, photon-purity runs,
fringe scans and the rotation calibration sweep.

Each witness run loops over the n+1 measurement settings; every setting has
two spin sub-settings (the toggled readout rotation), each compiled into its
own pulse sequence and detection model.  Repetitions are assigned to
sub-runs round-robin by repetition index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coincidence as coin
from . import witness as wit
from .coincidence import MIDDLE, WindowConfig
from .detection import DetectionModel, RunClicks
from .emitter import (EmitterParams, NoiseParams, PulseSequence,
                      build_bell_sequence, build_ghz_sequence,
                      build_hom_sequence, run_sequence_exact,
                      run_sequence_trajectory)
from .hilbert import DensityOperator
from .interferometer import TBIParams, excitation_phase
from .witness import (MeasurementSetting, SettingCounts, ghz_fidelity,
                      ghz_settings, pattern_outcomes)


@dataclass
class SubRun:
    setting: MeasurementSetting
    sub_index: int
    sequence: PulseSequence
    tbi: TBIParams
    windows: WindowConfig


def _witness_subruns(n_qubits: int, params: EmitterParams, tbi: TBIParams
                     ) -> list[SubRun]:
    n_photons = n_qubits - 1
    windows = WindowConfig.for_sequence(n_photons, t_inf=params.t_inf,
                                        slot_spacing=params.photon_spacing_ns,
                                        repetition_period=params.repetition_period_ns)
    subruns = []
    for setting in ghz_settings(n_qubits):
        tbi_s = tbi.with_theta_pol(tbi.theta0 + setting.theta_pol_offset)
        phase_e = excitation_phase(tbi_s)
        if n_photons == 1:
            base = build_bell_sequence(params, phase_e=phase_e)
        else:
            base = build_ghz_sequence(n_photons, params, phase_e=phase_e)
        for sub_i, sub in enumerate(setting.subsettings):
            seq = base.with_readout_rotation(sub.axis, sub.angle)
            subruns.append(SubRun(setting, sub_i, seq, tbi_s, windows))
    return subruns


@dataclass
class WitnessOutcome:
    """Per-setting estimates and the assembled fidelity."""

    n_qubits: int
    counts: dict                      # label -> SettingCounts
    population: tuple[float, float]
    correlators: dict                 # label -> (value, err)
    fidelity: float
    fidelity_err: float
    witness_violated: bool
    n_heralded: dict
    leak_event_fraction: float = 0.0
    corrected_fidelity: float | None = None
    corrected_fidelity_err: float | None = None

    @classmethod
    def from_counts(cls, n_qubits: int, counts: dict,
                    leak_event_fraction: float = 0.0) -> "WitnessOutcome":
        settings = ghz_settings(n_qubits)
        pop_counts = counts[settings[0].label]
        pop, pop_err = pop_counts.population()
        correlators = {}
        mks, mk_errs = [], []
        for setting in settings[1:]:
            e, err = counts[setting.label].expectation()
            correlators[setting.label] = (e, err)
            mks.append(e)
            mk_errs.append(err)
        f, f_err = ghz_fidelity(n_qubits, pop, mks, pop_err, mk_errs)
        outcome = cls(n_qubits, counts, (pop, pop_err), correlators, f, f_err,
                      f > 0.5, {k: c.total for k, c in counts.items()},
                      leak_event_fraction)
        outcome._apply_background_correction()
        return outcome

    def _apply_background_correction(self) -> None:
        if self.leak_event_fraction <= 0.0:
            self.corrected_fidelity = self.fidelity
            self.corrected_fidelity_err = self.fidelity_err
            return
        settings = ghz_settings(self.n_qubits)
        corr_counts = {}
        for setting in settings:
            acc = self.counts[setting.label]
            corrected, _ = wit.background_correct(acc.counts, self.leak_event_fraction)
            fixed = SettingCounts(setting, self.n_qubits - 1)
            for k, v in corrected.items():
                fixed.add(k, v)
            corr_counts[setting.label] = fixed
        pop, pop_err = corr_counts[settings[0].label].population()
        mks, mk_errs = [], []
        for setting in settings[1:]:
            e, err = corr_counts[setting.label].expectation()
            mks.append(e)
            mk_errs.append(err)
        f, f_err = ghz_fidelity(self.n_qubits, pop, mks, pop_err, mk_errs)
        self.corrected_fidelity = f
        self.corrected_fidelity_err = f_err


# ---------------------------------------------------------------------------
# exact-mode witness
# ---------------------------------------------------------------------------


def witness_exact(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                  tbi: TBIParams, thinned: bool = False) -> WitnessOutcome:
    """Expected-count witness estimate from exact density-operator evolution."""
    subruns = _witness_subruns(n_qubits, params, tbi)
    counts: dict[str, SettingCounts] = {}
    for run in subruns:
        exact = run_sequence_exact(run.sequence, params, noise)
        model = DetectionModel(exact.layout, run.tbi, noise, run.windows, thinned)
        acc = counts.setdefault(run.setting.label,
                                SettingCounts(run.setting, n_qubits - 1))
        sub = run.setting.subsettings[run.sub_index]
        for comp in exact.components:
            for record, readout, p in model.full_distribution(comp.rho,
                                                              comp.flag_clicks):
                if not readout or p <= 0:
                    continue
                for outcome in pattern_outcomes(run.setting, sub, record,
                                                n_qubits - 1):
                    acc.add(outcome, comp.weight * p / len(run.setting.subsettings))
    return WitnessOutcome.from_counts(n_qubits, counts)


def exact_predetection_state(n_qubits: int, params: EmitterParams,
                             noise: NoiseParams, tbi: TBIParams
                             ) -> DensityOperator:
    """Pre-detection density operator of the generation sequence (no readout
    rotation), mainly for direct-fidelity oracle checks."""
    phase_e = excitation_phase(tbi)
    if n_qubits == 2:
        seq = build_bell_sequence(params, phase_e=phase_e)
    else:
        seq = build_ghz_sequence(n_qubits - 1, params, phase_e=phase_e)
    return run_sequence_exact(seq, params, noise).density()


# ---------------------------------------------------------------------------
# trajectory-mode witness
# ---------------------------------------------------------------------------


@dataclass
class WitnessRun:
    outcome: WitnessOutcome
    subruns: list[SubRun]
    clicks: list[RunClicks]
    rep_slices: list[np.ndarray]
    n_repetitions: int
    coincidence_rate_hz: float


def _count_clicks(acc: SettingCounts, run: SubRun, clicks: RunClicks,
                  n_slots: int) -> tuple[float, float]:
    """Accumulate heralded events; returns (leak events, total events).

    Repetitions are grouped by their click record and whether the readout
    click is background light only.  An event counts as a leak event when
    its readout click is background light or its click combination uses a
    background click in a photonic window.
    """
    sub = run.setting.subsettings[run.sub_index]
    codes, mapping = clicks.outcome_codes()
    leak_read = clicks.readout_leak & ~clicks.readout_signal
    keys, first, n_rows = np.unique(codes * 2 + leak_read, return_index=True,
                                    return_counts=True)
    totals: dict = {}
    leak_events = 0
    for key, row, n in zip(keys.tolist(), first, n_rows.tolist()):
        record, readout = mapping[key // 2]
        outs = pattern_outcomes(run.setting, sub, record, n_slots) if readout else []
        if not outs:
            continue
        for outcome in outs:
            totals[outcome] = totals.get(outcome, 0) + n
        if key % 2:
            leak_events += n * len(outs)
        else:
            signal = pattern_outcomes(run.setting, sub,
                                      clicks.clicks_of(row, leak=False), n_slots)
            leak_events += n * (len(outs) - len(signal))
    for outcome, n in totals.items():
        acc.add(outcome, float(n))
    return float(leak_events), float(sum(totals.values()))


def witness_trajectory(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                       tbi: TBIParams, n_repetitions: int, master_seed: int,
                       thinned: bool = False, keep_clicks: bool = False
                       ) -> WitnessRun:
    """Monte Carlo witness estimate over n_repetitions sampled repetitions.

    Repetition r runs sub-setting r mod (2n+2); post-selected counts merge
    across sub-runs.  With thinned=True all efficiencies are applied and the
    post-selected coincidence rate is physical.
    """
    subruns = _witness_subruns(n_qubits, params, tbi)
    all_reps = np.arange(n_repetitions, dtype=np.uint64)
    counts: dict[str, SettingCounts] = {}
    clicks_list: list[RunClicks] = []
    slices: list[np.ndarray] = []
    leak_events = 0.0
    total_events = 0.0
    coincident_reps = 0
    for k, run in enumerate(subruns):
        reps = all_reps[all_reps % len(subruns) == k]
        slices.append(reps)
        acc = counts.setdefault(run.setting.label,
                                SettingCounts(run.setting, n_qubits - 1))
        if reps.size == 0:
            continue
        traj = run_sequence_trajectory(run.sequence, params, noise, master_seed, reps)
        model = DetectionModel(traj.layout, run.tbi, noise, run.windows, thinned)
        clicks = model.sample_run(traj, master_seed)
        lk, tot = _count_clicks(acc, run, clicks, n_qubits - 1)
        leak_events += lk
        total_events += tot
        coincident_reps += _count_coincident(clicks)
        if keep_clicks:
            clicks_list.append(clicks)
    leak_fraction = leak_events / total_events if total_events > 0 else 0.0
    outcome = WitnessOutcome.from_counts(n_qubits, counts, leak_fraction)
    duration_s = n_repetitions / (params.repetition_rate_mhz * 1e6)
    rate = coincident_reps / duration_s if duration_s > 0 else 0.0
    return WitnessRun(outcome, subruns, clicks_list, slices, n_repetitions, rate)


def _count_coincident(clicks: RunClicks) -> int:
    """Repetitions with a click in any photonic window plus a readout click."""
    photonic = (clicks.signal | clicks.flagged | clicks.background).any(axis=1)
    return int(np.count_nonzero(photonic & clicks.readout_clicks))


def trajectory_exact_tvd(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                         tbi: TBIParams, n_repetitions: int, master_seed: int,
                         thinned: bool = True, setting_index: int = 1,
                         sub_index: int = 0) -> float:
    """Total variation distance between sampled and exact outcome distributions.

    Runs one sub-setting's sequence for all repetitions and compares the
    empirical frequencies of (click record, readout flag) outcomes against
    the exact-mode distribution of the same sequence.
    """
    subruns = _witness_subruns(n_qubits, params, tbi)
    run = subruns[2 * setting_index + sub_index]
    reps = np.arange(n_repetitions, dtype=np.uint64)
    traj = run_sequence_trajectory(run.sequence, params, noise, master_seed, reps)
    model = DetectionModel(traj.layout, run.tbi, noise, run.windows, thinned)
    clicks = model.sample_run(traj, master_seed)
    codes, mapping = clicks.outcome_codes()
    empirical: dict = {}
    uniq, counts_arr = np.unique(codes, return_counts=True)
    for code, cnt in zip(uniq, counts_arr):
        key = mapping[int(code)]
        empirical[key] = empirical.get(key, 0.0) + cnt / n_repetitions
    exact = run_sequence_exact(run.sequence, params, noise)
    model_e = DetectionModel(exact.layout, run.tbi, noise, run.windows, thinned)
    predicted: dict = {}
    for comp in exact.components:
        for record, readout, p in model_e.full_distribution(comp.rho,
                                                            comp.flag_clicks):
            key = (record, readout)
            predicted[key] = predicted.get(key, 0.0) + comp.weight * p
    total = sum(predicted.values())
    predicted = {k: v / total for k, v in predicted.items()}
    keys = set(empirical) | set(predicted)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - predicted.get(k, 0.0))
                     for k in keys)


# ---------------------------------------------------------------------------
# photon purity (g2 / HOM)
# ---------------------------------------------------------------------------


@dataclass
class HomRun:
    tags: coin.TagArrays
    windows: WindowConfig
    g2: float
    g2_err: float
    g2_detail: dict
    hom_counts: coin.HomCounts
    v_raw: float
    v_raw_err: float
    v_corrected: float
    n_repetitions: int


def simulate_hom(params: EmitterParams, noise: NoiseParams, tbi: TBIParams,
                 n_repetitions: int, master_seed: int, thinned: bool = False,
                 v_classical_assumed: float | None = None) -> HomRun:
    """Run the two-photon sequence and analyze g2(0) and HOM visibility."""
    windows = WindowConfig.for_sequence(1, t_inf=params.t_inf,
                                        repetition_period=params.repetition_period_ns)
    seq = build_hom_sequence(params)
    reps = np.arange(n_repetitions, dtype=np.uint64)
    traj = run_sequence_trajectory(seq, params, noise, master_seed, reps)
    model = DetectionModel(traj.layout, tbi, noise, windows, thinned)
    clicks = model.sample_run(traj, master_seed)
    tags = clicks.to_tags(gamma0=params.gamma0)
    g2, g2_err, detail = coin.g2_zero(tags, windows)
    hom_counts = coin.hom_counts_from_tags(tags, windows)
    v_raw, v_err = coin.hom_visibility(hom_counts)
    v_cl = tbi.classical_visibility if v_classical_assumed is None else v_classical_assumed
    v_corr = coin.hom_correct(v_raw, g2, v_cl)
    return HomRun(tags, windows, g2, g2_err, detail, hom_counts, v_raw, v_err,
                  v_corr, n_repetitions)


# ---------------------------------------------------------------------------
# fringe scans
# ---------------------------------------------------------------------------


@dataclass
class FringeScan:
    theta: np.ndarray
    contrast: dict            # curve label -> contrast array
    fits: dict                # curve label -> (amplitude, theta0)


def classical_fringe_scan(tbi: TBIParams, theta_values: np.ndarray,
                          photons_per_point: int, master_seed: int) -> FringeScan:
    """Middle-window contrast of a classical double-pass input, with shot noise."""
    from . import rng as crng

    theta_values = np.asarray(theta_values, dtype=float)
    contrast = np.empty_like(theta_values)
    for i, th in enumerate(theta_values):
        p1 = 0.5 * (1.0 + tbi.classical_visibility * math.cos(2.0 * (th - tbi.theta0)))
        u = crng.uniforms(master_seed, np.arange(photons_per_point, dtype=np.uint64)
                          + np.uint64(i * photons_per_point), stream=41)
        n1 = int(np.sum(u < p1))
        contrast[i] = (2.0 * n1 - photons_per_point) / photons_per_point
    fit = _fit(theta_values, contrast)
    return FringeScan(theta_values, {"classical": contrast}, {"classical": fit})


def _fit(theta, contrast):
    from .interferometer import fit_fringe
    return fit_fringe(theta, contrast)


def spin_conditioned_fringe_scan(params: EmitterParams, noise: NoiseParams,
                                 tbi: TBIParams, theta_values: np.ndarray,
                                 reps_per_point: int, master_seed: int) -> FringeScan:
    """Middle-window contrast of the Bell photon conditioned on spin +-X.

    Uses the readout rotations R_y(+-pi/2); each angle point is an
    independent pair of sub-runs, and point i's +X (-X) sub-run draws on
    its own repetition indices from 2i (2i + 1) * reps_per_point onwards.
    """
    theta_values = np.asarray(theta_values, dtype=float)
    curves = {"+X": np.empty_like(theta_values), "-X": np.empty_like(theta_values)}
    for i, th in enumerate(theta_values):
        tbi_th = tbi.with_theta_pol(th)
        phase_e = excitation_phase(tbi_th)
        windows = WindowConfig.for_sequence(1, t_inf=params.t_inf,
                                            repetition_period=params.repetition_period_ns)
        for label, angle in (("+X", math.pi / 2), ("-X", -math.pi / 2)):
            seq = build_bell_sequence(params, phase_e=phase_e).with_readout_rotation(
                "y", angle)
            reps = np.arange(reps_per_point, dtype=np.uint64) \
                + np.uint64((2 * i + (label == "-X")) * reps_per_point)
            traj = run_sequence_trajectory(seq, params, noise, master_seed, reps)
            model = DetectionModel(traj.layout, tbi_th, noise, windows, thinned=False)
            clicks = model.sample_run(traj, master_seed)
            # middle-window signal clicks of the heralded repetitions, by detector
            signal = clicks.signal[clicks.readout_clicks]
            cells = signal.reshape(len(signal), -1, 3, 2)  # (rep, slot, window, det)
            n1, n2 = cells[:, :, MIDDLE].sum(axis=(0, 1)).tolist()
            total = n1 + n2
            curves[label][i] = (n1 - n2) / total if total else 0.0
    fits = {label: _fit(theta_values, c) for label, c in curves.items()}
    return FringeScan(theta_values, curves, fits)


# ---------------------------------------------------------------------------
# rotation calibration
# ---------------------------------------------------------------------------


@dataclass
class RabiCalibration:
    angles: np.ndarray
    population: np.ndarray
    pi_population: float
    target: float

    @property
    def matches_target(self) -> bool:
        return abs(self.pi_population - self.target) < 1e-6


def rabi_calibration(noise: NoiseParams, n_points: int = 41) -> RabiCalibration:
    """Sweep pulse area 0..2pi and verify the pi-point transfer equals f_pi."""
    from .emitter import rabi_curve, rabi_population

    angles = np.linspace(0.0, 2.0 * math.pi, n_points)
    pops = rabi_curve(angles, noise)
    return RabiCalibration(angles, pops, rabi_population(math.pi, noise), noise.f_pi)
