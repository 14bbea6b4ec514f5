"""Experiment orchestration: entanglement witness runs, photon-purity runs,
fringe scans and the rotation calibration sweep.

Each witness run loops over the n+1 measurement settings; every setting has
two spin sub-settings (the toggled readout rotation).  A sub-run's pulse
sequence is the generation sequence at excitation phase 0, followed by a
wait and the sub-setting's readout rotation; the setting's phase is a
detection setting, carried by its click POVM (`slot_window_povm`).  Exact
mode evolves the generation once per witness and continues each sub-run
from it through its wait and rotation (`run_sequence_exact`'s start=...);
trajectory mode samples each sub-run's whole sequence on the run's one
`TrajectoryTables`, which evolves the shared steps once per state.
Repetitions are assigned to sub-runs round-robin by repetition index.
Both modes count heralded events with `SettingCounts.add_expected`:
trajectory mode each heralded repetition's sampled click row once, exact
mode the rows of the truncated click distribution with their expected
weights and first-order background clicks.  Both assemble the fidelity
with `witness.fidelity_estimate`, as `analyze --mode witness` does.

Trajectory runs walk their repetitions in blocks of about BLOCK_REPS
ascending repetitions (`_blocks`), so memory does not grow with the run.
Every draw is keyed by (master seed, repetition, stream), so a
repetition's record and clicks do not depend on its block.  The run's
`TrajectoryTables` and each setting's `DetectionModel` are kept across
blocks, so no state is evolved twice and no model reads a state out
twice.  A setting's two sub-runs share its phase and so its model, in
both modes; in trajectory mode the model contracts the photon slots once
per state where a sub-run's spin-only tail (wait and readout rotation)
starts, for both sub-runs (`DetectionModel.sample_run`).  Counts are
integer-valued sums, exact in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coincidence as coin
from . import rng as crng
from . import witness as wit
from .coincidence import MIDDLE, WindowConfig
from .detection import DetectionModel, RunClicks
from .emitter import (EmitterParams, ExactResult, NoiseParams, PulseSequence,
                      TrajectoryTables, build_bell_sequence, build_ghz_sequence,
                      build_hom_sequence, rabi_curve, rabi_population,
                      run_sequence_exact, run_sequence_trajectory)
from .errors import UndefinedEstimateError
from .hilbert import DensityOperator
from .interferometer import TBIParams, classical_fringe, effective_phase, fit_fringe
from .witness import MeasurementSetting, SettingCounts, ghz_settings

# repetitions per block of a trajectory run, rounded down to a multiple of
# its sub-run count (`_blocks`)
BLOCK_REPS = 65_536


def _blocks(n_repetitions: int, n_subruns: int = 1):
    """Ascending repetition indices, in blocks of BLOCK_REPS rounded down to
    a multiple of n_subruns (at least n_subruns), so that the rows k,
    k + n_subruns, ... of every block are sub-run k's; the last block is
    shorter when the size does not divide the run."""
    size = max(BLOCK_REPS // n_subruns, 1) * n_subruns
    for lo in range(0, n_repetitions, size):
        yield np.arange(lo, min(lo + size, n_repetitions), dtype=np.uint64)


@dataclass
class SubRun:
    setting: MeasurementSetting
    sub_index: int
    sequence: PulseSequence
    phase: float                      # the setting's analysis phase
    windows: WindowConfig


def _generation_sequence(n_qubits: int) -> PulseSequence:
    return build_bell_sequence() if n_qubits == 2 else build_ghz_sequence(n_qubits - 1)


def _witness_subruns(n_qubits: int, params: EmitterParams) -> list[SubRun]:
    windows = WindowConfig.for_sequence(n_qubits - 1, t_inf=params.t_inf,
                                        slot_spacing=params.photon_spacing_ns)
    base = _generation_sequence(n_qubits)
    subruns = []
    for setting in ghz_settings(n_qubits):
        for sub_i, sub in enumerate(setting.subsettings):
            seq = base.with_readout_rotation(sub.axis, sub.angle)
            subruns.append(SubRun(setting, sub_i, seq, setting.phase, windows))
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
        estimates, (f, f_err) = wit.fidelity_estimate(n_qubits, counts)
        (_, population), *correlators = estimates.items()
        corrected = f, f_err
        if leak_event_fraction > 0.0:
            corrected_counts = {}
            for label, acc in counts.items():
                fixed, _ = wit.background_correct(acc.counts, leak_event_fraction)
                corrected_counts[label] = SettingCounts(acc.setting, acc.n_slots, fixed)
            _, corrected = wit.fidelity_estimate(n_qubits, corrected_counts)
        return cls(n_qubits, counts, population, dict(correlators), f, f_err,
                   f > 0.5, {k: c.total for k, c in counts.items()},
                   leak_event_fraction, *corrected)


# ---------------------------------------------------------------------------
# exact-mode witness
# ---------------------------------------------------------------------------


def witness_exact(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                  tbi: TBIParams, thinned: bool = False) -> WitnessOutcome:
    """Expected-count witness estimate from exact density-operator evolution
    (`_exact_counts`)."""
    return WitnessOutcome.from_counts(n_qubits,
                                      _exact_counts(n_qubits, params, noise, tbi, thinned))


def _exact_counts(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                  tbi: TBIParams, thinned: bool = False) -> dict[str, SettingCounts]:
    """Expected heralded counts of every setting, label -> SettingCounts.

    One generation evolution serves all sub-runs (`_exact_subruns`).  Each
    component's heralded terms (`DetectionModel.readout_terms`) are
    counted in closed form (`SettingCounts.add_expected`), weighted by the
    component's weight over the setting's sub-setting count.
    """
    counts: dict[str, SettingCounts] = {}
    models: dict[str, DetectionModel] = {}
    for run, exact in _exact_subruns(n_qubits, params, noise):
        label = run.setting.label
        acc = counts.setdefault(label, SettingCounts(run.setting, n_qubits - 1))
        n_subs = len(run.setting.subsettings)
        model = models.get(label)
        if model is None:
            model = models[label] = DetectionModel(exact.layout, tbi, run.phase, noise,
                                                   run.windows, thinned)
        for comp in exact.components:
            terms = model.readout_terms(comp.rho, comp.flag_clicks, heralded_only=True)
            scale = comp.weight / n_subs
            acc.add_expected(run.sub_index, terms.rows, terms.weights * scale,
                             terms.leak * scale)
    return counts


def _exact_subruns(n_qubits: int, params: EmitterParams, noise: NoiseParams):
    """(sub-run, its `ExactResult`) of every witness sub-run, in order.

    The generation sequence is evolved once; each sub-run continues its
    components through its wait and readout rotation.  The result equals a
    direct evolution of the sub-run's sequence up to rounding.
    """
    generation = run_sequence_exact(_generation_sequence(n_qubits), params, noise)
    for run in _witness_subruns(n_qubits, params):
        yield run, run_sequence_exact(run.sequence, params, noise, start=generation)


def _exact_distributions(run: SubRun, exact: ExactResult, tbi: TBIParams,
                         noise: NoiseParams, thinned: bool):
    """(weight, `DetectionModel.full_distribution`) of each component of a
    sub-run's exact evolution, in component order."""
    model = DetectionModel(exact.layout, tbi, run.phase, noise, run.windows, thinned)
    for comp in exact.components:
        yield comp.weight, model.full_distribution(comp.rho, comp.flag_clicks)


def exact_predetection_state(n_qubits: int, params: EmitterParams,
                             noise: NoiseParams) -> DensityOperator:
    """Pre-detection density operator of the generation sequence (no readout
    rotation) at excitation phase 0, the state every setting reads, mainly
    for direct-fidelity oracle checks."""
    return run_sequence_exact(_generation_sequence(n_qubits), params, noise).density()


# ---------------------------------------------------------------------------
# trajectory-mode witness
# ---------------------------------------------------------------------------


@dataclass
class WitnessRun:
    outcome: WitnessOutcome
    subruns: list[SubRun]
    n_repetitions: int
    coincidence_rate_hz: float


def _count_clicks(acc: SettingCounts, sub_index: int, clicks: RunClicks
                  ) -> tuple[float, float]:
    """Accumulate heralded events; returns (leak events, total events).

    Each heralded repetition's click row is counted once.  An event counts
    as a leak event when its readout click is background light or its click
    combination uses a background click in a photonic window: the events
    free of background light are those of the signal and flagged clicks
    alone, of the repetitions with a signal readout click.
    """
    heralded = clicks.readout_clicks
    photons = (clicks.signal + clicks.flagged)[heralded]
    total = acc.add_expected(sub_index, photons + clicks.background[heralded],
                             np.ones(len(photons))).sum()
    signal = acc.outcome_multiplicities(photons[clicks.readout_signal[heralded]]).sum()
    return float(total - signal), float(total)


def witness_trajectory(n_qubits: int, params: EmitterParams, noise: NoiseParams,
                       tbi: TBIParams, n_repetitions: int, master_seed: int,
                       thinned: bool = False, on_block=None) -> WitnessRun:
    """Monte Carlo witness estimate over n_repetitions sampled repetitions.

    Repetition r runs sub-setting r mod (2n+2); post-selected counts merge
    across sub-runs.  Every sub-run samples its whole sequence on one
    `TrajectoryTables`, so the generation steps the sub-runs share are
    evolved once per state for the whole run, and each sub-run's records
    are those of a direct run of its sequence.  The run walks blocks of
    repetitions (`_blocks`); on_block, if given, is called with each
    block's `RunClicks` of every sub-run with repetitions in it, in sub-run
    order.
    With thinned=True all efficiencies are applied and the post-selected
    coincidence rate is physical.
    """
    subruns = _witness_subruns(n_qubits, params)
    counts = {}
    for run in subruns:
        counts.setdefault(run.setting.label, SettingCounts(run.setting, n_qubits - 1))
    tables = TrajectoryTables()
    # a setting's sub-runs share its phase, so one model reads them all
    models: dict[str, DetectionModel] = {}
    leak_events = 0.0
    total_events = 0.0
    coincident_reps = 0
    for block in _blocks(n_repetitions, len(subruns)):
        block_clicks = []
        for k, run in enumerate(subruns):
            reps = block[k::len(subruns)]
            if reps.size == 0:
                continue
            traj = run_sequence_trajectory(run.sequence, params, noise, master_seed, reps,
                                           tables=tables)
            model = models.get(run.setting.label)
            if model is None:
                model = models[run.setting.label] = DetectionModel(
                    traj.layout, tbi, run.phase, noise, run.windows, thinned)
            clicks = model.sample_run(traj, master_seed)
            lk, tot = _count_clicks(counts[run.setting.label], run.sub_index, clicks)
            leak_events += lk
            total_events += tot
            coincident_reps += _count_coincident(clicks)
            if on_block is not None:
                block_clicks.append(clicks)
        if on_block is not None:
            on_block(block_clicks)
    leak_fraction = leak_events / total_events if total_events > 0 else 0.0
    outcome = WitnessOutcome.from_counts(n_qubits, counts, leak_fraction)
    duration_s = n_repetitions / (params.repetition_rate_mhz * 1e6)
    rate = coincident_reps / duration_s if duration_s > 0 else 0.0
    return WitnessRun(outcome, subruns, n_repetitions, rate)


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
    empirical frequencies of (click counts, readout flag) outcomes against
    the exact-mode distribution of the same sequence.
    """
    run = _witness_subruns(n_qubits, params)[2 * setting_index + sub_index]
    reps = np.arange(n_repetitions, dtype=np.uint64)
    traj = run_sequence_trajectory(run.sequence, params, noise, master_seed, reps)
    model = DetectionModel(traj.layout, tbi, run.phase, noise, run.windows, thinned)
    clicks = model.sample_run(traj, master_seed)
    sampled = np.column_stack([clicks.signal + clicks.flagged + clicks.background,
                               clicks.readout_clicks])
    dists = list(_exact_distributions(run, run_sequence_exact(run.sequence, params, noise),
                                      tbi, noise, thinned))
    exact = np.concatenate([np.column_stack([d.rows, d.label]) for _, d in dists])
    predicted = np.concatenate([w * d.probs for w, d in dists])
    _, group = coin.distinct_rows(np.concatenate([sampled, exact]))
    n_groups = group.max() + 1
    empirical = np.bincount(group[:n_repetitions], minlength=n_groups) / n_repetitions
    predicted = np.bincount(group[n_repetitions:], predicted, minlength=n_groups)
    return 0.5 * float(np.abs(empirical - predicted / predicted.sum()).sum())


# ---------------------------------------------------------------------------
# photon purity (g2 / HOM)
# ---------------------------------------------------------------------------


@dataclass
class HomRun:
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
                 v_classical_assumed: float | None = None, on_block=None) -> HomRun:
    """Run the two-photon sequence and analyze g2(0) and HOM visibility.

    The run walks blocks of repetitions (`_blocks`): each block's clicks are
    expanded into time tags and added to the g2 and HOM sums
    (`coincidence.G2Counts`, `coincidence.HomPairs`); on_block, if given,
    is called with each block's tags, which follow the blocks before in
    (repetition, time, detector) order.
    """
    windows = WindowConfig.for_sequence(1, t_inf=params.t_inf)
    seq = build_hom_sequence()
    tables = TrajectoryTables()
    model = None
    g2_counts = coin.G2Counts(windows)
    pairs = coin.HomPairs(windows)
    for reps in _blocks(n_repetitions):
        traj = run_sequence_trajectory(seq, params, noise, master_seed, reps,
                                       tables=tables)
        if model is None:
            # no early-late coherence: every phase reads the two photons alike
            model = DetectionModel(traj.layout, tbi, 0.0, noise, windows, thinned)
        tags = model.sample_run(traj, master_seed).to_tags(gamma0=params.gamma0)
        g2_counts.add(tags)
        pairs.add(tags)
        if on_block is not None:
            on_block(tags)
    g2, g2_err, detail = g2_counts.result()
    hom_counts = pairs.result()
    v_raw, v_err = coin.hom_visibility(hom_counts)
    v_cl = tbi.classical_visibility if v_classical_assumed is None else v_classical_assumed
    v_corr = coin.hom_correct(v_raw, g2, v_cl)
    return HomRun(windows, g2, g2_err, detail, hom_counts, v_raw, v_err, v_corr,
                  n_repetitions)


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
    theta_values = np.asarray(theta_values, dtype=float)
    contrast = np.empty_like(theta_values)
    for i, p1 in enumerate(0.5 * (1.0 + classical_fringe(theta_values, tbi))):
        u = crng.uniforms(master_seed, np.arange(photons_per_point, dtype=np.uint64)
                          + np.uint64(i * photons_per_point),
                          crng.stream("fringe.photon"))
        n1 = int(np.sum(u < p1))
        contrast[i] = (2.0 * n1 - photons_per_point) / photons_per_point
    fit = fit_fringe(theta_values, contrast)
    return FringeScan(theta_values, {"classical": contrast}, {"classical": fit})


def spin_conditioned_fringe_scan(params: EmitterParams, noise: NoiseParams,
                                 tbi: TBIParams, theta_values: np.ndarray,
                                 reps_per_point: int, master_seed: int) -> FringeScan:
    """Middle-window contrast of the Bell photon conditioned on spin +-X.

    Uses the readout rotations R_y(+-pi/2); each angle point is an
    independent pair of sub-runs, and point i's +X (-X) sub-run draws on
    its own repetition indices from 2i (2i + 1) * reps_per_point onwards.
    A point with no heralded middle-window click raises UndefinedEstimateError.
    """
    theta_values = np.asarray(theta_values, dtype=float)
    curves = {"+X": np.empty_like(theta_values), "-X": np.empty_like(theta_values)}
    windows = WindowConfig.for_sequence(1, t_inf=params.t_inf)
    # the angle is a detection setting: one phase-0 sequence per rotation
    seqs = {label: build_bell_sequence().with_readout_rotation("y", angle)
            for label, angle in (("+X", math.pi / 2), ("-X", -math.pi / 2))}
    for i, th in enumerate(theta_values):
        for label, seq in seqs.items():
            reps = np.arange(reps_per_point, dtype=np.uint64) \
                + np.uint64((2 * i + (label == "-X")) * reps_per_point)
            traj = run_sequence_trajectory(seq, params, noise, master_seed, reps)
            model = DetectionModel(traj.layout, tbi, effective_phase(th, tbi), noise,
                                   windows, thinned=False)
            clicks = model.sample_run(traj, master_seed)
            # signal clicks of the heralded repetitions, per (slot, window, detector)
            cells = clicks.signal[clicks.readout_clicks].reshape(-1, 3, 2)
            n1, n2 = cells[:, MIDDLE].sum(axis=0).tolist()
            if n1 + n2 == 0:
                raise UndefinedEstimateError(f"no heralded middle-window click at "
                                             f"theta_pol = {th:.6g} rad ({label})")
            curves[label][i] = (n1 - n2) / (n1 + n2)
    fits = {label: fit_fringe(theta_values, c) for label, c in curves.items()}
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
    angles = np.linspace(0.0, 2.0 * math.pi, n_points)
    pops = rabi_curve(angles, noise)
    return RabiCalibration(angles, pops, rabi_population(math.pi, noise), noise.f_pi)
