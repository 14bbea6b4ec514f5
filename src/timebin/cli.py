"""Command-line front end.

Subcommands: simulate {bell|ghz|hom}, analyze, fringe-scan,
rabi-calibration.  Every run writes a manifest echoing the resolved
configuration plus report/CSV artifacts into the output directory; outputs
are byte-identical for identical configurations.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 undefined
estimate.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pickle
import signal
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

from . import coincidence as coin
from . import experiments as exp
from . import witness as wit
from .config import (MAX_GHZ_QUBITS, V_CLASSICAL_BACKSOLVED, RunConfig,
                     load_config, noise_off, paper_emitter, paper_noise,
                     paper_tbi, write_manifest)
from .coincidence import WindowConfig
from .errors import (ConfigurationError, ContractError, ParseError,
                     UndefinedEstimateError)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    # bool before int: a Python bool is an int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _witness_report(outcome, extra: dict) -> dict:
    settings = {}
    for label, acc in outcome.counts.items():
        probs = acc.probabilities()
        settings[label] = {
            "counts": {wit.outcome_label(k, acc.setting): v
                       for k, v in sorted(acc.counts.items())},
            "probabilities": {wit.outcome_label(k, acc.setting): p
                              for k, p in sorted(probs.items())},
            "n_events": acc.total,
        }
    correlators = {k: {"value": v, "error": e}
                   for k, (v, e) in outcome.correlators.items()}
    report = {
        "n_qubits": outcome.n_qubits,
        "settings": settings,
        "population": {"value": outcome.population[0], "error": outcome.population[1]},
        "correlators": correlators,
        "fidelity": {"value": outcome.fidelity, "error": outcome.fidelity_err},
        "fidelity_corrected": {"value": outcome.corrected_fidelity,
                               "error": outcome.corrected_fidelity_err},
        "background_event_fraction": outcome.leak_event_fraction,
        "witness_violated": outcome.witness_violated,
        "separable_bound": 0.5,
    }
    report.update(extra)
    return report


def _counts_csv(path: Path, outcome) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "outcome", "events", "probability"])
        for label, acc in outcome.counts.items():
            probs = acc.probabilities()
            for key in sorted(acc.counts):
                writer.writerow([label, wit.outcome_label(key, acc.setting),
                                 f"{acc.counts[key]:.6g}", f"{probs[key]:.8f}"])


def _run_simulate(config: RunConfig, out: Path) -> list[str]:
    outputs = []
    if config.experiment in ("bell", "ghz"):
        n_qubits = 2 if config.experiment == "bell" else config.n_qubits
        # the exact reference shares no state with the sampled run, so it is
        # computed beside it, before the run's arrays exist
        with _beside(lambda: exp.witness_exact(
                n_qubits, config.emitter, config.noise, config.tbi,
                thinned=config.thinned).fidelity) as exact_fidelity:
            run = exp.witness_trajectory(n_qubits, config.emitter, config.noise,
                                         config.tbi, config.n_repetitions,
                                         config.master_seed,
                                         thinned=config.thinned,
                                         keep_clicks=config.write_timetags)
            exact = exact_fidelity()
        report = _witness_report(run.outcome, {
            "experiment": config.experiment,
            "n_repetitions": config.n_repetitions,
            "master_seed": config.master_seed,
            "exact_reference_fidelity": exact,
            "coincidence_rate_hz": run.coincidence_rate_hz,
            "thinned": config.thinned,
        })
        _write_report(out / "report.json", report)
        outputs.append("report.json")
        _counts_csv(out / "counts.csv", run.outcome)
        outputs.append("counts.csv")
        if config.write_timetags and run.clicks:
            tags = _concat_tags([c.to_tags(config.emitter.gamma0)
                                 for c in run.clicks])
            coin.export_timetags(out / "timetags.csv", tags)
            outputs.append("timetags.csv")
            if len(tags):
                starts, counts = coin.build_histogram(tags, bin_width=0.5)
                coin.histogram_to_csv(out / "histogram.csv", starts, counts)
                outputs.append("histogram.csv")
    elif config.experiment == "hom":
        run = exp.simulate_hom(config.emitter, config.noise, config.tbi,
                               config.n_repetitions, config.master_seed,
                               thinned=config.thinned,
                               v_classical_assumed=V_CLASSICAL_BACKSOLVED)
        report = {
            "experiment": "hom",
            "n_repetitions": config.n_repetitions,
            "master_seed": config.master_seed,
            "g2_zero": {"value": run.g2, "error": run.g2_err},
            "g2_per_class": run.g2_detail,
            "hom_counts": {"n1": run.hom_counts.n1, "n2": run.hom_counts.n2,
                           "n3": run.hom_counts.n3},
            "v_raw": {"value": run.v_raw, "error": run.v_raw_err},
            "v_corrected": {"value": run.v_corrected,
                            "v_classical_assumed": V_CLASSICAL_BACKSOLVED,
                            "note": "v_classical back-solved from the "
                                    "characterization chain, not measured"},
        }
        _write_report(out / "report.json", report)
        outputs.append("report.json")
        if config.write_timetags and len(run.tags):
            coin.export_timetags(out / "timetags.csv", run.tags)
            outputs.append("timetags.csv")
            starts, counts = coin.build_histogram(run.tags, bin_width=0.5)
            coin.histogram_to_csv(out / "histogram.csv", starts, counts)
            outputs.append("histogram.csv")
    else:
        raise ConfigurationError(f"simulate cannot run {config.experiment!r}")
    return outputs


@contextlib.contextmanager
def _beside(compute):
    """Run compute() -> float in a forked child while the block runs; the
    block calls the yielded join to read its value or raise its exception.

    The child sends back the float's 8 bytes, or its pickled exception,
    over a pipe.  A child that ends without either is a ContractError
    naming its exit status.  A block left by any exception before join
    returns kills the child; either way it is reaped before the block is
    left.  Without os.fork, join runs compute() inline.
    """
    if not hasattr(os, "fork"):
        yield compute
        return
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns of fork in a process with other threads; under
        # -W error the warning would be raised after the child exists and
        # lose its pid.  The only other threads here are BLAS workers, which
        # hold no Python lock, and OpenBLAS resets its pool in a forked child.
        warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = b"F" + struct.pack("<d", compute())
            except BaseException as exc:  # sent to the parent, which raises it
                payload = b"E" + pickle.dumps(exc)
            with open(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    wait_status = None

    def join() -> float:
        nonlocal wait_status
        payload = reader.read()
        wait_status = os.waitpid(pid, 0)[1]
        if payload[:1] == b"F" and len(payload) == 9:
            return struct.unpack("<d", payload[1:])[0]
        if payload[:1] == b"E":
            raise pickle.loads(payload[1:])
        code = os.waitstatus_to_exitcode(wait_status)
        ended = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise ContractError(f"the exact reference process ended without a result "
                            f"({ended})")

    with open(read_fd, "rb") as reader:
        try:
            yield join
        finally:
            if wait_status is None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _concat_tags(tag_list):
    """The tags of every sub-run in one sorted TagArrays; empties tag_list,
    so the parts are freed before the sort."""
    det = np.concatenate([t.detector for t in tag_list])
    time = np.concatenate([t.time for t in tag_list])
    rep = np.concatenate([t.repetition for t in tag_list])
    tag_list.clear()
    return coin.sorted_tags(det, time, rep)


def _run_fringe_scan(config: RunConfig, out: Path) -> list[str]:
    import csv

    theta = np.linspace(config.fringe_span[0], config.fringe_span[1],
                        config.fringe_points)
    if config.fringe_mode == "classical":
        scan = exp.classical_fringe_scan(config.tbi, theta,
                                         photons_per_point=max(
                                             config.n_repetitions
                                             // config.fringe_points, 100),
                                         master_seed=config.master_seed)
    elif config.fringe_mode == "spin-conditioned":
        scan = exp.spin_conditioned_fringe_scan(
            config.emitter, config.noise, config.tbi, theta,
            reps_per_point=max(config.n_repetitions // config.fringe_points, 100),
            master_seed=config.master_seed)
    else:
        raise ConfigurationError(f"unknown fringe mode {config.fringe_mode!r}")
    with open(out / "fringe.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        labels = list(scan.contrast)
        writer.writerow(["theta_pol_rad"] + [f"contrast_{l}" for l in labels])
        for i, th in enumerate(scan.theta):
            writer.writerow([f"{th:.8f}"]
                            + [f"{scan.contrast[l][i]:.8f}" for l in labels])
    report = {
        "experiment": "fringe-scan",
        "mode": config.fringe_mode,
        "fits": {label: {"amplitude": amp, "theta0": th0}
                 for label, (amp, th0) in scan.fits.items()},
        "theta0_true": config.tbi.theta0,
        "classical_visibility_true": config.tbi.classical_visibility,
    }
    _write_report(out / "report.json", report)
    return ["fringe.csv", "report.json"]


def _run_rabi(config: RunConfig, out: Path) -> list[str]:
    import csv

    cal = exp.rabi_calibration(config.noise)
    with open(out / "rabi.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pulse_area_rad", "up_population"])
        for a, p in zip(cal.angles, cal.population):
            writer.writerow([f"{a:.8f}", f"{p:.10f}"])
    report = {
        "experiment": "rabi-calibration",
        "f_pi_target": cal.target,
        "pi_population": cal.pi_population,
        "matches_target": cal.matches_target,
    }
    _write_report(out / "report.json", report)
    return ["rabi.csv", "report.json"]


def _run_analyze(args) -> list[str]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tags = coin.ingest_timetags(args.input)
    if len(tags) == 0:
        raise UndefinedEstimateError("input file holds no time tags")
    cfg = _read_manifest(args.manifest) if args.manifest else None
    # the windows of the run's sequence, or without a manifest the ones
    # simulate hom analyses its own tags with at the default t_inf
    windows = _manifest_windows(cfg) if cfg else WindowConfig.for_sequence(1)
    outputs = []
    if args.mode == "histogram":
        starts, counts = coin.build_histogram(tags, bin_width=args.bin_width)
        coin.histogram_to_csv(out / "histogram.csv", starts, counts)
        report = {"mode": "histogram", "n_tags": len(tags),
                  "bin_width_ns": args.bin_width}
        outputs.append("histogram.csv")
    elif args.mode == "g2":
        g2, err, detail = coin.g2_zero(tags, windows)
        report = {"mode": "g2", "g2_zero": {"value": g2, "error": err},
                  "per_class": detail}
    elif args.mode == "hom":
        counts = coin.hom_counts_from_tags(tags, windows)
        v_raw, v_err = coin.hom_visibility(counts)
        g2, g2_err, detail = coin.g2_zero(tags, windows)
        v_corr = coin.hom_correct(v_raw, g2, V_CLASSICAL_BACKSOLVED)
        report = {"mode": "hom",
                  "hom_counts": {"n1": counts.n1, "n2": counts.n2, "n3": counts.n3},
                  "v_raw": {"value": v_raw, "error": v_err},
                  "g2_zero": {"value": g2, "error": g2_err},
                  "v_corrected": {"value": v_corr,
                                  "v_classical_assumed": V_CLASSICAL_BACKSOLVED}}
    elif args.mode == "witness":
        report = _analyze_witness(tags, cfg, windows)
    else:
        raise ConfigurationError(f"unknown analyze mode {args.mode!r}")
    report["configuration"] = {"input": str(args.input), "mode": args.mode,
                               "bin_width_ns": args.bin_width,
                               "windows": dataclasses.asdict(windows)}
    _write_report(out / "analysis.json", report)
    outputs.append("analysis.json")
    return outputs


def _read_manifest(path) -> dict:
    """The run configuration a manifest echoes, with every key analyze reads
    checked: experiment, emitter.t_inf and emitter.photon_spacing_ns, and a
    ghz run's n_qubits, an integer of 3..MAX_GHZ_QUBITS."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"manifest {path} is not JSON: {exc}") from None

    def read(section: dict, key: str, name: str):
        if not isinstance(section, dict) or key not in section:
            raise ConfigurationError(f"manifest {path} has no {name}")
        return section[key]

    cfg = read(manifest, "config", "config")
    emitter = read(cfg, "emitter", "config.emitter")
    for key in ("t_inf", "photon_spacing_ns"):
        value = read(emitter, key, f"config.emitter.{key}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"manifest {path}: config.emitter.{key} "
                                     f"must be a number, not {value!r}")
    if read(cfg, "experiment", "config.experiment") == "ghz":
        n_qubits = read(cfg, "n_qubits", "config.n_qubits")
        if isinstance(n_qubits, bool) or not isinstance(n_qubits, int):
            raise ConfigurationError(f"manifest {path}: config.n_qubits must be "
                                     f"an integer, not {n_qubits!r}")
        if not 3 <= n_qubits <= MAX_GHZ_QUBITS:
            raise ConfigurationError(f"manifest {path}: config.n_qubits of a ghz "
                                     f"run must lie in 3..{MAX_GHZ_QUBITS}, not "
                                     f"{n_qubits}")
    return cfg


def _manifest_windows(cfg: dict) -> WindowConfig:
    """The detection windows of the sequence a manifest's run evolved: one
    photon slot for bell and hom, n_qubits - 1 for ghz."""
    n_slots = cfg["n_qubits"] - 1 if cfg["experiment"] == "ghz" else 1
    return WindowConfig.for_sequence(n_slots, t_inf=cfg["emitter"]["t_inf"],
                                     slot_spacing=cfg["emitter"]["photon_spacing_ns"])


def _analyze_witness(tags, cfg: dict | None, windows: WindowConfig) -> dict:
    """Reconstruct witness estimates from bare tags plus the configuration
    echoed in the run manifest, classified with the run's windows."""
    if cfg is None:
        raise ConfigurationError("witness analysis needs --manifest from the run")
    if cfg["experiment"] not in ("bell", "ghz"):
        raise ConfigurationError("witness analysis needs the manifest of a bell "
                                 f"or ghz run, not {cfg['experiment']!r}")
    n_qubits = 2 if cfg["experiment"] == "bell" else cfg["n_qubits"]
    settings = wit.ghz_settings(n_qubits)
    n_subs = 2 * len(settings)
    # one repetition's tags are contiguous in the sorted view: count its
    # photonic tags per (slot, window, detector) cell, then count the
    # readout-clicked repetitions of each sub-run row by row
    tags, code = coin._analysis_view(tags, windows)
    new_rep = np.r_[True, tags.repetition[1:] != tags.repetition[:-1]]
    starts = np.flatnonzero(new_rep)
    readout = np.logical_or.reduceat(code == coin.READOUT, starts)
    photonic = (code & 3) != coin.READOUT
    n_cells = 6 * windows.n_slots
    flat = np.cumsum(new_rep)[photonic]
    flat -= 1
    flat *= n_cells
    # (slot, window) of each photonic tag, widened first: click_cell of
    # int8 codes would wrap past slot 20
    flat += coin.click_cell(*np.divmod(code[photonic].astype(np.intp), 4),
                            tags.detector[photonic])
    # counted per occupied (repetition, cell) rather than in a table of
    # every repetition's cells
    flat, n_tags = np.unique(flat, return_counts=True)
    if n_tags.max(initial=0) > 255:
        rep = tags.repetition[starts[flat[np.argmax(n_tags > 255)] // n_cells]]
        raise ContractError(f"repetition {rep} holds more than 255 tags in one "
                            "window on one detector")
    cells = np.zeros((len(starts), n_cells), np.uint8)
    cells.ravel()[flat] = n_tags
    sub_run = tags.repetition[starts] % n_subs
    counts = {s.label: wit.SettingCounts(s, n_qubits - 1) for s in settings}
    for sub in range(n_subs):
        rows = cells[readout & (sub_run == sub)]
        counts[settings[sub // 2].label].add_expected(sub % 2, rows,
                                                      np.ones((len(rows), 1)))
    estimates, (f, f_err) = wit.fidelity_estimate(n_qubits, counts)
    return {"mode": "witness", "n_qubits": n_qubits,
            "estimates": {label: {"value": v, "error": e}
                          for label, (v, e) in estimates.items()},
            "fidelity": {"value": f, "error": f_err},
            "witness_violated": f > 0.5}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (sectioned key = value)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--defaults", choices=["paper"],
                        help="start from the characterized-source preset")
    parser.add_argument("--noise", choices=["off"],
                        help="off disables every error channel")
    parser.add_argument("--thinning", choices=["on", "off"],
                        help="apply physical detection efficiencies")
    parser.add_argument("--no-timetags", action="store_true",
                        help="skip the time-tag CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebin",
        description="Simulate and analyze time-bin spin-photon entanglement "
                    "generation from a single quantum emitter.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("experiment", choices=["bell", "ghz", "hom"])
    sim.add_argument("--photons", type=int,
                     help="GHZ register size in qubits (spin plus photons; default 3)")
    _add_common(sim)

    ana = sub.add_parser("analyze", help="analyze a time-tag CSV")
    ana.add_argument("--input", required=True, help="time-tag CSV path")
    ana.add_argument("--mode", required=True,
                     choices=["g2", "hom", "histogram", "witness"])
    ana.add_argument("--manifest",
                     help="run manifest: its windows (required in witness mode)")
    ana.add_argument("--bin-width", type=float, default=0.5)
    ana.add_argument("--out", default="runs")

    fr = sub.add_parser("fringe-scan", help="polarizer-angle fringe scan")
    # defaults live in RunConfig, so a --config file value is not overridden
    fr.add_argument("--mode", choices=["classical", "spin-conditioned"],
                    help="default classical")
    fr.add_argument("--points", type=int, help="default 20")
    fr.add_argument("--span", type=float, nargs=2, help="default 0 pi")
    _add_common(fr)

    rb = sub.add_parser("rabi-calibration", help="rotation-quality sweep")
    rb.add_argument("--f-pi", type=float, help="target pi-pulse fidelity")
    _add_common(rb)
    return parser


def _resolve_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = load_config(args.config, config)
    if getattr(args, "defaults", None) == "paper":
        config = dataclasses.replace(config, emitter=paper_emitter(),
                                     noise=paper_noise(), tbi=paper_tbi())
    over = {}
    if getattr(args, "seed", None) is not None:
        over["master_seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        over["n_repetitions"] = args.reps
    if getattr(args, "thinning", None) is not None:
        over["thinned"] = args.thinning == "on"
    if getattr(args, "no_timetags", False):
        over["write_timetags"] = False
    if getattr(args, "out", None):
        over["out_dir"] = args.out
    if args.command == "simulate":
        over["experiment"] = args.experiment
        if args.experiment == "ghz" and args.photons is not None:
            over["n_qubits"] = args.photons
    elif args.command == "fringe-scan":
        over["experiment"] = "fringe-scan"
        if args.mode is not None:
            over["fringe_mode"] = args.mode
        if args.points is not None:
            over["fringe_points"] = args.points
        if args.span is not None:
            over["fringe_span"] = tuple(args.span)
    elif args.command == "rabi-calibration":
        over["experiment"] = "rabi-calibration"
    config = dataclasses.replace(config, **over)
    if getattr(args, "noise", None) == "off":
        config = noise_off(config)
    if args.command == "rabi-calibration" and getattr(args, "f_pi", None):
        config = dataclasses.replace(
            config, noise=dataclasses.replace(config.noise, f_pi=args.f_pi))
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            outputs = _run_analyze(args)
            print(f"analysis written to {args.out}: {', '.join(outputs)}")
            return 0
        config = _resolve_config(args)
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            outputs = _run_simulate(config, out)
        elif args.command == "fringe-scan":
            outputs = _run_fringe_scan(config, out)
        else:
            outputs = _run_rabi(config, out)
        write_manifest(out / "manifest.json", config, outputs)
        print(f"run written to {out}: manifest.json, {', '.join(outputs)}")
        return 0
    except (ConfigurationError, ContractError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UndefinedEstimateError as exc:
        print(f"undefined estimate: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
