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
from .config import (FRINGE_MODES, V_CLASSICAL_BACKSOLVED, RunConfig,
                     config_from_sections, load_config, noise_off, paper_emitter,
                     paper_noise, paper_tbi, write_manifest)
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
    # a witness run writes its tag file even without tags, hom only with some
    tag_files = (_TagFiles(out, always=config.experiment != "hom")
                 if config.write_timetags else None)
    try:
        outputs = _simulate(config, out, tag_files)
        return outputs + (tag_files.close() if tag_files else [])
    except BaseException:
        if tag_files:
            tag_files.discard()
        raise


def _simulate(config: RunConfig, out: Path, tag_files) -> list[str]:
    """Run the experiment and write its report (and counts); each block's
    tags go to tag_files."""
    if config.experiment in ("bell", "ghz"):
        n_qubits = 2 if config.experiment == "bell" else config.n_qubits

        def on_block(clicks):
            tag_files.add(clicks[0].to_tags(config.emitter.gamma0, clicks[1:]))

        # the exact reference shares no state with the sampled run, so it is
        # computed beside it, before the run's arrays exist
        with _beside(lambda: exp.witness_exact(
                n_qubits, config.emitter, config.noise, config.tbi,
                thinned=config.thinned).fidelity) as exact_fidelity:
            run = exp.witness_trajectory(n_qubits, config.emitter, config.noise,
                                         config.tbi, config.n_repetitions,
                                         config.master_seed,
                                         thinned=config.thinned,
                                         on_block=on_block if tag_files else None)
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
        _counts_csv(out / "counts.csv", run.outcome)
        return ["report.json", "counts.csv"]
    if config.experiment == "hom":
        run = exp.simulate_hom(config.emitter, config.noise, config.tbi,
                               config.n_repetitions, config.master_seed,
                               thinned=config.thinned,
                               v_classical_assumed=V_CLASSICAL_BACKSOLVED,
                               on_block=tag_files.add if tag_files else None)
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
        return ["report.json"]
    raise ConfigurationError(f"simulate cannot run {config.experiment!r}")


class _TagFiles:
    """A simulate run's timetags.csv and histogram.csv, written as its
    blocks' tags arrive (`add`).  timetags.csv is begun at the first block
    with tags, or at the first block at all when always is set;
    histogram.csv is written by `close` if there were tags."""

    def __init__(self, out: Path, always: bool):
        self.out = out
        self.always = always
        self.fh = None
        self.histogram = coin.Histogram(bin_width=0.5)

    def add(self, tags) -> None:
        if self.fh is None:
            if not (len(tags) or self.always):
                return
            self.fh = open(self.out / "timetags.csv", "wb")
            self.writer = coin.TagWriter(self.fh)
        self.writer.write(tags)
        self.histogram.add(tags)

    def close(self) -> list[str]:
        """Finish the files; returns the names of those written."""
        if self.fh is None:
            return []
        self.fh.close()
        if self.histogram.n_tags == 0:
            return ["timetags.csv"]
        coin.histogram_to_csv(self.out / "histogram.csv", *self.histogram.result())
        return ["timetags.csv", "histogram.csv"]

    def discard(self) -> None:
        """Remove the tag file of a run that failed."""
        if self.fh is not None:
            self.fh.close()
            (self.out / "timetags.csv").unlink()


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
    else:
        scan = exp.spin_conditioned_fringe_scan(
            config.emitter, config.noise, config.tbi, theta,
            reps_per_point=max(config.n_repetitions // config.fringe_points, 100),
            master_seed=config.master_seed)
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
    cfg = _read_manifest(args.manifest) if args.manifest else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the windows of the run's sequence, or without a manifest the ones
    # simulate hom analyses its own tags with at the default t_inf
    windows = cfg.windows if cfg else WindowConfig.for_sequence(1)
    analyses = {
        "histogram": lambda: [coin.Histogram(args.bin_width)],
        "g2": lambda: [coin.G2Counts(windows)],
        "hom": lambda: [coin.HomPairs(windows), coin.G2Counts(windows)],
        "witness": lambda: [_WitnessCounts(cfg, windows)],
    }
    if args.mode not in analyses:
        raise ConfigurationError(f"unknown analyze mode {args.mode!r}")
    consumers, n_tags = coin.read_timetags(args.input, analyses[args.mode], windows)
    if n_tags == 0:
        raise UndefinedEstimateError("input file holds no time tags")
    outputs = []
    if args.mode == "histogram":
        starts, counts = consumers[0].result()
        coin.histogram_to_csv(out / "histogram.csv", starts, counts)
        report = {"mode": "histogram", "n_tags": n_tags,
                  "bin_width_ns": args.bin_width}
        outputs.append("histogram.csv")
    elif args.mode == "g2":
        g2, err, detail = consumers[0].result()
        report = {"mode": "g2", "g2_zero": {"value": g2, "error": err},
                  "per_class": detail}
    elif args.mode == "hom":
        counts = consumers[0].result()
        v_raw, v_err = coin.hom_visibility(counts)
        g2, g2_err, _ = consumers[1].result()
        v_corr = coin.hom_correct(v_raw, g2, V_CLASSICAL_BACKSOLVED)
        report = {"mode": "hom",
                  "hom_counts": {"n1": counts.n1, "n2": counts.n2, "n3": counts.n3},
                  "v_raw": {"value": v_raw, "error": v_err},
                  "g2_zero": {"value": g2, "error": g2_err},
                  "v_corrected": {"value": v_corr,
                                  "v_classical_assumed": V_CLASSICAL_BACKSOLVED}}
    else:
        report = consumers[0].result()
    report["configuration"] = {"input": str(args.input), "mode": args.mode,
                               "bin_width_ns": args.bin_width,
                               "windows": dataclasses.asdict(windows)}
    _write_report(out / "analysis.json", report)
    outputs.append("analysis.json")
    return outputs


def _read_manifest(path) -> RunConfig:
    """The run configuration a manifest echoes, read back as a config file's
    is (`config_from_sections`).  The keys that place the windows have no
    default: the experiment, emitter.t_inf and emitter.photon_spacing_ns,
    and a ghz run's n_qubits."""
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
        read(emitter, key, f"config.emitter.{key}")
    if read(cfg, "experiment", "config.experiment") == "ghz":
        read(cfg, "n_qubits", "config.n_qubits")
    # the manifest echoes the [run] keys beside the sections
    sections = {"run": {k: v for k, v in cfg.items() if not isinstance(v, dict)},
                **{k: v for k, v in cfg.items() if isinstance(v, dict)}}
    try:
        return config_from_sections(sections)
    except ConfigurationError as exc:
        raise ConfigurationError(f"manifest {path}: {exc}") from None


class _WitnessCounts:
    """Witness estimates from bare tags plus the configuration echoed in the
    run manifest, classified with the run's windows; tags are added a block
    of whole repetitions at a time (`coincidence.read_timetags`)."""

    def __init__(self, cfg: RunConfig | None, windows: WindowConfig):
        if cfg is None:
            raise ConfigurationError("witness analysis needs --manifest from the run")
        if cfg.experiment not in ("bell", "ghz"):
            raise ConfigurationError("witness analysis needs the manifest of a bell "
                                     f"or ghz run, not {cfg.experiment!r}")
        self.n_qubits = 2 if cfg.experiment == "bell" else cfg.n_qubits
        self.windows = windows
        self.settings = wit.ghz_settings(self.n_qubits)
        self.counts = {s.label: wit.SettingCounts(s, self.n_qubits - 1)
                       for s in self.settings}

    def add(self, tags) -> None:
        """Count a block's heralded repetitions.  A repetition's tags are
        contiguous: count its photonic tags per (slot, window, detector)
        cell, then count the readout-clicked repetitions of each sub-run
        row by row."""
        windows, n_subs = self.windows, 2 * len(self.settings)
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
        for sub in range(n_subs):
            rows = cells[readout & (sub_run == sub)]
            self.counts[self.settings[sub // 2].label].add_expected(sub % 2, rows,
                                                                    np.ones(len(rows)))

    def result(self) -> dict:
        estimates, (f, f_err) = wit.fidelity_estimate(self.n_qubits, self.counts)
        return {"mode": "witness", "n_qubits": self.n_qubits,
                "estimates": {label: {"value": v, "error": e}
                              for label, (v, e) in estimates.items()},
                "fidelity": {"value": f, "error": f_err},
                "witness_violated": f > 0.5}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="configuration file (TOML)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    # no default here, so a --config file's out_dir is not overridden
    parser.add_argument("--out", help="output directory (default runs)")
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
    fr.add_argument("--mode", choices=FRINGE_MODES,
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
    if args.command == "rabi-calibration" and args.f_pi is not None:
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
        fresh = not out.exists()
        out.mkdir(parents=True, exist_ok=True)
        try:
            run = {"simulate": _run_simulate, "fringe-scan": _run_fringe_scan}
            outputs = run.get(args.command, _run_rabi)(config, out)
        except BaseException:
            if fresh and not any(out.iterdir()):  # a failed run leaves no empty directory
                out.rmdir()
            raise
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
