import contextlib
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import timebin.experiments as exp
from timebin.cli import _resolve_config, build_parser, main
from timebin.config import load_config
from timebin.errors import (ConfigurationError, ContractError, ParseError,
                            UndefinedEstimateError)


def run_cli(*args):
    return main(list(args))


class TestConfigFile:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("""
# comment
[run]
experiment = "bell"
n_repetitions = 5000
master_seed = 9

[noise]
f_pi = 0.95
p_double = 0.01

[tbi]
theta0 = 0.2
""")
        cfg = load_config(path)
        assert cfg.experiment == "bell"
        assert cfg.n_repetitions == 5000
        assert cfg.noise.f_pi == 0.95
        assert cfg.noise.p_double == 0.01
        assert cfg.tbi.theta0 == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[noise]\nnot_a_knob = 1\n")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_ghz_size_limit(self, tmp_path, monkeypatch, capsys):
        # rejected while the configuration is validated, before any evolution
        import timebin.experiments as exp

        def no_evolution(*args, **kwargs):
            raise AssertionError("evolution started")

        monkeypatch.setattr(exp, "run_sequence_exact", no_evolution)
        monkeypatch.setattr(exp, "run_sequence_trajectory", no_evolution)
        assert run_cli("simulate", "ghz", "--photons", "5", "--reps", "100",
                       "--out", str(tmp_path / "r")) == 1
        assert "at most 4 qubits" in capsys.readouterr().err
        conf = tmp_path / "ghz5.conf"
        conf.write_text('[run]\nexperiment = "ghz"\nn_qubits = 5\n')
        with pytest.raises(ConfigurationError, match="at most 4 qubits"):
            load_config(conf)

    def test_unknown_section_rejected(self, tmp_path):
        # a misspelt or unsupported section must not silently fall back to
        # the paper defaults
        for text in ("[nosie]\np_leak = 0.5\n", "[windows]\nwidth = 9.0\n"):
            path = tmp_path / "bad.conf"
            path.write_text(text)
            with pytest.raises(ConfigurationError):
                load_config(path)
            assert run_cli("simulate", "bell", "--config", str(path), "--reps", "100",
                           "--out", str(tmp_path / "r")) == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("[run]\njust some words\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("x = 1\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_file_values_survive_flag_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text('[run]\nn_qubits = 4\nfringe_points = 7\n'
                        'fringe_mode = "spin-conditioned"\n')

        def resolve(*argv):
            return _resolve_config(build_parser().parse_args(list(argv)))

        # n_qubits from the file, unless --photons is given
        assert resolve("simulate", "ghz", "--config", str(conf)).n_qubits == 4
        assert resolve("simulate", "ghz", "--config", str(conf),
                       "--photons", "3").n_qubits == 3
        # fringe points and mode from the file reach the manifest
        out = tmp_path / "fr"
        rc = run_cli("fringe-scan", "--config", str(conf), "--reps", "700",
                     "--out", str(out))
        assert rc == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert (echo["fringe_points"], echo["fringe_mode"]) == (7, "spin-conditioned")
        cfg = resolve("fringe-scan", "--config", str(conf), "--points", "5",
                      "--mode", "classical")
        assert (cfg.fringe_points, cfg.fringe_mode) == (5, "classical")
        # [run] fringe_span is not a configuration key
        bad = tmp_path / "span.conf"
        bad.write_text("[run]\nfringe_span = 1.0\n")
        assert run_cli("fringe-scan", "--config", str(bad),
                       "--out", str(tmp_path / "bad")) == 1

    def test_workers_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "bell", "--workers", "2", "--out", str(tmp_path / "r"))
        assert exc.value.code == 2
        conf = tmp_path / "workers.conf"
        conf.write_text("[run]\nworkers = 2\n")
        assert run_cli("simulate", "bell", "--config", str(conf),
                       "--out", str(tmp_path / "r")) == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "t.csv", "--mode", "g2", "--slots", "2"],
        ["simulate", "bell", "--noise", "paper"],
        ["simulate", "bell", "--noise", "custom"],
    ])
    def test_removed_options_rejected(self, argv):
        # --noise paper was --defaults paper; --slots could only be 1; and
        # custom had no code path
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestReadme:
    """The README's command lines and common flags parse as written."""

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_command_lines_parse(self):
        block = re.search(r"## Command line\s*```\n(.*?)```", self.text, re.S).group(1)
        lines = [line for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("timebin ")]
        assert len(lines) >= 5
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_common_flags_parse(self):
        sentence = re.search(r"Common flags:(.*?`)\.", self.text, re.S).group(1)
        flags = re.findall(r"`([^`]+)`", sentence)
        assert len(flags) >= 5
        for flag in flags:
            name, *value = flag.split()
            # an upper-case value is a placeholder; a|b lists the choices
            choices = ([None] if not value else ["1"] if value[0].isupper()
                       else value[0].split("|"))
            for choice in choices:
                for command in (["simulate", "bell"], ["fringe-scan"],
                                ["rabi-calibration"]):
                    build_parser().parse_args(
                        command + [name] + ([choice] if choice else []))


class TestExitCodes:
    def test_success(self, tmp_path):
        rc = run_cli("simulate", "bell", "--noise", "off", "--reps", "2000",
                     "--seed", "1", "--out", str(tmp_path / "r"), "--no-timetags")
        assert rc == 0

    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("[noise]\nf_pi = 0.2\n")
        rc = run_cli("simulate", "bell", "--config", str(bad),
                     "--out", str(tmp_path / "r"))
        assert rc == 1

    def test_io_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        rc = run_cli("analyze", "--input", str(missing), "--mode", "g2",
                     "--out", str(tmp_path / "a"))
        assert rc == 2

    def test_undefined_estimate(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("detector,time_ns,repetition\n")
        rc = run_cli("analyze", "--input", str(empty), "--mode", "g2",
                     "--out", str(tmp_path / "a"))
        assert rc == 3

    def test_analyze_witness_crowded_cell(self, tmp_path, capsys):
        # one repetition's tags per cell are counted in uint8: 255 tags in
        # one cell still count, 256 are an error, not a silent wrap to 0
        from timebin.coincidence import WindowConfig
        from timebin.interferometer import Window

        sim = tmp_path / "sim"
        assert run_cli("simulate", "bell", "--defaults", "paper", "--reps", "60",
                       "--seed", "1", "--out", str(sim)) == 0
        emitter = json.loads((sim / "manifest.json").read_text())["config"]["emitter"]
        windows = WindowConfig.for_sequence(1, t_inf=emitter["t_inf"],
                                            slot_spacing=emitter["photon_spacing_ns"])
        base = (sim / "timetags.csv").read_text()

        def zz_events(n_early):
            # repetition 360 is a ZZ repetition: a readout click and n_early
            # early-window clicks on D1
            tags = tmp_path / f"tags{n_early}.csv"
            early = windows.window_start(0, Window.EARLY) + 0.5
            tags.write_text(base + f"D1,{early:.6f},360\n" * n_early
                            + f"D1,{windows.readout_start + 0.5:.6f},360\n")
            ana = tmp_path / f"ana{n_early}"
            rc = run_cli("analyze", "--input", str(tags), "--mode", "witness",
                         "--manifest", str(sim / "manifest.json"), "--out", str(ana))
            if rc:
                return rc
            zz = json.loads((ana / "analysis.json").read_text())["estimates"]["ZZ"]
            # the binomial error p(1 - p) / n gives the event count back
            return round(zz["value"] * (1 - zz["value"]) / zz["error"] ** 2)

        assert zz_events(255) == zz_events(0) + 255
        capsys.readouterr()
        assert zz_events(256) == 1
        assert "repetition 360" in capsys.readouterr().err


class _Hung(BaseException):
    """Raised by `deadline`; main() catches no BaseException of this kind."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise _Hung in this process after seconds; a forked child does not
    inherit the alarm."""
    def expire(signum, frame):
        raise _Hung(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the exact reference forks")
class TestExactChild:
    """simulate bell|ghz computes its exact reference in a forked child
    while the parent samples the trajectory run."""

    SMALL = ("simulate", "bell", "--noise", "off", "--reps", "200", "--seed", "1",
             "--no-timetags")

    @pytest.mark.parametrize("argv", [("bell",), ("ghz", "--photons", "3")])
    def test_same_artifacts_without_fork(self, tmp_path, monkeypatch, argv):
        def artifacts(name):
            out = tmp_path / name
            with deadline(120):
                assert run_cli("simulate", *argv, "--defaults", "paper",
                               "--reps", "2000", "--seed", "3", "--out", str(out)) == 0
            assert_no_child_left()
            return {f: (out / f).read_bytes()
                    for f in ("report.json", "counts.csv", "timetags.csv")}

        forked = artifacts("forked")
        monkeypatch.delattr(os, "fork")
        assert artifacts("inline") == forked

    def test_reference_runs_in_child(self, tmp_path, monkeypatch):
        class Reference:
            @property
            def fidelity(self):
                return float(os.getpid())

        monkeypatch.setattr(exp, "witness_exact", lambda *a, **k: Reference())
        out = tmp_path / "r"
        with deadline(60):
            assert run_cli(*self.SMALL, "--out", str(out)) == 0
        assert_no_child_left()
        child = json.loads((out / "report.json").read_text())["exact_reference_fidelity"]
        assert child != os.getpid()

    @pytest.mark.parametrize("error, code", [(ConfigurationError, 1),
                                             (UndefinedEstimateError, 3)])
    def test_child_exception(self, tmp_path, monkeypatch, capsys, error, code):
        def fail(*args, **kwargs):
            raise error("the exact reference failed here")

        monkeypatch.setattr(exp, "witness_exact", fail)
        with deadline(60):
            assert run_cli(*self.SMALL, "--out", str(tmp_path / "r")) == code
        assert "the exact reference failed here" in capsys.readouterr().err
        assert_no_child_left()

    def test_child_ends_without_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(exp, "witness_exact", lambda *a, **k: os._exit(7))
        with deadline(60):
            assert run_cli(*self.SMALL, "--out", str(tmp_path / "r")) == 1
        assert "exit status 7" in capsys.readouterr().err
        assert_no_child_left()

    @pytest.mark.parametrize("error, code", [(ConfigurationError, 1),
                                             (UndefinedEstimateError, 3)])
    def test_trajectory_error_first(self, tmp_path, monkeypatch, capsys, error, code):
        # the trajectory's error is reported, not the child's, and the child
        # is killed rather than waited for
        def slow_fail(*args, **kwargs):
            time.sleep(60)
            raise ContractError("the exact reference failed here")

        def fail(*args, **kwargs):
            raise error("the trajectory failed here")

        monkeypatch.setattr(exp, "witness_exact", slow_fail)
        monkeypatch.setattr(exp, "witness_trajectory", fail)
        with deadline(20):
            assert run_cli(*self.SMALL, "--out", str(tmp_path / "r")) == code
        err = capsys.readouterr().err
        assert "the trajectory failed here" in err
        assert "exact reference" not in err
        assert_no_child_left()

    def test_interrupt_kills_child(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(exp, "witness_exact", lambda *a, **k: time.sleep(60))
        monkeypatch.setattr(exp, "witness_trajectory", interrupt)
        with deadline(20), pytest.raises(KeyboardInterrupt):
            run_cli(*self.SMALL, "--out", str(tmp_path / "r"))
        assert_no_child_left()


class TestAnalyzeManifest:
    # analyze reads the manifest in one place and rejects what it cannot use
    # with a validation error that names the key, not a traceback

    @pytest.fixture
    def tags(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "bell", "--defaults", "paper", "--reps", "600",
                       "--seed", "1", "--out", str(out)) == 0
        return out

    def analyze(self, tmp_path, sim, manifest, mode="witness"):
        path = tmp_path / "manifest.json"
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        return run_cli("analyze", "--input", str(sim / "timetags.csv"), "--mode", mode,
                       "--manifest", str(path), "--out", str(tmp_path / "ana"))

    def ghz_manifest(self, n_qubits):
        return {"config": {"experiment": "ghz", "n_qubits": n_qubits,
                           "emitter": {"t_inf": 11.8, "photon_spacing_ns": 28.0}}}

    def test_report_is_not_a_manifest(self, tmp_path, tags, capsys):
        report = (tags / "report.json").read_text()
        assert self.analyze(tmp_path, tags, report) == 1
        assert "has no config" in capsys.readouterr().err

    def test_not_json(self, tmp_path, tags, capsys):
        assert self.analyze(tmp_path, tags, "experiment = bell\n", "g2") == 1
        assert "is not JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["emitter", "experiment"])
    def test_missing_key(self, tmp_path, tags, capsys, key):
        manifest = json.loads((tags / "manifest.json").read_text())
        del manifest["config"][key]
        assert self.analyze(tmp_path, tags, manifest) == 1
        assert f"config.{key}" in capsys.readouterr().err

    def test_missing_window_key(self, tmp_path, tags, capsys):
        manifest = json.loads((tags / "manifest.json").read_text())
        del manifest["config"]["emitter"]["t_inf"]
        assert self.analyze(tmp_path, tags, manifest, "hom") == 1
        assert "config.emitter.t_inf" in capsys.readouterr().err

    @pytest.mark.parametrize("n_qubits", ["3", 3.0, True, None])
    def test_non_integer_qubits(self, tmp_path, tags, capsys, n_qubits):
        assert self.analyze(tmp_path, tags, self.ghz_manifest(n_qubits)) == 1
        assert "config.n_qubits must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["witness", "g2"])
    @pytest.mark.parametrize("n_qubits", [2, 5, 40])
    def test_ghz_size_outside_range(self, tmp_path, tags, capsys, monkeypatch,
                                    n_qubits, mode):
        # an oversized ghz manifest would reach a 2^(n - 1)-row outcome table;
        # the stub stands in for it, so no test allocates that table
        from timebin import witness

        def table(n_slots):
            raise AssertionError(f"outcome table of {n_slots} slots built")

        monkeypatch.setattr(witness, "_outcome_signs", table)
        assert self.analyze(tmp_path, tags, self.ghz_manifest(n_qubits), mode) == 1
        assert "must lie in 3..4" in capsys.readouterr().err

    def test_minimal_manifest_accepted(self, tmp_path, tags):
        manifest = {"config": {"experiment": "bell",
                               "emitter": {"t_inf": 11.8, "photon_spacing_ns": 28.0}}}
        assert self.analyze(tmp_path, tags, manifest) == 0


class TestArtifacts:
    def test_bell_outputs(self, tmp_path):
        out = tmp_path / "bell"
        rc = run_cli("simulate", "bell", "--defaults", "paper", "--reps", "6000",
                     "--seed", "4", "--out", str(out))
        assert rc == 0
        for name in ("manifest.json", "report.json", "counts.csv",
                     "timetags.csv", "histogram.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 4
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["fidelity"]["value"] <= 1.0
        assert report["separable_bound"] == 0.5
        # a JSON boolean, not 0/1: a Python bool is an int
        assert report["witness_violated"] is (report["fidelity"]["value"] > 0.5)
        assert report["thinned"] is False

    def test_reports_deterministic_across_workers(self, tmp_path):
        # a run is one chunk with no worker count to echo or vary: same-seed
        # runs write byte-identical reports, with or without time tags
        blobs = []
        for name, flags in (("a", ["--no-timetags"]), ("b", ["--no-timetags"]),
                            ("c", [])):
            out = tmp_path / name
            rc = run_cli("simulate", "bell", "--defaults", "paper",
                         "--reps", "6000", "--seed", "5", "--out", str(out), *flags)
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert "workers" not in manifest["config"]
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_manifest_config_reruns_identically(self, tmp_path):
        out1 = tmp_path / "a"
        run_cli("simulate", "bell", "--defaults", "paper", "--reps", "4000",
                "--seed", "8", "--out", str(out1), "--no-timetags")
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg = manifest["config"]
        # re-express the echoed config as a config file and re-run
        conf = tmp_path / "echo.conf"
        lines = ["[run]",
                 f"experiment = \"{cfg['experiment']}\"",
                 f"n_repetitions = {cfg['n_repetitions']}",
                 f"master_seed = {cfg['master_seed']}"]
        for section in ("emitter", "noise", "tbi"):
            lines.append(f"[{section}]")
            for k, v in cfg[section].items():
                if isinstance(v, bool):
                    lines.append(f"{k} = {'true' if v else 'false'}")
                else:
                    lines.append(f"{k} = {v!r}" if isinstance(v, str)
                                 else f"{k} = {v}")
        conf.write_text("\n".join(lines) + "\n")
        out2 = tmp_path / "b"
        rc = run_cli("simulate", "bell", "--config", str(conf),
                     "--out", str(out2), "--no-timetags")
        assert rc == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_hom_outputs(self, tmp_path):
        out = tmp_path / "hom"
        rc = run_cli("simulate", "hom", "--defaults", "paper", "--reps", "20000",
                     "--seed", "6", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "g2_zero" in report and "v_raw" in report

    def test_tag_artifacts_are_pinned(self, tmp_path):
        # sha256 of the files the %-template writer and np.lexsort gave
        want = {
            ("bell", "timetags.csv"):
                "6a33f82a6f1ef6edca20b93ae495474a405cb54d73a8edbfcc5735aeff256ac8",
            ("bell", "histogram.csv"):
                "28e24d8a1f582bc5e1f929a426a0caf28b49677c2d5c6791b6f9af0e99af29a8",
            ("hom", "timetags.csv"):
                "52c3728958a7e7ba09f2bc9e5ad1a4c42f67c2fa9d35ad2173b4c38d225267a8",
            ("hom", "histogram.csv"):
                "7325245b66ee5fc689ce1a77043331eedcc35aa43a4a214bf2dc0c966419685c",
        }
        for experiment in ("bell", "hom"):
            out = tmp_path / experiment
            assert run_cli("simulate", experiment, "--reps", "20000", "--seed", "1",
                           "--defaults", "paper", "--out", str(out)) == 0
            for name in ("timetags.csv", "histogram.csv"):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                assert digest == want[experiment, name], (experiment, name)

    def test_hom_estimates_are_pinned(self, tmp_path):
        # the values of the analysis that re-sorted and re-classified tags
        out = tmp_path / "sim"
        assert run_cli("simulate", "hom", "--reps", "20000", "--seed", "1",
                       "--defaults", "paper", "--out", str(out)) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "684b540afa6a0fc66cf91315902936854039133e7acb7e6d2d9610d3abd4e2ee"
        ana = tmp_path / "ana"
        assert run_cli("analyze", "--input", str(out / "timetags.csv"),
                       "--mode", "hom", "--out", str(ana)) == 0
        got = json.loads((ana / "analysis.json").read_text())
        assert got["hom_counts"] == {"n1": 2047, "n2": 271, "n3": 2129}
        assert got["g2_zero"] == {"error": 0.00582748636529006,
                                  "value": 0.055402065213738985}

    def test_analyze_roundtrip_matches_simulate(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "bell", "--defaults", "paper", "--reps", "12000",
                "--seed", "13", "--out", str(out))
        ana = tmp_path / "ana"
        rc = run_cli("analyze", "--input", str(out / "timetags.csv"),
                     "--mode", "witness", "--manifest", str(out / "manifest.json"),
                     "--out", str(ana))
        assert rc == 0
        sim = json.loads((out / "report.json").read_text())
        ana_report = json.loads((ana / "analysis.json").read_text())
        assert sim["fidelity"]["value"] == ana_report["fidelity"]["value"]
        # every setting's estimate and error, not only the fidelity
        estimates = ana_report["estimates"]
        assert estimates.pop("ZZ") == sim["population"]
        assert estimates == sim["correlators"]
        assert set(estimates) == {"YY", "XX"}

    def test_analyze_ghz3_witness_roundtrip(self, tmp_path):
        # two photonic slots: the analysis places clicks by slot_spacing
        from timebin.cli import _concat_tags
        from timebin.coincidence import export_timetags
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory

        emitter = paper_emitter()
        run = witness_trajectory(3, emitter, paper_noise(), paper_tbi(), 24_000, 11,
                                 keep_clicks=True)
        tags = _concat_tags([c.to_tags(emitter.gamma0) for c in run.clicks])
        export_timetags(tmp_path / "timetags.csv", tags)
        manifest = {"config": {"experiment": "ghz", "n_qubits": 3,
                               "emitter": {"t_inf": emitter.t_inf,
                                           "photon_spacing_ns": emitter.photon_spacing_ns}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        ana = tmp_path / "ana"
        rc = run_cli("analyze", "--input", str(tmp_path / "timetags.csv"),
                     "--mode", "witness", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(ana))
        assert rc == 0
        ana_report = json.loads((ana / "analysis.json").read_text())
        assert ana_report["fidelity"]["value"] == run.outcome.fidelity
        # the echo names the windows the analysis used
        windows = ana_report["configuration"]["windows"]
        assert windows["n_slots"] == 2
        assert windows["readout_start"] == pytest.approx(
            30.0 + 2 * emitter.t_inf + emitter.photon_spacing_ns + 6.0)
        # every setting's estimate and error, not only the fidelity
        expected = {"ZZ": run.outcome.population, **run.outcome.correlators}
        assert {label: (e["value"], e["error"])
                for label, e in ana_report["estimates"].items()} == expected
        assert set(expected) == {"ZZ", "M1", "M2", "M3"}

    def test_analyze_witness_matches_per_record_loop(self, tmp_path, monkeypatch):
        # a hand-built GHZ-3 tag file: up to 3 clicks in one cell, repetitions
        # without a readout click, tags between windows, every sub-run; each
        # heralded repetition's outcomes follow from its click record
        from kernel_reference import add_outcome, pattern_outcomes
        from timebin import witness
        from timebin.coincidence import (WINDOWS, WindowConfig, click_cell,
                                         export_timetags, sorted_tags)

        windows = WindowConfig.for_sequence(2, t_inf=11.8, slot_spacing=28.0)
        settings = witness.ghz_settings(3)
        rng = np.random.default_rng(21)
        det, time, rep = [], [], []
        want = {s.label: {} for s in settings}
        for r in range(1000, 1800):
            record = 0
            for slot in range(2):
                for window in range(3):
                    start = windows.window_start(slot, WINDOWS[window])
                    for d in range(2):
                        k = int(rng.choice(4, p=[0.6, 0.25, 0.1, 0.05]))
                        record += k << 8 * click_cell(slot, window, d)
                        det += [d] * k
                        time += (start + rng.uniform(0, 0.99, k) * windows.width).tolist()
                        rep += [r] * k
                    if rng.random() < 0.1:
                        # between this window and the next
                        det.append(int(rng.integers(2)))
                        time.append(start + windows.width + 1.0)
                        rep.append(r)
            if rng.random() < 0.7:
                det.append(int(rng.integers(2)))
                time.append(windows.readout_start + rng.uniform(0, windows.readout_width))
                rep.append(r)
                sub_run = r % 8
                setting = settings[sub_run // 2]
                for outcome in pattern_outcomes(setting, setting.subsettings[sub_run % 2],
                                                record, 2):
                    add_outcome(want[setting.label], outcome)
        tags = sorted_tags(np.array(det, np.int8), np.array(time), np.array(rep))
        export_timetags(tmp_path / "timetags.csv", tags)
        manifest = {"config": {"experiment": "ghz", "n_qubits": 3,
                               "emitter": {"t_inf": 11.8, "photon_spacing_ns": 28.0}}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        seen = {}

        def fidelity_estimate(n_qubits, counts):
            seen.update({label: acc.counts for label, acc in counts.items()})
            return real(n_qubits, counts)

        real = witness.fidelity_estimate
        monkeypatch.setattr(witness, "fidelity_estimate", fidelity_estimate)
        assert run_cli("analyze", "--input", str(tmp_path / "timetags.csv"),
                       "--mode", "witness", "--manifest", str(tmp_path / "manifest.json"),
                       "--out", str(tmp_path / "ana")) == 0
        assert all(want.values())
        assert seen == want

    def test_thinned_exact_reference(self, tmp_path):
        # a thinned run's report carries the thinned exact reference; high
        # efficiencies give a small run heralded events in every setting
        from timebin.experiments import witness_exact

        conf = tmp_path / "run.conf"
        conf.write_text("[noise]\neta_total = 0.5\neta_readout = 0.5\n")
        out = tmp_path / "thin"
        assert run_cli("simulate", "bell", "--config", str(conf), "--thinning", "on",
                       "--reps", "3000", "--seed", "2", "--no-timetags",
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        config = load_config(conf)
        args = 2, config.emitter, config.noise, config.tbi
        thinned = witness_exact(*args, thinned=True).fidelity
        assert report["thinned"] is True
        assert report["exact_reference_fidelity"] == thinned
        assert thinned != witness_exact(*args).fidelity

    def test_analyze_hom_matches_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "hom", "--defaults", "paper", "--reps", "20000",
                       "--seed", "6", "--out", str(out)) == 0
        ana = tmp_path / "ana"
        assert run_cli("analyze", "--input", str(out / "timetags.csv"),
                       "--mode", "hom", "--out", str(ana)) == 0
        sim = json.loads((out / "report.json").read_text())
        got = json.loads((ana / "analysis.json").read_text())
        assert got["hom_counts"] == sim["hom_counts"]
        assert got["g2_zero"] == sim["g2_zero"]
        assert sum(sim["hom_counts"].values()) > 0

    def test_analyze_hom_reads_manifest_windows(self, tmp_path):
        # a run at a non-default t_inf: g2 and hom analysis place the
        # windows as the manifest's run did
        conf = tmp_path / "run.conf"
        conf.write_text("[emitter]\nt_inf = 9.0\n")
        out = tmp_path / "sim"
        assert run_cli("simulate", "hom", "--config", str(conf), "--reps", "20000",
                       "--seed", "1", "--out", str(out)) == 0
        sim = json.loads((out / "report.json").read_text())
        assert sum(sim["hom_counts"].values()) > 0
        for mode in ("g2", "hom"):
            ana = tmp_path / mode
            assert run_cli("analyze", "--input", str(out / "timetags.csv"),
                           "--mode", mode, "--manifest", str(out / "manifest.json"),
                           "--out", str(ana)) == 0
            got = json.loads((ana / "analysis.json").read_text())
            assert got["g2_zero"] == sim["g2_zero"]
            assert got["configuration"]["windows"]["middle_start"] == 39.0
            if mode == "hom":
                assert got["hom_counts"] == sim["hom_counts"]
        # a hom run's manifest holds no witness settings
        assert run_cli("analyze", "--input", str(out / "timetags.csv"),
                       "--mode", "witness", "--manifest", str(out / "manifest.json"),
                       "--out", str(tmp_path / "witness")) == 1

    def test_fringe_scan_outputs(self, tmp_path):
        out = tmp_path / "fr"
        rc = run_cli("fringe-scan", "--mode", "classical", "--reps", "40000",
                     "--seed", "2", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        fit = report["fits"]["classical"]
        assert fit["amplitude"] == pytest.approx(0.989, abs=0.02)

    def test_rabi_outputs(self, tmp_path):
        out = tmp_path / "rabi"
        rc = run_cli("rabi-calibration", "--f-pi", "0.9", "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pi_population"] == pytest.approx(0.9, abs=1e-6)
        assert report["matches_target"]

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "timebin.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
