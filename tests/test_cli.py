import contextlib
import dataclasses
import hashlib
import json
import math
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
from timebin.cli import _read_manifest, _resolve_config, build_parser, main
from timebin.config import RunConfig, load_config
from timebin.emitter import EmitterParams, NoiseParams
from timebin.errors import (ConfigurationError, ContractError, ParseError,
                            UndefinedEstimateError)
from timebin.interferometer import TBIParams


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
        # [run] holds RunConfig's own fields, not the sections it nests
        path = tmp_path / "bad.conf"
        for section, key in (("noise", "not_a_knob"), ("run", "noise")):
            path.write_text(f"[{section}]\n{key} = 1\n")
            with pytest.raises(ConfigurationError, match=f"^unknown key {section}.{key}$"):
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
        assert "run.n_qubits of a ghz run must lie in 3..4" in capsys.readouterr().err
        conf = tmp_path / "ghz5.conf"
        conf.write_text('[run]\nexperiment = "ghz"\nn_qubits = 5\n')
        with pytest.raises(ConfigurationError, match=r"run\.n_qubits .* 3\.\.4"):
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
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("x = 1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_config(path)

    @pytest.mark.parametrize("text, line", [
        ("[run]\nthinned = True\n", 2), ('[run]\nout_dir = "runs#1\n', 2),
        ("\n# note\nn_qubits = 3\n[run]\n", 3)])
    def test_parse_error_names_line(self, tmp_path, text, line):
        path = tmp_path / "bad.toml"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}"):
            load_config(path)

    def test_toml_values(self, tmp_path):
        # a '#' inside a quoted string is part of it, booleans are lowercase
        # and fringe_span is an array; a file's out_dir is where a run
        # without --out writes
        out = tmp_path / "runs#1"
        path = tmp_path / "run.toml"
        path.write_text(f'[run]\nout_dir = "{out}"  # a comment\nthinned = true\n'
                        "fringe_span = [0.5, 2]\n")
        cfg = load_config(path)
        assert (cfg.out_dir, cfg.thinned, cfg.fringe_span) == (str(out), True, (0.5, 2))
        assert run_cli("rabi-calibration", "--config", str(path)) == 0
        assert (out / "manifest.json").exists()

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
        # [run] fringe_span is a pair of angles, not one
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


    def test_config_example_loads(self, tmp_path):
        # the example is TOML that load_config reads, and each of its values
        # reaches the RunConfig
        import tomllib

        block = re.search(r"### Configuration file.*?```toml\n(.*?)```", self.text,
                          re.S).group(1)
        path = tmp_path / "example.toml"
        path.write_text(block)
        cfg = load_config(path)
        sections = tomllib.loads(block)
        assert set(sections) == {"run", "emitter", "noise", "tbi"}
        for section, values in sections.items():
            target = cfg if section == "run" else getattr(cfg, section)
            for key, value in values.items():
                assert getattr(target, key) == value, f"{section}.{key}"


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

    @pytest.mark.parametrize("points", [0, 1, -3])
    def test_fringe_points_below_two(self, tmp_path, capsys, points):
        # a fringe fit has two parameters, so it needs two angles: fewer is a
        # configuration error, from the flag and from a config file alike
        conf = tmp_path / "fringe.conf"
        conf.write_text(f"[run]\nfringe_points = {points}\n")
        for args in (("--points", str(points)), ("--config", str(conf))):
            assert run_cli("fringe-scan", "--reps", "1000", *args,
                           "--out", str(tmp_path / "fr")) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"got {points}" in err
            assert "Traceback" not in err
        with pytest.raises(ConfigurationError, match=f"got {points}"):
            load_config(conf)

    @pytest.mark.parametrize("first, last", [("0", "nan"), ("0", "inf"), ("1", "1"),
                                             ("nan", "1")])
    def test_fringe_span_rejected_before_output(self, tmp_path, capsys, first, last):
        # a non-finite or repeated endpoint leaves no fringe to fit: exit 1
        # from the flag and from [run] fringe_span alike, before any output
        conf = tmp_path / "span.toml"
        conf.write_text(f"[run]\nfringe_span = [{first}, {last}]\n")
        out = tmp_path / "fr"
        for args in (("--span", first, last), ("--config", str(conf))):
            assert run_cli("fringe-scan", "--reps", "1000", *args, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: run.fringe_span") and "Traceback" not in err
            assert not out.exists()

    def test_fringe_mode_rejected_before_output(self, tmp_path, capsys):
        conf = tmp_path / "mode.toml"
        conf.write_text('[run]\nfringe_mode = "spin"\n')
        out = tmp_path / "fr"
        assert run_cli("fringe-scan", "--config", str(conf), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: run.fringe_mode")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, emitter", [
        ("bell", "t_inf = 1e999"), ("bell", "t_inf = 1e200"), ("hom", "t_inf = -11.8"),
        ("bell", "t_inf = 0.0"), ("bell", "photon_spacing_ns = -28.0"),
        ("ghz", "photon_spacing_ns = 1e999"), ("hom", "repetition_rate_mhz = 0"),
        ("bell", "repetition_rate_mhz = 1e999"), ("bell", "repetition_rate_mhz = 20.0"),
        ("ghz", "photon_spacing_ns = 600.0")])
    def test_bad_timing_rejected_before_output(self, tmp_path, capsys, experiment,
                                               emitter):
        # a timing that cannot place the windows inside one repetition is a
        # validation error before any output, not a run that fails at the end
        conf = tmp_path / "timing.conf"
        conf.write_text(f"[emitter]\n{emitter}\n")
        out = tmp_path / "r"
        assert run_cli("simulate", experiment, "--config", str(conf), "--reps", "200",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "unknown key" not in err
        assert emitter.split()[0] in err or "readout window ends" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["delta0", "t_opt", "rotation_ns"])
    def test_pulse_timing_keys_rejected(self, tmp_path, capsys, key):
        # the model's pulses have no duration: the calibrated error
        # probabilities (f_pi, p_double, ...) stand for them
        conf = tmp_path / "old.toml"
        conf.write_text(f"[emitter]\n{key} = 1.0\n")
        out = tmp_path / "r"
        assert run_cli("simulate", "bell", "--config", str(conf), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: unknown key emitter.{key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["theta_pol", "drift_phase"])
    def test_measurement_phase_keys_rejected(self, tmp_path, capsys, key):
        # each measurement sets its own polarizer angle, and a common drift
        # of both interferometer passes is unobservable: neither is a
        # parameter of the device
        conf = tmp_path / "old.toml"
        conf.write_text(f"[tbi]\n{key} = 0.3\n")
        out = tmp_path / "r"
        assert run_cli("simulate", "bell", "--config", str(conf), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: unknown key tbi.{key}\n"
        assert not out.exists()

    def test_spin_fringe_without_heralds(self, tmp_path, capsys):
        # with the readout laser off no repetition is heralded, so no angle
        # has a spin-conditioned contrast: exit 3 naming the first angle,
        # and no output directory
        conf = tmp_path / "dark.toml"
        conf.write_text("[noise]\neta_readout = 0.0\n")
        out = tmp_path / "fr"
        assert run_cli("fringe-scan", "--mode", "spin-conditioned", "--config", str(conf),
                       "--reps", "2000", "--points", "4", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == ("undefined estimate: no heralded middle-window click at "
                       "theta_pol = 0 rad (+X)\n")
        assert not out.exists()

    @pytest.mark.parametrize("f_pi", ["0", "0.4"])
    def test_rabi_f_pi_checked_before_output(self, tmp_path, capsys, f_pi):
        # --f-pi 0 is a value to range-check, not an absent flag
        out = tmp_path / "rabi"
        assert run_cli("rabi-calibration", "--f-pi", f_pi, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: f_pi=")
        assert not out.exists()

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
        assert "run.n_qubits must be an integer" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mode", ["witness", "hom"])
    @pytest.mark.parametrize("key", ["t_inf", "photon_spacing_ns"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e300, 0.0])
    def test_non_finite_or_negative_timing(self, tmp_path, tags, capsys, mode, key,
                                           value):
        # json reads NaN and Infinity; neither, nor a timing <= 0, places
        # the run's windows
        manifest = json.loads((tags / "manifest.json").read_text())
        manifest["config"]["emitter"][key] = value
        assert self.analyze(tmp_path, tags, manifest, mode) == 1
        err = capsys.readouterr().err
        assert re.search(rf"{key}\S* must be (a )?finite", err)
        assert not (tmp_path / "ana").exists()

    @pytest.mark.parametrize("section, key", [(None, "workers"), ("noise", "not_a_knob"),
                                              ("tbi", "windows"), ("emitter", "delta0"),
                                              ("emitter", "t_opt"),
                                              ("emitter", "rotation_ns"),
                                              ("tbi", "theta_pol"),
                                              ("tbi", "drift_phase")])
    def test_unknown_key_rejected(self, tmp_path, tags, capsys, section, key):
        # a manifest holds config keys only, as a config file does
        manifest = json.loads((tags / "manifest.json").read_text())
        (manifest["config"][section] if section else manifest["config"])[key] = 1
        assert self.analyze(tmp_path, tags, manifest, "g2") == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "ana").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "bell", "--defaults", "paper", "--reps", "2000", "--seed", "3"],
        ["simulate", "bell", "--noise", "off", "--reps", "2000", "--config", "{conf}"],
        ["simulate", "ghz", "--photons", "3", "--reps", "300", "--seed", "5"],
        ["simulate", "hom", "--reps", "2000", "--config", "{conf}"],
        ["fringe-scan", "--mode", "classical", "--span", "0.5", "2.5", "--points", "5",
         "--reps", "1000"],
        ["rabi-calibration", "--f-pi", "0.9", "--thinning", "on", "--config", "{conf}"]])
    def test_manifest_reads_back_as_run_config(self, tmp_path, argv):
        # a run's manifest is its RunConfig, apart from where it wrote and
        # whether it wrote tags
        conf = tmp_path / "run.toml"
        conf.write_text("[emitter]\nt_inf = 9\n[noise]\nblink_block_len = 40\n"
                        "blink_on_fraction = 0.7\n")
        argv = [a.format(conf=conf) for a in argv] + ["--no-timetags",
                                                      "--out", str(tmp_path / "r")]
        assert run_cli(*argv) == 0
        own = _resolve_config(build_parser().parse_args(argv))
        back = _read_manifest(tmp_path / "r" / "manifest.json")
        assert back == dataclasses.replace(own, out_dir=back.out_dir,
                                           write_timetags=back.write_timetags)

    def test_minimal_manifest_accepted(self, tmp_path, tags):
        manifest = {"config": {"experiment": "bell",
                               "emitter": {"t_inf": 11.8, "photon_spacing_ns": 28.0}}}
        assert self.analyze(tmp_path, tags, manifest) == 0


def _toml(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(_toml, value)) + "]"
    if isinstance(value, bool):
        return str(value).lower()
    return json.dumps(value) if isinstance(value, str) else repr(value)


# wrong values for a field of each declared type: a string, a bool in a
# numeric field, nan and inf in a float field, a fraction in an int field;
# the cases are built from the fields, so every key of every section is one
WRONG_VALUES = {
    "float": ["x", True, math.nan, math.inf],
    "int": ["x", True, 2.5],
    "bool": ["x", 2],
    "str": [3, True],
    "tuple[float, float]": ["x", [True, 1.0], [0.0, math.nan], [0.0, math.inf]],
}
SECTIONS = {"run": RunConfig, "emitter": EmitterParams, "noise": NoiseParams,
            "tbi": TBIParams}
FIELD_CASES = [pytest.param(section, f.name, value, id=f"{section}.{f.name}={value!r}")
               for section, cls in SECTIONS.items()
               for f in dataclasses.fields(cls) if f.name not in SECTIONS
               for value in WRONG_VALUES[f.type]]


class TestFieldTypes:
    """Every config key takes only its declared type, from a config file and
    from an edited run manifest alike: anything else is exit 1 naming
    section.key, before any output directory exists."""

    @pytest.fixture(scope="class")
    def sim(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fields") / "sim"
        assert run_cli("simulate", "bell", "--reps", "200", "--out", str(out)) == 0
        return out

    @pytest.mark.parametrize("section, key, value", FIELD_CASES)
    def test_wrong_value_rejected(self, tmp_path, capsys, sim, section, key, value):
        conf = tmp_path / "bad.toml"
        conf.write_text(f"[{section}]\n{key} = {_toml(value)}\n")
        out = tmp_path / "r"
        assert run_cli("simulate", "bell", "--config", str(conf), "--no-timetags",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{section}.{key}" in err
        assert "Traceback" not in err and not out.exists()

        manifest = json.loads((sim / "manifest.json").read_text())
        config = manifest["config"]
        (config if section == "run" else config[section])[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        ana = tmp_path / "ana"
        assert run_cli("analyze", "--input", str(sim / "timetags.csv"), "--mode", "g2",
                       "--manifest", str(path), "--out", str(ana)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {path}: {section}.{key}")
        assert not ana.exists()


    @pytest.mark.parametrize("section, key, value", FIELD_CASES)
    def test_library_caller_rejected(self, section, key, value):
        # RunConfig and the parameter dataclasses check their own fields'
        # types when a library caller builds them, as config_from_sections
        # does for a file; EmitterParams names a bad timing as key=value
        with pytest.raises(ConfigurationError, match=rf"^({section}\.{key} |{key}=)"):
            SECTIONS[section](**{key: value})


class TestEveryFieldActs:
    """Every field of the three parameter dataclasses changes some output:
    a key that no run reads would be echoed in every manifest as if it had
    shaped the run.  Each field is moved by 10 % (0.05 from 0, an int
    halved) in a config file, from a base where blinking is on and the
    efficiencies leave clicks for a thinned run of 2000 repetitions.
    photon_spacing_ns grows instead: 10 % less overlaps the ghz windows.
    theta0 acts only where the polarizer angle is scanned: the fringes."""

    BASE = {"noise": {"blink_block_len": 40, "blink_on_fraction": 0.7,
                      "eta_total": 0.3, "eta_readout": 0.5}}
    RUNS = (["simulate", "bell"], ["simulate", "bell", "--thinning", "on"],
            ["simulate", "hom"], ["simulate", "ghz", "--photons", "3"],
            ["fringe-scan", "--points", "5"],
            ["fringe-scan", "--mode", "spin-conditioned", "--points", "5"])

    @staticmethod
    def moved(key, value):
        if isinstance(value, int):
            return value // 2
        if not value:
            return 0.05
        return value * (1.1 if key == "photon_spacing_ns" else 0.9)

    def outputs(self, tmp_path, sections):
        """Every artifact but the manifest of each small run."""
        conf = tmp_path / "run.toml"
        conf.write_text("".join(f"[{section}]\n" + "".join(
            f"{key} = {_toml(value)}\n" for key, value in values.items())
            for section, values in sections.items()))
        for i, run in enumerate(self.RUNS):
            out = tmp_path / f"r{i}"
            assert run_cli(*run, "--reps", "2000", "--config", str(conf),
                           "--out", str(out)) == 0
            yield {p.name: p.read_bytes() for p in sorted(out.iterdir())
                   if p.name != "manifest.json"}

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        return list(self.outputs(tmp_path_factory.mktemp("base"), self.BASE))

    @pytest.mark.parametrize("section, key", [
        pytest.param(section, f.name, id=f"{section}.{f.name}")
        for section, cls in SECTIONS.items() if section != "run"
        for f in dataclasses.fields(cls)])
    def test_field_changes_an_output(self, tmp_path, base, section, key):
        default = getattr(getattr(RunConfig(), section), key)
        values = dict(self.BASE.get(section, {}))
        values[key] = self.moved(key, values.get(key, default))
        sections = {**self.BASE, section: values}
        changed = (new != old for new, old in zip(self.outputs(tmp_path, sections), base))
        assert any(changed), f"{section}.{key} changed no output"


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
        # sha256 of the files the %-template writer and np.lexsort gave, and
        # of the witness reports and counts the per-group trajectory loop gave,
        # with the exact_reference_fidelity of one leak weight per exact term
        want = {
            ("bell", "timetags.csv"):
                "6a33f82a6f1ef6edca20b93ae495474a405cb54d73a8edbfcc5735aeff256ac8",
            ("bell", "histogram.csv"):
                "28e24d8a1f582bc5e1f929a426a0caf28b49677c2d5c6791b6f9af0e99af29a8",
            ("bell", "report.json"):
                "d8f59e1b845fba47969b6ec00b17422679862d59eae27e4c1011a041709e7749",
            ("bell", "counts.csv"):
                "cbe5879923fc29953ab4ba74ffe3aa87754c7ccfec24841e7c1b4a99695c90a3",
            ("hom", "timetags.csv"):
                "52c3728958a7e7ba09f2bc9e5ad1a4c42f67c2fa9d35ad2173b4c38d225267a8",
            ("hom", "histogram.csv"):
                "7325245b66ee5fc689ce1a77043331eedcc35aa43a4a214bf2dc0c966419685c",
            ("ghz", "report.json"):
                "b2b16f6a55ebd146ebcb05f69f54a872cdc851ed9bd1dfad49ca0ae4b98eef4c",
        }
        flags = {"bell": [], "hom": [], "ghz": ["--photons", "3", "--no-timetags"]}
        for experiment, extra in flags.items():
            out = tmp_path / experiment
            assert run_cli("simulate", experiment, *extra, "--reps", "20000", "--seed", "1",
                           "--defaults", "paper", "--out", str(out)) == 0
            for (pinned, name), digest in want.items():
                if pinned == experiment:
                    got = hashlib.sha256((out / name).read_bytes()).hexdigest()
                    assert got == digest, (experiment, name)

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_concat_tags_matches_full_sort(self, n_qubits, monkeypatch):
        # each block's sub-runs' tags merged into one set of columns, in
        # blocks of about 500 repetitions that each hold some of every
        # sub-run's, joined: the order a sort of all the tags by every key
        # gives
        from timebin import experiments
        from timebin.coincidence import sorted_tags
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory

        emitter = paper_emitter()

        def blocks():
            clicks = []
            witness_trajectory(n_qubits, emitter, paper_noise(), paper_tbi(), 6000, 3,
                               on_block=clicks.append)
            return clicks

        (whole,) = blocks()
        parts = [c.to_tags(emitter.gamma0) for c in whole]
        want = sorted_tags(*(np.concatenate([getattr(t, name) for t in parts])
                             for name in ("detector", "time", "repetition")))
        monkeypatch.setattr(experiments, "BLOCK_REPS", 500)
        merged = [b[0].to_tags(emitter.gamma0, b[1:]) for b in blocks()]
        assert len(merged) == 13 and all(t._ordered for t in merged)
        for name in ("detector", "time", "repetition"):
            a = np.concatenate([getattr(t, name) for t in merged])
            b = getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert len(want) > 1000

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
        from timebin.coincidence import export_timetags
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.experiments import witness_trajectory

        emitter = paper_emitter()
        blocks = []
        run = witness_trajectory(3, emitter, paper_noise(), paper_tbi(), 24_000, 11,
                                 on_block=blocks.append)
        (clicks,) = blocks
        tags = clicks[0].to_tags(emitter.gamma0, clicks[1:])
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

    def test_theta0_leaves_witness_and_hom_runs(self, tmp_path):
        # a witness setting reads the photons at its own phase, theta0
        # cancels in 2(theta_pol - theta0), and hom reads no early-late
        # coherence: only the manifest records theta0
        for run in (["bell"], ["ghz", "--photons", "3"], ["hom"]):
            got = []
            for theta0 in (0.0, 0.3):
                conf = tmp_path / "tbi.toml"
                conf.write_text(f"[tbi]\ntheta0 = {theta0}\n")
                out = tmp_path / f"{run[0]}-{theta0}"
                assert run_cli("simulate", *run, "--reps", "1200", "--seed", "4",
                               "--config", str(conf), "--out", str(out)) == 0
                got.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
            assert "report.json" in got[0] and got[0] == got[1], run[0]

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


class TestRunBlocks:
    """simulate walks its repetitions in blocks (`experiments.BLOCK_REPS`)
    and analyze passes its file on as it reads it (`coincidence._READ_BLOCK`
    bytes at a time): no artifact depends on their sizes."""

    @staticmethod
    def artifacts(root: Path, n_reps: int, seed: int) -> dict:
        """sha256 of every artifact of simulate bell, ghz --photons 3 and hom
        and of analyze --mode witness (bell) and hom, g2 and histogram (hom);
        analysis.json without its input path."""
        common = ("--defaults", "paper", "--reps", str(n_reps), "--seed", str(seed))
        for run in (("bell",), ("ghz", "--photons", "3"), ("hom",)):
            assert run_cli("simulate", *run, *common, "--out", str(root / run[0])) == 0
        bell, hom = root / "bell", root / "hom"
        assert run_cli("analyze", "--mode", "witness", "--input", str(bell / "timetags.csv"),
                       "--manifest", str(bell / "manifest.json"),
                       "--out", str(bell / "witness")) == 0
        for mode in ("hom", "g2", "histogram"):
            assert run_cli("analyze", "--mode", mode, "--input", str(hom / "timetags.csv"),
                           "--out", str(hom / mode)) == 0
        digests = {}
        for path in sorted(root.rglob("*.*")):
            data = path.read_bytes()
            if path.name == "analysis.json":
                report = json.loads(data)
                report["configuration"].pop("input")
                data = json.dumps(report, sort_keys=True).encode()
            digests[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
        return digests

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("block, n_reps", [(1, 600), (4096, 10_000)],
                             ids=["subrun-count", "4096"])
    def test_artifacts_do_not_depend_on_blocks(self, tmp_path, monkeypatch, seed,
                                               block, n_reps):
        # BLOCK_REPS = 1 is rounded up to one repetition per sub-run (2n + 2
        # for a witness, 1 for hom); the reference is one block over the run
        from timebin import coincidence

        # the exact reference inline: a forked one is slow beside BLAS threads
        monkeypatch.delattr(os, "fork")
        assert exp.BLOCK_REPS >= n_reps
        want = self.artifacts(tmp_path / "whole", n_reps, seed)
        monkeypatch.setattr(exp, "BLOCK_REPS", block)
        monkeypatch.setattr(coincidence, "_READ_BLOCK", 512)
        got = self.artifacts(tmp_path / "blocks", n_reps, seed)
        assert got == want
        for name in ("bell/timetags.csv", "bell/histogram.csv", "bell/counts.csv",
                     "ghz/timetags.csv", "hom/timetags.csv", "hom/histogram.csv",
                     "hom/histogram/histogram.csv", "bell/witness/analysis.json",
                     "hom/g2/analysis.json"):
            assert name in want, name

    def test_distributions_evaluated_once(self, monkeypatch):
        # the engine tables and each setting's detection model are kept
        # across blocks: no model contracts a state's slots twice, at a
        # witness sub-run's tail-start states or at hom's final states
        from timebin.config import paper_emitter, paper_noise, paper_tbi
        from timebin.detection import DetectionModel

        calls = []
        spin_blocks = DetectionModel.spin_blocks
        # the calls hold their model and state, so no id is reused in a run
        monkeypatch.setattr(DetectionModel, "spin_blocks",
                            lambda self, state: calls.append((self, state))
                            or spin_blocks(self, state))

        def count(block):
            monkeypatch.setattr(exp, "BLOCK_REPS", block)
            calls.clear()
            run = exp.witness_trajectory(2, paper_emitter(), paper_noise(), paper_tbi(),
                                         1200, 4)
            witness = len(calls)
            hom = exp.simulate_hom(paper_emitter(), paper_noise(), paper_tbi(), 1200, 4)
            keys = {(id(model), id(state)) for model, state in calls}
            assert len(keys) == len(calls)
            # a witness run's three settings: one model each
            assert len({id(model) for model, _ in calls[:witness]}) == 3
            return witness, len(calls) - witness, run.outcome.fidelity, hom.g2

        whole = count(1200)
        assert count(1) == count(100) == whole and whole[0] > 10 and whole[1] > 0

    @pytest.mark.parametrize("mode", ["hom", "witness"])
    def test_disorder_in_last_block(self, tmp_path, monkeypatch, mode):
        # a file in order but for its last block: the blocks already passed
        # on are dropped, and the file is read and sorted whole, with the
        # warning of an unsorted file
        from timebin import coincidence

        sim = tmp_path / "sim"
        experiment = "hom" if mode == "hom" else "bell"
        assert run_cli("simulate", experiment, "--defaults", "paper", "--reps", "3000",
                       "--seed", "6", "--out", str(sim)) == 0
        args = ["analyze", "--mode", mode, "--manifest", str(sim / "manifest.json")]
        assert run_cli(*args, "--input", str(sim / "timetags.csv"),
                       "--out", str(tmp_path / "sorted")) == 0
        lines = (sim / "timetags.csv").read_bytes().splitlines(keepends=True)
        # the last row, of the last repetition, moved up past five rows of
        # earlier repetitions
        assert lines[-1].split(b",")[2] != lines[-6].split(b",")[2]
        lines.insert(-6, lines.pop())
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_bytes(b"".join(lines))
        monkeypatch.setattr(coincidence, "_READ_BLOCK", 4096)
        assert len(lines) * 20 > 10 * 4096
        with pytest.warns(UserWarning, match="non-monotone"):
            assert run_cli(*args, "--input", str(shuffled),
                           "--out", str(tmp_path / "out")) == 0
        got, want = (json.loads((tmp_path / d / "analysis.json").read_text())
                     for d in ("out", "sorted"))
        for report in (got, want):
            report["configuration"].pop("input")
        assert got == want

    def test_simulate_hom_memory_bounded(self, tmp_path, monkeypatch):
        # at 4x the repetitions in blocks of 1,000, simulate hom (its tags
        # written, its g2 and HOM sums counted) peaks no higher than 1.25x
        import tracemalloc

        monkeypatch.setattr(exp, "BLOCK_REPS", 1000)

        def peak(n_reps):
            tracemalloc.start()
            try:
                assert run_cli("simulate", "hom", "--defaults", "paper", "--reps",
                               str(n_reps), "--out", str(tmp_path / str(n_reps))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4000)  # the first run's one-off allocations
        small, large = peak(4000), peak(16_000)
        assert large <= 1.25 * small, (small, large)
