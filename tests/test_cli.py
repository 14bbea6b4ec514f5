import json
import subprocess
import sys

import pytest

from timebin.cli import _resolve_config, build_parser, main
from timebin.config import load_config
from timebin.errors import ConfigurationError, ParseError


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

    def test_analyze_roundtrip_matches_simulate(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "bell", "--defaults", "paper", "--reps", "12000",
                "--seed", "13", "--out", str(out))
        ana = tmp_path / "ana"
        rc = run_cli("analyze", "--input", str(out / "timetags.csv"),
                     "--mode", "witness", "--manifest", str(out / "manifest.json"),
                     "--out", str(ana))
        assert rc == 0
        sim_f = json.loads((out / "report.json").read_text())["fidelity"]["value"]
        ana_f = json.loads((ana / "analysis.json").read_text())["fidelity"]["value"]
        assert sim_f == ana_f

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
        ana_f = json.loads((ana / "analysis.json").read_text())["fidelity"]["value"]
        assert ana_f == run.outcome.fidelity

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
