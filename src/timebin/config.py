"""Run configuration: presets, file parsing, validation.

The configuration file is a sectioned key = value format (TOML-compatible
for the subset used here): sections [run], [emitter], [noise] and [tbi];
any other section is rejected.  CLI flags override file values; the
`paper` preset pins every parameter to the characterized-source defaults
baked into this module.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

from .coincidence import WindowConfig
from .emitter import EmitterParams, NoiseParams, ideal_emitter, ideal_noise
from .errors import ConfigurationError, ParseError
from .interferometer import TBIParams

EXPERIMENTS = ("bell", "ghz", "hom", "fringe-scan", "rabi-calibration")

# the exact witness reference evolves dense density components of
# 2 * 6^(n - 1) levels: at 5 qubits one is ~107 MB, and there are ~256
MAX_GHZ_QUBITS = 4


def paper_emitter() -> EmitterParams:
    """Characterized emitter constants (cyclicity 14.7, gamma0 2.54/ns)."""
    return EmitterParams()


def paper_noise() -> NoiseParams:
    """Calibrated error budget of the characterized source.

    f_pi and the efficiencies are measured quantities; the remaining
    probabilities are calibrated so the simulated fidelity, detection
    pattern, g2(0) decomposition and raw HOM visibility reproduce the
    characterization data (see the acceptance suite).
    """
    return NoiseParams(
        f_pi=0.885,
        rot_dephasing_ratio=0.458,
        p_init_error=0.005,
        p_wrong_transition=0.002,
        p_double=0.015,
        p_leak=0.0011,
        p_wait_dephasing=0.105,
        eta_total=0.003,
        eta_readout=0.05,
        readout_fidelity=1.0,
        readout_dark=0.0,
        indistinguishability=0.935,
    )


def paper_tbi() -> TBIParams:
    return TBIParams(theta0=0.0, theta_pol=0.0, classical_visibility=0.989,
                     splitting_ratio=0.5)


# the interferometer-imperfection divisor used when correcting the raw HOM
# visibility; back-solved from the characterization chain, not measured
V_CLASSICAL_BACKSOLVED = 0.989


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "bell"
    n_repetitions: int = 100_000
    master_seed: int = 1
    n_qubits: int = 3                   # GHZ size (spin + photons)
    thinned: bool = False               # post-selected estimates need no thinning
    out_dir: str = "runs"
    emitter: EmitterParams = field(default_factory=paper_emitter)
    noise: NoiseParams = field(default_factory=paper_noise)
    tbi: TBIParams = field(default_factory=paper_tbi)
    fringe_points: int = 20
    fringe_span: tuple[float, float] = (0.0, math.pi)
    fringe_mode: str = "classical"
    write_timetags: bool = True

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}")
        if self.n_repetitions < 1:
            raise ConfigurationError("n_repetitions must be at least 1")
        if self.fringe_points < 2:
            # the fringe fit has two parameters
            raise ConfigurationError(
                f"fringe_points must be at least 2, got {self.fringe_points}")
        if self.n_qubits < 3 and self.experiment == "ghz":
            raise ConfigurationError("GHZ runs need at least 3 qubits")
        if self.n_qubits > MAX_GHZ_QUBITS and self.experiment == "ghz":
            raise ConfigurationError(
                f"GHZ runs support at most {MAX_GHZ_QUBITS} qubits: the exact "
                "witness reference evolves dense density components, about 256 "
                f"of 107 MB each at {MAX_GHZ_QUBITS + 1} qubits")
        # the sequence's windows: one photon slot, or n_qubits - 1 for ghz
        windows = WindowConfig.for_sequence(
            self.n_qubits - 1 if self.experiment == "ghz" else 1,
            t_inf=self.emitter.t_inf, slot_spacing=self.emitter.photon_spacing_ns)
        readout_end = windows.readout_start + windows.readout_width
        if readout_end > self.emitter.repetition_period_ns:
            raise ConfigurationError(
                f"the readout window ends at {readout_end:.6g} ns, after the "
                f"repetition period of {self.emitter.repetition_period_ns:.6g} ns")

    def echo(self) -> dict:
        d = {
            "experiment": self.experiment,
            "n_repetitions": self.n_repetitions,
            "master_seed": self.master_seed,
            "n_qubits": self.n_qubits,
            "thinned": self.thinned,
            "emitter": asdict(self.emitter),
            "noise": asdict(self.noise),
            "tbi": asdict(self.tbi),
            "fringe_points": self.fringe_points,
            "fringe_span": list(self.fringe_span),
            "fringe_mode": self.fringe_mode,
        }
        return d


def noise_off(config: RunConfig) -> RunConfig:
    """All error channels disabled; infinite cyclicity; unit efficiencies."""
    return replace(config, emitter=ideal_emitter(), noise=ideal_noise(),
                   tbi=TBIParams(theta0=config.tbi.theta0,
                                 theta_pol=config.tbi.theta_pol,
                                 classical_visibility=1.0))


# ---------------------------------------------------------------------------
# config file parsing (sectioned key = value, TOML-compatible subset)
# ---------------------------------------------------------------------------


def _parse_scalar(text: str, path: str, lineno: int):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
            return float(text)
        return int(text)
    except ValueError:
        raise ParseError(f"{path}: cannot parse value {text!r}", line=lineno) from None


def read_config_file(path) -> dict[str, dict]:
    """Parse a sectioned key = value file into {section: {key: value}}."""
    sections: dict[str, dict] = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ParseError(f"{path}: expected key = value", line=lineno)
            key, _, value = line.partition("=")
            if current is None:
                raise ParseError(f"{path}: key outside any [section]", line=lineno)
            sections[current][key.strip()] = _parse_scalar(value, str(path), lineno)
    return sections


_SECTION_TYPES = {"emitter": EmitterParams, "noise": NoiseParams, "tbi": TBIParams}


def config_from_sections(sections: dict, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    unknown = set(sections) - {"run", *_SECTION_TYPES}
    if unknown:
        raise ConfigurationError(f"unknown sections: {sorted(unknown)}")
    kwargs = {}
    run = sections.get("run", {})
    for key in ("experiment", "n_repetitions", "master_seed", "n_qubits",
                "thinned", "out_dir", "fringe_points", "fringe_mode",
                "write_timetags"):
        if key in run:
            kwargs[key] = run[key]
    unknown = set(run) - set(kwargs)
    if unknown:
        raise ConfigurationError(f"unknown [run] keys: {sorted(unknown)}")
    for name, cls in _SECTION_TYPES.items():
        if name in sections:
            current = getattr(cfg, name)
            fields = {f for f in current.__dataclass_fields__}
            bad = set(sections[name]) - fields
            if bad:
                raise ConfigurationError(f"unknown [{name}] keys: {sorted(bad)}")
            kwargs[name] = replace(current, **sections[name])
    return replace(cfg, **kwargs)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return config_from_sections(read_config_file(path), base)


def write_manifest(path, config: RunConfig, outputs: list[str]) -> None:
    manifest = {"config": config.echo(), "outputs": sorted(outputs),
                "format_version": 1}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
