"""Run configuration: presets, config files, validation.

A config file is TOML (read by `tomllib`) whose sections [run], [emitter],
[noise] and [tbi] hold the fields of `RunConfig` and its three parameter
dataclasses.  Its values, and a run manifest's, enter through
`config_from_sections`, which checks every key and value type.  CLI flags
override file values; the `paper` preset pins every parameter to the
characterized-source defaults baked into this module.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

from .coincidence import WindowConfig
from .emitter import (EmitterParams, NoiseParams, check_fields, finite_number,
                      ideal_emitter, ideal_noise)
from .errors import ConfigurationError, ParseError
from .interferometer import TBIParams

EXPERIMENTS = ("bell", "ghz", "hom", "fringe-scan", "rabi-calibration")
FRINGE_MODES = ("classical", "spin-conditioned")

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
    return TBIParams(theta0=0.0, classical_visibility=0.989, splitting_ratio=0.5)


# the interferometer-imperfection divisor used when correcting the raw HOM
# visibility; back-solved from the characterization chain, not measured
V_CLASSICAL_BACKSOLVED = 0.989


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters, range-checked when built.  `echo` is what the
    run's manifest records, and `config_from_sections` reads it back."""

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
        # types first: the range checks below would meet a wrong one as a
        # TypeError, or pass it (thinned = 2, n_repetitions = 2.5)
        check_fields("run", RunConfig, vars(self))
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"run.experiment must be one of {EXPERIMENTS}, "
                                     f"not {self.experiment!r}")
        if self.fringe_mode not in FRINGE_MODES:
            raise ConfigurationError(f"run.fringe_mode must be one of {FRINGE_MODES}, "
                                     f"not {self.fringe_mode!r}")
        if self.n_repetitions < 1:
            raise ConfigurationError("run.n_repetitions must be at least 1")
        if self.fringe_points < 2:
            # the fringe fit has two parameters
            raise ConfigurationError(
                f"run.fringe_points must be at least 2, got {self.fringe_points}")
        span = self.fringe_span
        if not (isinstance(span, (tuple, list)) and len(span) == 2
                and all(map(finite_number, span)) and span[0] != span[1]):
            raise ConfigurationError(f"run.fringe_span must be two different finite "
                                     f"numbers, not {span!r}")
        # a file or manifest gives a list
        object.__setattr__(self, "fringe_span", tuple(span))
        if self.experiment == "ghz" and not 3 <= self.n_qubits <= MAX_GHZ_QUBITS:
            raise ConfigurationError(
                f"run.n_qubits of a ghz run must lie in 3..{MAX_GHZ_QUBITS}, not "
                f"{self.n_qubits}: the exact witness reference evolves dense density "
                f"components, about 256 of 107 MB each at {MAX_GHZ_QUBITS + 1} qubits")
        windows = self.windows
        readout_end = windows.readout_start + windows.readout_width
        if readout_end > self.emitter.repetition_period_ns:
            raise ConfigurationError(
                f"the readout window ends at {readout_end:.6g} ns, after the "
                f"repetition period of {self.emitter.repetition_period_ns:.6g} ns")

    @property
    def windows(self) -> WindowConfig:
        """The detection windows of the run's sequence: one photon slot, or
        n_qubits - 1 for ghz."""
        return WindowConfig.for_sequence(
            self.n_qubits - 1 if self.experiment == "ghz" else 1,
            t_inf=self.emitter.t_inf, slot_spacing=self.emitter.photon_spacing_ns)

    def echo(self) -> dict:
        """Every field but where the run writes and whether it writes tags."""
        d = asdict(self)
        del d["out_dir"], d["write_timetags"]
        return d


def noise_off(config: RunConfig) -> RunConfig:
    """All error channels disabled; infinite cyclicity; unit efficiencies."""
    return replace(config, emitter=ideal_emitter(), noise=ideal_noise(),
                   tbi=TBIParams(theta0=config.tbi.theta0, classical_visibility=1.0))


# ---------------------------------------------------------------------------
# config files and manifests
# ---------------------------------------------------------------------------


def read_config_file(path) -> dict[str, dict]:
    """Parse a TOML file into {section: {key: value}}."""
    import tomllib  # here, so a run without --config imports no parser

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        sections = tomllib.loads(text)
    except ValueError as exc:  # TOMLDecodeError names the line; or not UTF-8
        raise ParseError(f"{path}: {exc}") from None
    for key, value in sections.items():
        if not isinstance(value, dict):
            # TOML reads a key before the first [section] as a top-level value
            lines = (n for n, line in enumerate(text.splitlines(), 1)
                     if line.partition("=")[0].strip(" \t\"'") == key)
            raise ParseError(f"{path}: key {key!r} outside any [section]",
                             line=next(lines, None))
    return sections


_SECTION_TYPES = {"run": RunConfig, "emitter": EmitterParams, "noise": NoiseParams,
                  "tbi": TBIParams}


def config_from_sections(sections: dict, base: RunConfig | None = None) -> RunConfig:
    """`base` with the values of a parsed config file or manifest.  Each key
    and value type is checked, naming `section.key`, before any dataclass is
    built, whose range checks would meet a wrong type as a TypeError."""
    cfg = base if base is not None else RunConfig()
    unknown = set(sections) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigurationError(f"unknown sections: {sorted(unknown)}")
    for section, values in sections.items():
        check_fields(section, _SECTION_TYPES[section], values)
    kwargs = dict(sections.get("run", {}))
    for name in ("emitter", "noise", "tbi"):
        if name in kwargs:  # [run] holds RunConfig's own fields, not its sections
            raise ConfigurationError(f"unknown key run.{name}")
        if name in sections:
            kwargs[name] = replace(getattr(cfg, name), **sections[name])
    return replace(cfg, **kwargs)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return config_from_sections(read_config_file(path), base)


def write_manifest(path, config: RunConfig, outputs: list[str]) -> None:
    manifest = {"config": config.echo(), "outputs": sorted(outputs),
                "format_version": 1}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
