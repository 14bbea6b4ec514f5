"""Simulator and analysis toolkit for time-bin spin-photon entanglement
generation from a single quantum emitter."""

from .emitter import (EmitterParams, NoiseParams, PulseOp, PulseSequence,
                      build_bell_sequence, build_ghz_sequence,
                      build_hom_sequence, ideal_emitter, ideal_noise,
                      run_sequence_exact, run_sequence_trajectory)
from .hilbert import (DensityOperator, LinearOperator, QuditState,
                      RegisterLayout, direct_fidelity, expectation,
                      tensor_embed)
from .interferometer import (Detector, TBIParams, Window, classical_fringe,
                             effective_phase)
from .witness import (MeasurementSetting, TargetState, bell_fidelity,
                      bell_settings, bell_target, ghz_fidelity, ghz_settings)
from .coincidence import (HomCounts, TagArrays, WindowConfig,
                          build_histogram, g2_zero, hom_correct,
                          hom_visibility, ingest_timetags)
from .config import RunConfig, load_config, paper_emitter, paper_noise, paper_tbi

__version__ = "0.1.0"
