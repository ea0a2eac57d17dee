"""Differentially private streaming submodular maximization.

A single-pass, cardinality-constrained maximizer for monotone submodular
objectives with Laplace- or Gumbel-noised threshold checks, the privacy
accounting that calibrates them, k-medians/coverage objectives, and a
benchmark harness that sweeps methods across k and epsilon.

``__all__`` is the package API: what the CLI, the benchmark and the README
use. Everything else is reached through its submodule.
"""

__version__ = "0.1.0"

from .accounting import PrivacyParams
from .data import make_grid, synth_mixture
from .experiment import ExperimentConfig, emit_csv, load_config, run_experiment
from .noise import GUMBEL, LAPLACE, NoiseSource, derive_seed, private_argmax
from .objectives import coverage_oracle, kmedians_oracle
from .streaming import (
    PssmConfig,
    RunDiagnostics,
    build_guess_ladder,
    pssm,
    threshold_stream_with_tail_fill,
)

__all__ = [
    "ExperimentConfig", "GUMBEL", "LAPLACE", "NoiseSource", "PrivacyParams",
    "PssmConfig", "RunDiagnostics", "build_guess_ladder", "coverage_oracle",
    "derive_seed", "emit_csv", "kmedians_oracle", "load_config", "make_grid",
    "private_argmax", "pssm", "run_experiment", "synth_mixture",
    "threshold_stream_with_tail_fill",
]
