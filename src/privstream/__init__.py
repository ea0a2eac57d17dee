"""Differentially private streaming submodular maximization.

A single-pass, cardinality-constrained maximizer for monotone submodular
objectives with Laplace- or Gumbel-noised threshold checks, the privacy
accounting that calibrates them, k-medians/coverage objectives, and a
benchmark harness that sweeps methods across k and epsilon.
"""

__version__ = "0.1.0"

from .accounting import (
    BASIC,
    ADVANCED,
    BudgetSplit,
    PrivacyParams,
    advanced_compose,
    advanced_compose_delta,
    basic_compose,
    basic_split,
    sparse_gumbel_scale,
    sparse_laplace_sigma,
    split_budget,
)
from .data import PointCloud, load_points_csv, make_grid, synth_mixture
from .experiment import (
    CellStats,
    ExperimentConfig,
    RunReport,
    emit_csv,
    load_config,
    read_report_csv,
    run_experiment,
)
from .noise import (
    GUMBEL,
    LAPLACE,
    ZERO_FOR_TEST,
    NoiseSource,
    derive_seed,
    private_argmax,
)
from .objectives import (
    CoverageObjective,
    KMediansObjective,
    coverage_oracle,
    kmedians_oracle,
)
from .streaming import (
    PssmConfig,
    RunDiagnostics,
    SparseInstance,
    build_guess_ladder,
    pssm,
    threshold_stream,
    threshold_stream_with_tail_fill,
)
from .submodular import (
    DecomposableObjective,
    ModularObjective,
    ObjectiveOracle,
    PropertyReport,
    brute_force_opt,
    check_submodular_monotone,
    marginal_gain,
    sensitivity_probe,
)
