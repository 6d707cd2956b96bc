"""Threshold estimation of integrated variance for jump diffusions.

Simulators for three reference jump models (compound Poisson, stochastic
volatility with jumps, Variance Gamma), threshold and bipower estimators,
jump detection, and a deterministic Monte Carlo harness for the normality
and efficiency diagnostics.
"""

from .errors import (
    AdmissibilityWarning,
    ConfigError,
    DegenerateStatisticError,
    InvalidArgumentError,
    JumpsiftError,
    SimulationError,
    UnsupportedError,
)
from .grids import TimeGrid, build_irregular_grid, build_uniform_grid, refine
from .models import (
    CustomModel,
    GroundTruth,
    JumpTable,
    Model1,
    Model2,
    Model3,
    SamplePath,
    compound_poisson_law,
    finite_activity,
    has_jumps,
)
from .engines import (
    RNG_ALGORITHM,
    path_seed,
    simulate,
    true_integrated_variance,
)
from .estimators import (
    JumpDetectionResult,
    ThresholdSpec,
    bipower_variation,
    detect_jumps,
    estimation_report,
    jump_size_error_stat,
    normalized_bias,
    realized_variance,
    threshold_admissible,
    threshold_quarticity,
    threshold_realized_variance,
)
from .diagnostics import (
    PoissonMixtureCdf,
    build_histogram,
    ks_against_cdf,
    ks_statistic,
    normal_cdf,
    sample_moments,
)
from .montecarlo import (
    ExperimentConfig,
    efficiency_comparison,
    jump_size_clt_experiment,
    run_experiment,
    small_jump_bias_bound,
)
from .config import PRESETS, RunSettings, load_config_file, merge_settings, resolve_seed

__version__ = "0.1.0"
