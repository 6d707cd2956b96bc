"""Threshold estimation of integrated variance for jump diffusions.

Simulators for three reference jump models (compound Poisson, stochastic
volatility with jumps, Variance Gamma), threshold and bipower estimators,
jump detection, and a deterministic Monte Carlo harness for the normality
and efficiency diagnostics. The harness, the diagnostics and the file writers
(serialize) load on first use of one of their names, so a process that never
runs them never imports them.
"""

from .errors import (AdmissibilityWarning, ConfigError, DegenerateStatisticError,
                     InvalidArgumentError, JumpsiftError, SimulationError, UnsupportedError)
from .grids import TimeGrid, build_irregular_grid, build_uniform_grid, refine
from .models import (CustomModel, GroundTruth, JumpTable, Model1, Model2, Model3, SamplePath,
                     compound_poisson_law, finite_activity, has_jumps)
from .engines import RNG_ALGORITHM, path_seed, simulate, true_integrated_variance
from .estimators import (JumpDetectionResult, ThresholdSpec, bipower_variation, detect_jumps,
                         estimation_report, jump_size_error_stat, normalized_bias,
                         realized_variance, threshold_admissible, threshold_quarticity,
                         threshold_realized_variance)
from .config import (PRESETS, ExperimentConfig, RunSettings, load_config_file, merge_settings,
                     resolve_seed)

__version__ = "0.1.0"

# Name -> the submodule that defines it (or is it), imported on the name's first use.
_LAZY = {
    **dict.fromkeys(("diagnostics", "PoissonMixtureCdf", "build_histogram", "ks_against_cdf",
                     "ks_statistic", "normal_cdf", "sample_moments"), "diagnostics"),
    **dict.fromkeys(("montecarlo", "efficiency_comparison", "jump_size_clt_experiment",
                     "run_experiment", "small_jump_bias_bound"), "montecarlo"),
    "serialize": "serialize",
}
# `from jumpsift import *` binds every public name, the lazy ones included.
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
