"""Threshold estimation of integrated variance for jump diffusions.

Simulators for three reference jump models (compound Poisson, stochastic
volatility with jumps, Variance Gamma), threshold and bipower estimators,
jump detection, and a deterministic Monte Carlo harness for the normality
and efficiency diagnostics. Every public name and every module loads on
first use, so `import jumpsift` imports nothing, numpy included.
"""

__version__ = "0.1.0"

# Module -> the names of README "Library"'s table that it defines.
_NAMES = {
    "errors": ("AdmissibilityWarning", "ConfigError", "DegenerateStatisticError",
               "InvalidArgumentError", "JumpsiftError", "SimulationError", "UnsupportedError"),
    "grids": ("TimeGrid", "build_irregular_grid", "build_uniform_grid", "refine"),
    "models": ("CustomModel", "GroundTruth", "JumpTable", "Model1", "Model2", "Model3",
               "SamplePath", "compound_poisson_law", "finite_activity", "has_jumps"),
    "engines": ("path_seed", "simulate", "true_integrated_variance"),
    "estimators": ("JumpDetectionResult", "ThresholdSpec", "bipower_variation", "detect_jumps",
                   "estimation_report", "jump_size_error_stat", "normalized_bias",
                   "realized_variance", "threshold_admissible", "threshold_quarticity",
                   "threshold_realized_variance"),
    "config": ("ExperimentConfig", "RunSettings", "merge_settings"),
    "diagnostics": ("PoissonMixtureCdf", "build_histogram", "ks_against_cdf", "ks_statistic",
                    "normal_cdf", "sample_moments"),
    "montecarlo": ("efficiency_comparison", "jump_size_clt_experiment", "run_experiment",
                   "small_jump_bias_bound"),
    "serialize": (),
}
# Name or module -> the module imported on its first use.
_LAZY = {name: module for module, names in _NAMES.items() for name in (module, *names)}
__all__ = sorted(name for names in _NAMES.values() for name in names)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
