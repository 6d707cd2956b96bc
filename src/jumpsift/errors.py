"""Exception and warning types shared across the package."""


class JumpsiftError(Exception):
    """Base class for all errors raised by jumpsift."""


class InvalidArgumentError(JumpsiftError, ValueError):
    """An argument is outside its documented domain."""


class UnsupportedError(JumpsiftError):
    """The inputs are valid but the requested combination is not supported."""


class DegenerateStatisticError(JumpsiftError):
    """A statistic is undefined for this path (e.g. zero denominator)."""


class SimulationError(JumpsiftError):
    """Path generation failed (e.g. bounded resampling exhausted)."""


class ConfigError(JumpsiftError):
    """A configuration file or flag set failed validation."""


class DegenerateSizeError(InvalidArgumentError, ConfigError):
    """A run configuration at which an experiment can never succeed. It is
    raised before any path is simulated, and as a ConfigError the CLI exits 2."""


class AdmissibilityWarning(UserWarning):
    """Emitted when an estimator runs with an inadmissible threshold."""
