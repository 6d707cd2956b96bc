"""Observation grids on [0, T]."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError

# Salt for the jitter RNG stream so a grid built from `seed` never shares a
# Philox key with a path simulated from the same seed (paths use seed ^ index).
GRID_SALT = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Relative spread of interval widths below which a grid read from data counts
# as uniform; build_uniform_grid marks its grids uniform by construction.
_UNIFORM_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing observation times 0 = t_0 < ... < t_n = T."""

    times: np.ndarray
    widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise InvalidArgumentError("grid needs at least two times")
        if times[0] != 0.0:
            raise InvalidArgumentError("grid must start at 0")
        widths = np.diff(times)
        if not np.all(widths > 0.0):
            raise InvalidArgumentError("times must be strictly increasing")
        if not np.isfinite(times[-1]) or times[-1] <= 0.0:
            raise InvalidArgumentError("horizon T must be positive and finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "widths", widths)

    @property
    def n(self) -> int:
        return self.times.size - 1

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def h(self) -> float:
        """Maximal lag max_i (t_i - t_{i-1})."""
        return float(self.widths.max())

    @cached_property
    def is_uniform(self) -> bool:
        spread = float(self.widths.max() - self.widths.min())
        return spread <= _UNIFORM_RTOL * self.h


def build_uniform_grid(n: int, t_end: float) -> TimeGrid:
    """Equally spaced grid with n intervals on [0, t_end], marked uniform:
    linspace widths spread by about n ulps of h, past _UNIFORM_RTOL."""
    _check_grid_args(n, t_end)
    with np.errstate(over="ignore"):  # linspace's last step overflows near the largest double
        times = np.linspace(0.0, float(t_end), n + 1)
    grid = TimeGrid(times)
    object.__setattr__(grid, "is_uniform", True)
    return grid


def build_irregular_grid(n: int, t_end: float, jitter: float, seed: int) -> TimeGrid:
    """Uniform grid with interior times perturbed by +-jitter*(T/n)/2.

    jitter must lie in [0, 1) so the perturbed times stay strictly
    increasing. jitter=0 returns exactly the uniform grid.
    """
    _check_grid_args(n, t_end)
    if not (0.0 <= jitter < 1.0):
        raise InvalidArgumentError(f"jitter must be in [0, 1), got {jitter}")
    if jitter == 0.0 or n == 1:
        return build_uniform_grid(n, t_end)
    rng = np.random.Generator(np.random.Philox(key=(int(seed) ^ GRID_SALT) & _MASK64))
    with np.errstate(over="ignore"):
        times = np.linspace(0.0, float(t_end), n + 1)
    half = jitter * (t_end / n) / 2.0
    times[1:-1] += (rng.random(n - 1) * 2.0 - 1.0) * half
    return TimeGrid(times)


def refine(grid: TimeGrid, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulation subgrid: each observation interval split into `substeps`
    equal parts. Returns (fine_times, fine_widths); fine_times[i*substeps]
    equals grid.times[i] exactly.
    """
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise InvalidArgumentError(f"substeps must be a positive integer, got {substeps!r}")
    if substeps == 1:
        return grid.times, grid.widths
    offsets = np.arange(substeps) / substeps
    fine = (grid.times[:-1, None] + grid.widths[:, None] * offsets).ravel()
    fine = np.append(fine, grid.times[-1])
    return fine, np.diff(fine)


def containing_intervals(times: np.ndarray, event_times) -> np.ndarray:
    """Index i of the interval (t_i, t_{i+1}] of `times` containing each event
    time, clamped to [0, times.size - 2]."""
    i = np.searchsorted(times, event_times, side="left")
    i -= 1
    np.maximum(i, 0, out=i)
    np.minimum(i, times.size - 2, out=i)
    return i


def _check_grid_args(n, t_end):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    if not (float(t_end) > 0.0) or not np.isfinite(t_end):
        raise InvalidArgumentError(f"T must be positive and finite, got {t_end!r}")
