"""Observation grids on [0, T]."""

from __future__ import annotations

import numbers
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

_MAX_ARRAY_BYTES = np.iinfo(np.intp).max  # numpy's limit on the bytes of one array


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


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def build_uniform_grid(n: int, t_end: float) -> TimeGrid:
    """Equally spaced grid with n intervals on [0, t_end], marked uniform:
    linspace widths spread by about n ulps of h, past _UNIFORM_RTOL."""
    _check_count("n", n)
    _check_number("t_end", t_end)
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
    grid = build_uniform_grid(n, t_end)
    _check_jitter(jitter)
    if jitter == 0.0 or n == 1:
        return grid
    rng = rng_from_seed(int(seed) ^ GRID_SALT)
    times = grid.times  # grid itself is dropped, so its times may change
    half = jitter * (t_end / n) / 2.0
    times[1:-1] += (rng.random(n - 1) * 2.0 - 1.0) * half
    return TimeGrid(times)


def refine(grid: TimeGrid, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulation subgrid: each observation interval split into `substeps`
    equal parts. Returns (fine_times, fine_widths); fine_times[i*substeps]
    equals grid.times[i] exactly.
    """
    _check_count("substeps", substeps)
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


# The range rules of the numbers jumpsift's types and builders take. A range is a
# (wording, test) pair, or None for any; a bool is not a number, though Python's bool is an int.
def _check_number(name, value, allowed=("be positive and finite", lambda x: 0.0 < x < np.inf),
                  kind=numbers.Real):
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise InvalidArgumentError(f"{name} must be {noun}, got {value!r}")
    if allowed is not None and not allowed[1](value):
        raise InvalidArgumentError(f"{name} must {allowed[0]}, got {value!r}")


def _check_count(name, value):
    _check_number(name, value, ("be >= 1", lambda v: v >= 1), numbers.Integral)


def _check_jitter(jitter):
    _check_number("jitter", jitter, ("lie in [0, 1)", lambda j: 0.0 <= j < 1.0))
