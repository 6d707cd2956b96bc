"""Observation grids on [0, T]."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
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
    n = _check_number("n", n, SIZE)
    t_end = _check_number("t_end", t_end)
    with np.errstate(over="ignore"):  # linspace's last step overflows near the largest double
        times = np.linspace(0.0, t_end, n + 1)
    try:
        grid = TimeGrid(times)
    except InvalidArgumentError:  # repeated times
        raise InvalidArgumentError(f"t_end = {t_end!r} is too short for n = {n} intervals") from None
    object.__setattr__(grid, "is_uniform", True)
    return grid


def build_irregular_grid(n: int, t_end: float, jitter: float, seed: int) -> TimeGrid:
    """Uniform grid with interior times perturbed by +-jitter*(T/n)/2.

    jitter must lie in [0, 1) so the perturbed times stay strictly
    increasing. jitter=0 returns exactly the uniform grid.
    """
    grid = build_uniform_grid(n, t_end)
    jitter = _check_number("jitter", jitter, JITTER)
    seed = _check_number("seed", seed, INTEGER)
    if jitter == 0.0 or grid.n == 1:
        return grid
    rng = rng_from_seed(seed ^ GRID_SALT)
    times = grid.times  # grid itself is dropped, so its times may change
    half = jitter * (grid.t_end / grid.n) / 2.0
    times[1:-1] += (rng.random(grid.n - 1) * 2.0 - 1.0) * half
    return TimeGrid(times)


def refine(grid: TimeGrid, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulation subgrid: each observation interval split into `substeps`
    equal parts. Returns (fine_times, fine_widths); fine_times[i*substeps]
    equals grid.times[i] exactly.
    """
    substeps = _check_number("substeps", substeps, SIZE)
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


# The range rules of the numbers jumpsift's types and builders take: the numbers ABC a
# value must be (a bool is not), then the (wording, test) pairs its int or float must pass.
POSITIVE = (numbers.Real, ("be positive and finite", lambda x: 0.0 < x < np.inf))
FINITE = (numbers.Real, ("be finite", np.isfinite))
NONNEGATIVE = (numbers.Real, ("be >= 0 and finite", lambda x: 0.0 <= x < np.inf))
JITTER = (numbers.Real, ("lie in [0, 1)", lambda j: 0.0 <= j < 1.0))
CORRELATION = (numbers.Real, ("lie in [-1, 1]", lambda r: -1.0 <= r <= 1.0))
INTEGER = (numbers.Integral,)
COUNT = (numbers.Integral, ("be >= 1", lambda v: v >= 1))
# A count that sizes an array: that many doubles, and one more, fit in a numpy array.
SIZE = (*COUNT, (f"be at most {_MAX_ARRAY_BYTES // 8 - 1}", lambda v: v < _MAX_ARRAY_BYTES // 8))
# A Poisson mean lam_t: its mixture series takes about 15 * sqrt(lam_t) terms.
POISSON_MEAN = (*NONNEGATIVE, ("be at most 1e7", lambda x: x <= 1e7))


def _check_number(name, value, rule=POSITIVE):
    """value as an int or a float, if it passes rule; else InvalidArgumentError."""
    kind, *clauses = rule
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise InvalidArgumentError(f"{name} must be {noun}, got {value!r}")
    try:
        number = int(value) if kind is numbers.Integral else float(value)
    except OverflowError:  # an int past the largest double; NaN fails every real clause
        number = np.nan
    for wording, test in clauses:
        if not test(number):
            raise InvalidArgumentError(f"{name} must {wording}, got {value!r}")
    return number


def _check_fields(obj, name=str):
    """As a dataclass's __post_init__, checks each field whose metadata holds a
    "rule" and stores the number checked; a message calls field f name(f)."""
    for f in fields(obj):
        if "rule" in f.metadata:
            value = _check_number(name(f.name), getattr(obj, f.name), f.metadata["rule"])
            object.__setattr__(obj, f.name, value)
