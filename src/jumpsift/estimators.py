"""Threshold variance estimators, comparison estimators, and jump recovery.

All operations are pure functions of a SamplePath (observations + grid) and
a ThresholdSpec. Every sum is the correctly rounded exact sum, the same
double math.fsum returns. The sums one path needs are computed together by
error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
2008): a few vectorized passes split each row into parts whose float sums
are exact, and math.fsum adds those few parts. Short rows, non-finite
values and extreme magnitudes go to math.fsum directly. The truncated sum is
formed as the total minus the flagged sum F = sum over flagged intervals of
(dX_i)^2, with realized_variance and F each correctly rounded, so

    threshold_realized_variance == realized_variance - F

holds exactly, by construction. The rearranged form realized_variance ==
threshold_realized_variance + F is not a floating-point identity: it misses
by one unit in the last place when realized_variance - F rounds at a tie.
"""

from __future__ import annotations

import array
import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AdmissibilityWarning,
    DegenerateStatisticError,
    InvalidArgumentError,
    UnsupportedError,
)
from .grids import TimeGrid
from .models import JumpEvent, JumpTable, SamplePath

# _exact_sums hands a row to math.fsum as it is when it is shorter than
# _EXTRACT_MIN_LENGTH, or when its largest magnitude lies outside
# _EXTRACT_RANGE (zero, nan and inf included); the range keeps sigma finite.
_EXTRACT_MIN_LENGTH = 64
_EXTRACT_RANGE = (math.ldexp(1.0, -900), math.ldexp(1.0, 900))
_EXTRACT_PASSES = 4


@dataclass(frozen=True, slots=True)
class ThresholdSpec:
    """Power-law threshold r(dt) = scale_c * dt**beta.

    per_interval=True evaluates r at each observation lag dt_i; False uses
    the single global lag h = max_i dt_i. On a uniform grid the two agree.
    Construction is permissive (any finite beta and scale_c) so that
    inadmissible choices can be studied; estimators require scale_c > 0.
    """

    beta: float
    scale_c: float = 1.0
    per_interval: bool = True

    def __post_init__(self):
        if not math.isfinite(self.beta) or not math.isfinite(self.scale_c):
            raise InvalidArgumentError("beta and scale_c must be finite")

    def r_at(self, dt):
        """Evaluate r at a lag (scalar or array)."""
        return self.scale_c * dt ** self.beta


def threshold_admissible(spec: ThresholdSpec) -> tuple[bool, str]:
    """Whether r separates diffusion from jumps as the lag shrinks.

    Requires r(h) -> 0 and h*log(1/h)/r(h) -> 0, which for a power law
    holds exactly when 0 < beta < 1 and scale_c > 0.
    """
    if spec.scale_c <= 0.0:
        return False, f"scale_c must be positive, got {spec.scale_c}"
    if spec.beta <= 0.0:
        return False, f"r(h) = c*h^{spec.beta} does not vanish as h -> 0"
    if spec.beta >= 1.0:
        return False, (f"h*log(1/h)/r(h) ~ h^{1.0 - spec.beta}*log(1/h) "
                       "diverges as h -> 0")
    return True, "r(h) -> 0 and h*log(1/h)/r(h) -> 0"


@dataclass(frozen=True, eq=False)
class JumpMatchStats:
    """Interval-level comparison of flags against true jump events."""

    true_positives: int
    false_positives: int
    false_negatives: int
    size_errors: tuple[float, ...]          # gamma_hat - gamma, single-jump intervals
    multi_jump_intervals: tuple[int, ...]   # intervals holding >= 2 true jumps

    @property
    def recall(self) -> float | None:
        jumpy = self.true_positives + self.false_negatives
        return None if jumpy == 0 else self.true_positives / jumpy


@dataclass(frozen=True, eq=False)
class JumpDetectionResult:
    """Per-interval indicators (dX_i)^2 > r and the implied size estimates."""

    indicators: np.ndarray
    estimated_sizes: dict[int, float]
    match: JumpMatchStats | None = None

    @property
    def flagged_intervals(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.indicators)[0])


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """All estimators evaluated once on a path with a shared threshold."""

    iv_threshold: float
    iq_threshold: float | None
    realized_variance: float
    bipower_variation: float | None
    flagged_intervals: tuple[int, ...]
    jump_size_estimates: dict[int, float]
    threshold_used: ThresholdSpec
    normalized_bias: float | None
    admissible: bool
    admissibility_reason: str


def realized_variance(path: SamplePath) -> float:
    """Sum of squared increments over the grid."""
    return _PathSums(path).rv


def threshold_realized_variance(path: SamplePath, spec: ThresholdSpec) -> float:
    """Truncated realized variance: squared increments at most r are kept.

    Computed as realized_variance minus the flagged sum of (dX_i)^2, both
    correctly rounded, so TRV == RV - F holds exactly (module docstring).
    """
    _warn_if_inadmissible(spec)
    return _PathSums(path, spec).iv_hat


def threshold_quarticity(path: SamplePath, spec: ThresholdSpec) -> float:
    """Truncated quarticity sum((dX_i)^4 * I) / (3h); uniform grids only."""
    _warn_if_inadmissible(spec)
    _require_uniform(path, "threshold_quarticity")
    return _PathSums(path, spec).quartic / (3.0 * path.grid.h)


def bipower_variation(path: SamplePath) -> float:
    """(pi/2) * sum |dX_i| * |dX_{i-1}|, jump-robust baseline estimator."""
    return _PathSums(path).bpv


def detect_jumps(path: SamplePath, spec: ThresholdSpec,
                 true_jumps: Sequence[JumpEvent] | None = None) -> JumpDetectionResult:
    """Flag intervals with (dX_i)^2 > r and estimate jump sizes there.

    With ground-truth events, intervals are matched greedily: an interval
    holding at least one true jump counts as detected iff it is flagged.
    Size errors are recorded for matched single-jump intervals only;
    intervals holding several true jumps are listed separately.
    """
    _warn_if_inadmissible(spec)
    sums = _PathSums(path, spec)
    match = None
    if true_jumps is not None:
        match = _match_events(path.grid.times, sums.flagged, sums.dx,
                              JumpTable.from_events(true_jumps))
    return JumpDetectionResult(sums.flagged, sums.jump_sizes, match)


def normalized_bias(path: SamplePath, spec: ThresholdSpec, true_iv: float) -> float:
    """(IV_hat - true_iv) / sqrt((2/3) * sum (dX_i)^4 * I).

    The denominator uses the raw truncated fourth-power sum (no lag factor);
    under an admissible threshold the statistic is asymptotically N(0, 1).
    Uniform grids only.
    """
    _warn_if_inadmissible(spec)
    return _PathSums(path, spec).normalized_bias(true_iv)


def jump_size_error_stat(path: SamplePath, detection: JumpDetectionResult,
                         true_jumps: Sequence[JumpEvent]) -> float:
    """sqrt(n) * sum_i (gamma_hat_i - gamma_i * I[interval i has a jump]).

    gamma_i is the first true jump size in interval i. Uniform grids with
    finite-activity ground truth only.
    """
    if true_jumps is None:
        raise UnsupportedError("jump_size_error_stat requires ground-truth jumps")
    _require_uniform(path, "jump_size_error_stat")
    _, _, first_sizes = _jumpy_intervals(path.grid.times, JumpTable.from_events(true_jumps))
    total = math.fsum(detection.estimated_sizes.values()) - math.fsum(first_sizes.tolist())
    return math.sqrt(path.grid.n) * total


def estimation_report(path: SamplePath, spec: ThresholdSpec,
                      true_iv: float | None = None) -> EstimationReport:
    """Evaluate every estimator once, sharing a single threshold mask.

    bipower_variation is None on a path with a single increment.
    """
    _warn_if_inadmissible(spec)
    sums = _PathSums(path, spec)
    uniform = path.grid.is_uniform
    with_bpv = sums.dx.size >= 2
    sums.fill("rv", *(("quartic",) if uniform else ()), *(("bpv",) if with_bpv else ()))
    iq_hat = sums.quartic / (3.0 * path.grid.h) if uniform else None
    bias = None
    if true_iv is not None and uniform:
        bias = sums.normalized_bias(true_iv)
    sizes = sums.jump_sizes
    admissible, reason = threshold_admissible(spec)
    return EstimationReport(
        iv_threshold=sums.iv_hat,
        iq_threshold=iq_hat,
        realized_variance=sums.rv,
        bipower_variation=sums.bpv if with_bpv else None,
        flagged_intervals=tuple(sizes),
        jump_size_estimates=sizes,
        threshold_used=spec,
        normalized_bias=bias,
        admissible=admissible,
        admissibility_reason=reason,
    )


class _PathSums:
    """Per-path kernel: increments, their squares and the threshold mask,
    with each exact sum evaluated at most once and only when first read.

    Every estimator above is a view over it. The Monte Carlo harness and
    estimation_report name the sums they read in one fill() call, which
    computes them together in a single extraction.
    """

    def __init__(self, path: SamplePath, spec: ThresholdSpec | None = None):
        dx = path.increments
        if dx.size < 1:
            raise InvalidArgumentError("path needs at least 2 observations")
        self.path = path
        self.spec = spec
        self.dx = dx
        self.dx2 = dx * dx
        self._sums: dict[str, float] = {}

    @cached_property
    def keep(self) -> np.ndarray:
        """Boolean mask of increments with (dX_i)^2 <= r; ties are kept."""
        spec = self.spec
        if spec.scale_c <= 0.0:
            raise InvalidArgumentError(
                f"threshold scale must be positive to evaluate r, got {spec.scale_c}")
        return self.dx2 <= _threshold(self.path.grid, spec)

    @cached_property
    def flagged(self) -> np.ndarray:
        return ~self.keep

    @cached_property
    def jump_sizes(self) -> dict[int, float]:
        """dX_i at every flagged interval i, in increasing order of i."""
        idx = np.flatnonzero(self.flagged)
        return dict(zip(idx.tolist(), self.dx[idx].tolist()))

    def fill(self, *names: str) -> None:
        """Evaluate the named sums ("rv", "quartic", "bpv") that are not yet
        cached, in one extraction.

        With a threshold, the mask is built first, so a bad threshold scale
        raises before a path too short for bipower variation does.
        """
        if self.spec is not None:
            self.keep
        todo = [name for name in names if name not in self._sums]
        if todo:
            terms = [self._terms(name) for name in todo]
            self._sums.update(zip(todo, _exact_sums(terms)))

    def _terms(self, name: str) -> np.ndarray:
        if name == "rv":
            return self.dx2
        if name == "quartic":
            kept = self.dx2[self.keep]
            return kept * kept
        # "bpv"
        if self.dx.size < 2:
            raise InvalidArgumentError("bipower variation needs at least 2 increments")
        a = np.abs(self.dx)
        return a[1:] * a[:-1]

    def _sum(self, name: str) -> float:
        self.fill(name)
        return self._sums[name]

    @property
    def rv(self) -> float:
        return self._sum("rv")

    @cached_property
    def iv_hat(self) -> float:
        return self.rv - _exact_sums([self.dx2[self.flagged]])[0]

    @property
    def quartic(self) -> float:
        return self._sum("quartic")

    @property
    def bpv(self) -> float:
        return (math.pi / 2.0) * self._sum("bpv")

    def normalized_bias(self, true_iv: float) -> float:
        _require_uniform(self.path, "normalized_bias")
        quartic = self.quartic
        if quartic <= 0.0:
            raise DegenerateStatisticError(
                "all increments excluded or zero; normalized bias undefined")
        return (self.iv_hat - float(true_iv)) / math.sqrt((2.0 / 3.0) * quartic)


def _require_uniform(path: SamplePath, what: str) -> None:
    if not path.grid.is_uniform:
        raise UnsupportedError(f"{what} requires a uniform grid")


@functools.lru_cache(maxsize=4)
def _threshold(grid: TimeGrid, spec: ThresholdSpec) -> np.ndarray | float:
    """r at each lag of the grid (or at its h), computed once per grid and
    spec. TimeGrid hashes by identity, as in engines._subgrid; an array
    comes back read-only."""
    if not spec.per_interval:
        return spec.r_at(grid.h)
    r = spec.r_at(grid.widths)
    r.flags.writeable = False
    return r


def _exact_sums(arrays: Sequence[np.ndarray]) -> list[float]:
    """math.fsum of each 1-d float64 array, bit for bit, computed together.

    Rows are zero-padded into one block. Each pass splits every row r into
    q = (r + sigma) - sigma and r - q, both exact, with sigma a power of two
    at least 2**k times max|r| and 2**k > n + 1, so q's row sum is exact in
    any order. sigma then drops by 2**(53 - k). math.fsum of the row sums and
    of any residual left after the last pass is the correctly rounded total.
    """
    out: list[float | None] = [None] * len(arrays)
    rows, maxima = [], []
    for i, a in enumerate(arrays):
        if a.size >= _EXTRACT_MIN_LENGTH:
            m = float(np.abs(a).max())
            if _EXTRACT_RANGE[0] <= m <= _EXTRACT_RANGE[1]:  # False for nan
                rows.append(i)
                maxima.append(m)
                continue
        # array.array reads the raw float64 bytes without building a list.
        out[i] = math.fsum(array.array("d", a.tobytes()))
    if not rows:
        return out
    n = max(arrays[i].size for i in rows)
    r = np.zeros((len(rows), n))
    for j, i in enumerate(rows):
        r[j, :arrays[i].size] = arrays[i]
    k = (n + 1).bit_length()
    sigma = np.array([[math.ldexp(1.0, math.frexp(m)[1] + k)] for m in maxima])
    q = np.empty_like(r)
    partials = []
    for _ in range(_EXTRACT_PASSES):
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        partials.append(q.sum(axis=1))
        if not r.any():
            break
        sigma *= math.ldexp(1.0, k - 53)
    for i, parts, rest in zip(rows, np.array(partials).T.tolist(), r):
        out[i] = math.fsum(parts + rest[rest != 0.0].tolist())
    return out


def _warn_if_inadmissible(spec: ThresholdSpec) -> None:
    admissible, reason = threshold_admissible(spec)
    if not admissible and spec.scale_c > 0.0:
        warnings.warn(f"inadmissible threshold: {reason}", AdmissibilityWarning,
                      stacklevel=3)


def _containing_intervals(times: np.ndarray, event_times: np.ndarray) -> np.ndarray:
    """Index i of the observation interval (t_i, t_{i+1}] containing each time."""
    i = np.searchsorted(times, event_times, side="left") - 1
    return np.clip(i, 0, times.size - 2)


def _jumpy_intervals(times: np.ndarray, jumps: JumpTable):
    """Intervals holding at least one true jump, in increasing order, with
    their jump counts and the size of the earliest jump in each (ties in
    time keep table order)."""
    order = np.argsort(jumps.times, kind="stable")
    # Sorted times give sorted interval indices: each run is one interval.
    intervals = _containing_intervals(times, jumps.times[order])
    first = np.flatnonzero(np.diff(intervals, prepend=-1))
    counts = np.diff(first, append=intervals.size)
    return intervals[first], counts, jumps.sizes[order[first]]


def _match_events(times, flagged, dx, jumps: JumpTable) -> JumpMatchStats:
    jumpy, counts, first_sizes = _jumpy_intervals(times, jumps)
    hit = flagged[jumpy]
    tp = int(np.count_nonzero(hit))
    single = hit & (counts == 1)
    errors = dx[jumpy[single]] - first_sizes[single]
    fp = int(np.count_nonzero(flagged)) - tp
    return JumpMatchStats(tp, fp, jumpy.size - tp, tuple(errors.tolist()),
                          tuple(jumpy[counts > 1].tolist()))
