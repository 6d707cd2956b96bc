"""Threshold variance estimators, comparison estimators, and jump recovery.

All operations are pure functions of a SamplePath (observations + grid) and
a ThresholdSpec. Sums are exact (math.fsum), and the truncated sum is formed
as total minus excluded so that

    realized_variance == threshold_realized_variance + sum over flagged
    intervals of (dX_i)^2

holds as a floating-point identity, not just to tolerance.
"""

from __future__ import annotations

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
from .models import JumpEvent, JumpTable, SamplePath

_POWER_LAW = "power-law"


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
    family: str = _POWER_LAW

    def __post_init__(self):
        if self.family != _POWER_LAW:
            raise InvalidArgumentError(f"unknown threshold family {self.family!r}")
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
    bipower_variation: float
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

    Computed as the full sum minus the flagged sum so the complementarity
    identity with realized_variance is exact.
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
    """Evaluate every estimator once, sharing a single threshold mask."""
    _warn_if_inadmissible(spec)
    sums = _PathSums(path, spec)
    uniform = path.grid.is_uniform
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
        bipower_variation=sums.bpv,
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

    Every estimator above is a view over it, and the Monte Carlo harness
    reads several sums from one instance per path.
    """

    def __init__(self, path: SamplePath, spec: ThresholdSpec | None = None):
        dx = path.increments
        if dx.size < 1:
            raise InvalidArgumentError("path needs at least 2 observations")
        self.path = path
        self.spec = spec
        self.dx = dx
        self.dx2 = dx * dx

    @cached_property
    def keep(self) -> np.ndarray:
        """Boolean mask of increments with (dX_i)^2 <= r; ties are kept."""
        spec, grid = self.spec, self.path.grid
        if spec.scale_c <= 0.0:
            raise InvalidArgumentError(
                f"threshold scale must be positive to evaluate r, got {spec.scale_c}")
        r = spec.r_at(grid.widths) if spec.per_interval else spec.r_at(grid.h)
        return self.dx2 <= r

    @cached_property
    def flagged(self) -> np.ndarray:
        return ~self.keep

    @cached_property
    def jump_sizes(self) -> dict[int, float]:
        """dX_i at every flagged interval i, in increasing order of i."""
        idx = np.flatnonzero(self.flagged)
        return dict(zip(idx.tolist(), self.dx[idx].tolist()))

    @cached_property
    def rv(self) -> float:
        return _fsum(self.dx2)

    @cached_property
    def iv_hat(self) -> float:
        return self.rv - _fsum(self.dx2[self.flagged])

    @cached_property
    def quartic(self) -> float:
        kept = self.dx2[self.keep]
        return _fsum(kept * kept)

    @cached_property
    def bpv(self) -> float:
        if self.dx.size < 2:
            raise InvalidArgumentError("bipower variation needs at least 2 increments")
        a = np.abs(self.dx)
        return (math.pi / 2.0) * _fsum(a[1:] * a[:-1])

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


def _fsum(values: np.ndarray) -> float:
    # Exact accumulation; order-independent, so permutation invariance of the
    # quadratic sums holds bitwise.
    return math.fsum(values.tolist())


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
    counts = np.bincount(_containing_intervals(times, jumps.times[order]),
                         minlength=times.size - 1)
    jumpy = np.flatnonzero(counts)
    first = (np.cumsum(counts) - counts)[jumpy]
    return jumpy, counts[jumpy], jumps.sizes[order][first]


def _match_events(times, flagged, dx, jumps: JumpTable) -> JumpMatchStats:
    jumpy, counts, first_sizes = _jumpy_intervals(times, jumps)
    hit = flagged[jumpy]
    tp = int(np.count_nonzero(hit))
    single = hit & (counts == 1)
    errors = dx[jumpy[single]] - first_sizes[single]
    fp = int(np.count_nonzero(flagged)) - tp
    return JumpMatchStats(tp, fp, jumpy.size - tp, tuple(errors.tolist()),
                          tuple(jumpy[counts > 1].tolist()))
