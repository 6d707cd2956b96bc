"""Threshold variance estimators, comparison estimators, and jump recovery.

All operations are pure functions of a SamplePath (observations + grid) and
a ThresholdSpec. Every sum is the correctly rounded exact sum, the same
double math.fsum returns. Each sum a path needs is a row of terms,
computed on its own when first read by error-free extraction (Rump, Ogita
& Oishi, SIAM J. Sci. Comput. 31(1) and 31(2), 2008): vectorized passes
split the row into parts whose float sums are exact. After each pass the
row stops once its rounding is certified, which at desk sizes the first
pass does for almost every row. A row whose total lies too close to a
rounding midpoint, or cancels to 0, runs the remaining passes, and
math.fsum adds its few parts and what is left. Short rows, non-finite
values and extreme magnitudes go to math.fsum directly.
The truncated sum is formed as the total minus the flagged sum F = sum over
flagged intervals of (dX_i)^2, with realized_variance and F each correctly
rounded, so

    threshold_realized_variance == realized_variance - F

holds exactly, by construction. The rearranged form realized_variance ==
threshold_realized_variance + F is not a floating-point identity: it misses
by one unit in the last place when realized_variance - F rounds at a tie.
"""

from __future__ import annotations

import array
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AdmissibilityWarning,
    DegenerateStatisticError,
    InvalidArgumentError,
    UnsupportedError,
)
from .grids import containing_intervals
from .models import JumpTable, SamplePath

# _exact_sum hands a row to math.fsum as it is when it is shorter than
# _EXTRACT_MIN_LENGTH, or when its largest magnitude lies outside
# _EXTRACT_RANGE (zero, nan and inf included); the range keeps sigma finite.
_EXTRACT_MIN_LENGTH = 64
_EXTRACT_RANGE = (math.ldexp(1.0, -900), math.ldexp(1.0, 900))
_EXTRACT_PASSES = 4
_UNIT_ROUNDOFF = math.ldexp(1.0, -53)


@dataclass(frozen=True, slots=True)
class ThresholdSpec:
    """Power-law threshold r(dt) = scale_c * dt**beta, evaluated at each
    observation lag dt_i.

    Construction is permissive (any finite beta and scale_c) so that
    inadmissible choices can be studied; r is evaluated only for
    scale_c > 0, so every estimator requires it.
    """

    beta: float
    scale_c: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta) or not math.isfinite(self.scale_c):
            raise InvalidArgumentError("beta and scale_c must be finite")

    def r_at(self, dt):
        """Evaluate r at a lag (scalar or array)."""
        if self.scale_c <= 0.0:
            raise InvalidArgumentError(
                f"threshold scale must be positive to evaluate r, got {self.scale_c}")
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
                 true_jumps: JumpTable | None = None) -> JumpDetectionResult:
    """Flag intervals with (dX_i)^2 > r and estimate jump sizes there.

    With ground-truth jumps, intervals are matched greedily: an interval
    holding at least one true jump counts as detected iff it is flagged.
    Size errors are recorded for matched single-jump intervals only;
    intervals holding several true jumps are listed separately.
    """
    _warn_if_inadmissible(spec)
    sums = _PathSums(path, spec)
    match = None
    if true_jumps is not None:
        match = _match_events(path.grid.times, sums.flagged, sums.dx, true_jumps)
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
                         true_jumps: JumpTable) -> float:
    """sqrt(n) * sum_i (gamma_hat_i - gamma_i * I[interval i has a jump]).

    gamma_i is the first true jump size in interval i. Uniform grids with
    finite-activity ground truth only.
    """
    if true_jumps is None:
        raise UnsupportedError("jump_size_error_stat requires ground-truth jumps")
    _require_uniform(path, "jump_size_error_stat")
    _, _, first_sizes = _jumpy_intervals(path.grid.times, true_jumps)
    total = math.fsum(detection.estimated_sizes.values()) - math.fsum(first_sizes.tolist())
    return math.sqrt(path.grid.n) * total


def estimation_report(path: SamplePath, spec: ThresholdSpec,
                      true_iv: float | None = None) -> EstimationReport:
    """Evaluate every estimator once, sharing a single threshold mask.

    bipower_variation is None on a path with a single increment.
    """
    _warn_if_inadmissible(spec)
    return _report(_PathSums(path, spec), true_iv)


def detect_and_report(path: SamplePath,
                      spec: ThresholdSpec) -> tuple[JumpDetectionResult, EstimationReport]:
    """detect_jumps(path, spec) and estimation_report(path, spec) from one kernel."""
    _warn_if_inadmissible(spec)
    sums = _PathSums(path, spec)
    return JumpDetectionResult(sums.flagged, sums.jump_sizes), _report(sums)


def _report(sums: _PathSums, true_iv: float | None = None) -> EstimationReport:
    """estimation_report on the kernel of its path and threshold."""
    path, spec = sums.path, sums.spec
    uniform = path.grid.is_uniform
    with_bpv = sums.dx.size >= 2
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

    Every estimator above is a view over it, and each sum is extracted on
    its own, from its own row of terms.

    r, if given, is spec.r_at(path.grid.widths), computed once for a run.
    """

    def __init__(self, path: SamplePath, spec: ThresholdSpec | None = None,
                 r: np.ndarray | None = None):
        dx = path.increments
        self.path = path
        self.spec = spec
        self.r = r
        self.dx = dx
        # A square or product past the largest double is inf, and inf * 0 in
        # bpv is nan; both make the sum they enter non-finite, with no warning.
        with np.errstate(over="ignore"):
            self.dx2 = dx * dx

    @cached_property
    def keep(self) -> np.ndarray:
        """Boolean mask of increments with (dX_i)^2 <= r; ties are kept."""
        spec = self.spec
        return self.dx2 <= (spec.r_at(self.path.grid.widths) if self.r is None else self.r)

    @cached_property
    def flagged(self) -> np.ndarray:
        return ~self.keep

    @cached_property
    def jump_sizes(self) -> dict[int, float]:
        """dX_i at every flagged interval i, in increasing order of i."""
        idx = np.flatnonzero(self.flagged)
        return dict(zip(idx.tolist(), self.dx[idx].tolist()))

    @staticmethod
    def _total(terms: np.ndarray) -> float:
        """_exact_sum of non-negative terms. Where math.fsum overflows, their
        correctly rounded sum is +inf, as it is when a term is inf."""
        try:
            return _exact_sum(terms)
        except OverflowError:
            return math.inf

    @cached_property
    def rv(self) -> float:
        return self._total(self.dx2)

    @cached_property
    def iv_hat(self) -> float:
        return self.rv - self._total(self.dx2[self.flagged])

    @cached_property
    def quartic(self) -> float:
        kept = self.dx2[self.keep]
        with np.errstate(over="ignore"):
            terms = kept * kept
        return self._total(terms)

    @cached_property
    def bpv(self) -> float:
        if self.dx.size < 2:
            raise InvalidArgumentError("bipower variation needs at least 2 increments")
        a = np.abs(self.dx)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = a[1:] * a[:-1]
        return (math.pi / 2.0) * self._total(terms)

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


def _exact_sum(a: np.ndarray, exits: list[int] | None = None) -> float:
    """math.fsum of a 1-d float64 array, bit for bit.

    Each pass splits the row r, at first a itself read in place, into
    q = (r + sigma) - sigma and r - q, both exact, with sigma a power of two
    at least 2**k times max|a| and 2**k > n + 1, so q's sum is exact in any
    order. sigma then drops by 2**(53 - k).

    After each pass the row stops if its rounding is certified (Rump, Ogita
    & Oishi, SIAM J. Sci. Comput. 31(2), 2008). S is the float sum of the
    sums of q extracted so far; TwoSum makes S's rounding errors exact, and
    they join the residual. tau, the float sum of the residual in any order,
    is within B = gamma * sum|residual| of its exact sum. If the exact error
    e of c = fl(S + tau) satisfies |e| + B < half the smaller gap between c
    and its neighbours, c is the correctly rounded total. A row that is not
    certified after the last pass (a tie, cancellation, c = 0) goes to
    math.fsum of its extracted sums and residual.

    exits, if given, gets the row's exit appended: 0 for math.fsum of a as
    it is, p for certified after pass p, and _EXTRACT_PASSES + 1 for
    math.fsum of the parts.
    """
    n = a.size
    m = float(np.abs(a).max()) if n >= _EXTRACT_MIN_LENGTH else math.nan
    if not _EXTRACT_RANGE[0] <= m <= _EXTRACT_RANGE[1]:  # True for nan, so for short rows
        # array.array reads the raw float64 bytes without building a list.
        total, exit_at = math.fsum(array.array("d", a.tobytes())), 0
    else:
        k = (n + 1).bit_length()
        sigma = math.ldexp(1.0, math.frexp(m)[1] + k)
        # tau adds at most N terms, so |tau - exact| <= gamma_{N-1} * sum|terms|
        # (Higham, Accuracy and Stability, 2002, eq. 4.4). Nu / (1 - 2Nu)
        # also covers the rounding of sum|terms|; the last factor covers the
        # rounding of this constant and of the product with it.
        big_n = n + _EXTRACT_PASSES
        gamma = big_n * _UNIT_ROUNDOFF / (1.0 - 2.0 * big_n * _UNIT_ROUNDOFF) * (1.0 + 2.0 ** -48)
        # The exact sums of q, S, and the sum and magnitude of S's rounding errors.
        parts, s, lost, lost_mag = [], 0.0, 0.0, 0.0
        r, q = a, np.empty(n)
        total = None
        for p in range(1, _EXTRACT_PASSES + 1):
            np.add(r, sigma, out=q)
            q -= sigma
            if r is a:
                r = a - q
            else:
                r -= q
            x = float(q.sum())
            tau = float(r.sum())
            mag = float(np.abs(r, out=q).sum())
            parts.append(x)
            t = s + x
            z = t - s
            err = (s - (t - z)) + (x - z)
            lost += err
            lost_mag += abs(err)
            tau += lost
            c = t + tau
            z = c - t
            e = (t - (c - z)) + (tau - z)
            if abs(e) + gamma * (mag + lost_mag) < 0.5 * abs(c - math.nextafter(c, 0.0)):
                total, exit_at = c, p
                break
            if not mag:  # the residual is zero
                break
            s = t
            sigma *= math.ldexp(1.0, k - 53)
        if total is None:
            total = math.fsum(parts + r[r != 0.0].tolist())
            exit_at = _EXTRACT_PASSES + 1
    if exits is not None:
        exits.append(exit_at)
    return total


def _warn_if_inadmissible(spec: ThresholdSpec, stacklevel: int = 3) -> None:
    admissible, reason = threshold_admissible(spec)
    if not admissible and spec.scale_c > 0.0:
        warnings.warn(f"inadmissible threshold: {reason}", AdmissibilityWarning,
                      stacklevel=stacklevel)


def _jumpy_intervals(times: np.ndarray, jumps: JumpTable):
    """Intervals holding at least one true jump, in increasing order, with
    their jump counts and the size of the earliest jump in each (ties in
    time keep table order)."""
    order = np.argsort(jumps.times, kind="stable")
    # Sorted times give sorted interval indices: each run is one interval.
    intervals = containing_intervals(times, jumps.times[order])
    starts = np.ones(intervals.size, dtype=bool)
    np.not_equal(intervals[1:], intervals[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    counts = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = intervals.size - first[-1:]
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
