"""Threshold variance estimators, comparison estimators, and jump recovery.

All operations are pure functions of a SamplePath (observations + grid) and
a ThresholdSpec. One per-path kernel, _path_sums, serves every estimator
here and the Monte Carlo harness, which feeds it the engine's arrays
directly: it forms the increments and the threshold mask once, then only
the rows of terms its caller reads, one at a time. Every sum is the
correctly rounded exact sum of its own row, the same double math.fsum
returns, by error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci.
Comput. 31(1) and 31(2), 2008): vectorized passes split the row into
parts whose float sums are exact. After each pass the row stops once its
rounding is certified, which at desk sizes the first pass does for almost
every row. The certificate tries the a-priori residual bound n * sigma * u
first, and sums the residual's magnitudes only if that fails. A row whose
total lies too close to a rounding midpoint, or cancels to 0, runs the
remaining passes, and math.fsum adds its few parts and what is left. Short
rows, non-finite values and extreme magnitudes go to math.fsum directly.
The truncated sum is formed as the total minus the flagged sum F = sum over
flagged intervals of (dX_i)^2, with realized_variance and F each correctly
rounded, so

    threshold_realized_variance == realized_variance - F

holds exactly, by construction, wherever realized_variance and F are both
finite. Where realized_variance - F is not finite (a flagged square, or the
total, past the largest double), the truncated sum is instead the exact sum
of the kept squares, which can still be finite. The rearranged form
realized_variance == threshold_realized_variance + F is not a floating-point
identity: it misses by one unit in the last place when realized_variance - F
rounds at a tie.
"""

from __future__ import annotations

import array
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityWarning,
    DegenerateStatisticError,
    InvalidArgumentError,
    UnsupportedError,
)
from .grids import _check_number, containing_intervals
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
        _check_number("beta", self.beta, ("be finite", math.isfinite))
        _check_number("scale_c", self.scale_c, ("be finite", math.isfinite))

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
    return _path_sums(path.observations, None, quartic=False, bpv=False)[2]


def threshold_realized_variance(path: SamplePath, spec: ThresholdSpec) -> float:
    """Truncated realized variance: squared increments at most r are kept.

    Computed as realized_variance minus the flagged sum of (dX_i)^2, both
    correctly rounded, so TRV == RV - F holds exactly where both are finite;
    elsewhere it is the exact sum of the kept squares (module docstring).
    """
    _warn_if_inadmissible(spec)
    return _path_sums(*_observed(path, spec), quartic=False, bpv=False)[3]


def threshold_quarticity(path: SamplePath, spec: ThresholdSpec) -> float:
    """Truncated quarticity sum((dX_i)^4 * I) / (3h); uniform grids only."""
    _warn_if_inadmissible(spec)
    _require_uniform(path, "threshold_quarticity")
    return _path_sums(*_observed(path, spec), rv=False, bpv=False)[4] / (3.0 * path.grid.h)


def bipower_variation(path: SamplePath) -> float:
    """(pi/2) * sum |dX_i| * |dX_{i-1}|, jump-robust baseline estimator."""
    return _path_sums(path.observations, None, rv=False, quartic=False)[5]


def detect_jumps(path: SamplePath, spec: ThresholdSpec,
                 true_jumps: JumpTable | None = None) -> JumpDetectionResult:
    """Flag intervals with (dX_i)^2 > r and estimate jump sizes there.

    With ground-truth jumps, intervals are matched greedily: an interval
    holding at least one true jump counts as detected iff it is flagged.
    Size errors are recorded for matched single-jump intervals only;
    intervals holding several true jumps are listed separately.
    """
    _warn_if_inadmissible(spec)
    dx, flagged, *_ = _path_sums(*_observed(path, spec), rv=False, quartic=False, bpv=False)
    match = None
    if true_jumps is not None:
        jumpy, counts, first_sizes = _jumpy_intervals(path.grid.times, true_jumps)
        hit = flagged[jumpy]
        tp = int(np.count_nonzero(hit))
        single = hit & (counts == 1)
        errors = dx[jumpy[single]] - first_sizes[single]
        match = JumpMatchStats(tp, int(np.count_nonzero(flagged)) - tp, jumpy.size - tp,
                               tuple(errors.tolist()), tuple(jumpy[counts > 1].tolist()))
    return JumpDetectionResult(flagged, _jump_sizes(dx, flagged), match)


def normalized_bias(path: SamplePath, spec: ThresholdSpec, true_iv: float) -> float:
    """(IV_hat - true_iv) / sqrt((2/3) * sum (dX_i)^4 * I).

    The denominator uses the raw truncated fourth-power sum (no lag factor);
    under an admissible threshold the statistic is asymptotically N(0, 1).
    Uniform grids only.
    """
    _warn_if_inadmissible(spec)
    _require_uniform(path, "normalized_bias")
    _, _, _, iv_hat, quartic, _ = _path_sums(*_observed(path, spec), bpv=False)
    return _bias(iv_hat, quartic, true_iv)


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
    return _size_error_stat(path.grid.n, detection.estimated_sizes.values(), first_sizes)


def estimation_report(path: SamplePath, spec: ThresholdSpec,
                      true_iv: float | None = None) -> EstimationReport:
    """Evaluate every estimator once, sharing a single threshold mask.

    bipower_variation is None on a path with a single increment.
    """
    return _report(path, spec, true_iv)[1]


def _report(path: SamplePath, spec: ThresholdSpec,
            true_iv: float | None = None) -> tuple[JumpDetectionResult, EstimationReport]:
    """The detection and the estimation report of the path, from one kernel."""
    _warn_if_inadmissible(spec, stacklevel=4)  # names estimation_report's caller
    uniform = path.grid.is_uniform
    dx, flagged, rv, iv_hat, quartic, bpv = _path_sums(*_observed(path, spec),
                                                       quartic=uniform, bpv=path.grid.n >= 2)
    iq_hat = quartic / (3.0 * path.grid.h) if uniform else None
    bias = None
    if true_iv is not None and uniform:
        bias = _bias(iv_hat, quartic, true_iv)
    sizes = _jump_sizes(dx, flagged)
    admissible, reason = threshold_admissible(spec)
    return JumpDetectionResult(flagged, sizes), EstimationReport(
        iv_threshold=iv_hat,
        iq_threshold=iq_hat,
        realized_variance=rv,
        bipower_variation=bpv,
        flagged_intervals=tuple(sizes),
        jump_size_estimates=sizes,
        threshold_used=spec,
        normalized_bias=bias,
        admissible=admissible,
        admissibility_reason=reason,
    )


def _observed(path: SamplePath, spec: ThresholdSpec) -> tuple[np.ndarray, np.ndarray]:
    """The path's observations and r at its lags."""
    return path.observations, spec.r_at(path.grid.widths)


def _path_sums(x: np.ndarray, r: np.ndarray | None, *, rv: bool = True,
               quartic: bool = True, bpv: bool = True) -> tuple:
    """The per-path kernel over observations x and r at their lags: the
    increments dx, the mask (dX_i)^2 > r, and the exact sums rv, iv_hat,
    quartic and bpv (with its pi/2 factor). Only the rows asked for are
    formed, each freed before the next; anything not formed is None, as are
    flagged and iv_hat without r. A difference, square or product past the
    largest double is +-inf, and inf * 0 is nan; either makes its sum
    non-finite."""
    flagged = rv_sum = iv_hat = quartic_sum = bpv_sum = None
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x[1:] - x[:-1]
        dx2 = dx * dx
        if r is not None:
            flagged = dx2 > r
        if rv:
            rv_sum = _total(dx2)
            if r is not None:
                iv_hat = rv_sum - _total(dx2[flagged])
                if not math.isfinite(iv_hat):  # the kept squares' sum may still be finite
                    iv_hat = _total(dx2[~flagged])
        if quartic:
            quartic_sum = _total(np.square(dx2[~flagged]))
        if bpv:
            if dx.size < 2:
                raise InvalidArgumentError("bipower variation needs at least 2 increments")
            a = np.abs(dx, out=dx2)
            bpv_sum = (math.pi / 2.0) * _total(a[1:] * a[:-1])
    return dx, flagged, rv_sum, iv_hat, quartic_sum, bpv_sum


def _total(terms: np.ndarray) -> float:
    """_exact_sum of non-negative terms. Where math.fsum overflows, their
    correctly rounded sum is +inf, as it is when a term is inf."""
    try:
        return _exact_sum(terms, nonneg=True)
    except OverflowError:
        return math.inf


def _bias(iv_hat: float, quartic: float, true_iv: float) -> float:
    if quartic <= 0.0:
        raise DegenerateStatisticError(
            "all increments excluded or zero; normalized bias undefined")
    return (iv_hat - float(true_iv)) / math.sqrt((2.0 / 3.0) * quartic)


def _jump_sizes(dx: np.ndarray, flagged: np.ndarray) -> dict[int, float]:
    """dX_i at every flagged interval i, in increasing order of i."""
    idx = np.flatnonzero(flagged)
    return dict(zip(idx.tolist(), dx[idx].tolist()))


def _size_error_stat(n: int, estimated_sizes, first_sizes: np.ndarray) -> float:
    """jump_size_error_stat from the flagged and the first true sizes."""
    return math.sqrt(n) * (math.fsum(estimated_sizes) - math.fsum(first_sizes.tolist()))


def _require_uniform(path: SamplePath, what: str) -> None:
    if not path.grid.is_uniform:
        raise UnsupportedError(f"{what} requires a uniform grid")


def _exact_sum(a: np.ndarray, exits: list[int] | None = None, nonneg: bool = False) -> float:
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
    and its neighbours, c is the correctly rounded total. Each residual is
    at most sigma * u (u = 2**-53), so the exact n * sigma * u bounds
    sum|residual| and its float sum; the test takes it first and measures
    sum|residual| only if that fails, so a row exits where the measured sum
    alone would take it. A row that is not certified after the last pass (a
    tie, cancellation, c = 0) goes to math.fsum of its parts and residual.

    exits, if given, gets the row's exit appended: 0 for math.fsum of a as
    it is, p for certified after pass p, and _EXTRACT_PASSES + 1 for
    math.fsum of the parts. nonneg: a has no negative value, so max|a| is max(a).
    """
    n = a.size
    m = float(a.max() if nonneg else np.abs(a).max()) if n >= _EXTRACT_MIN_LENGTH else math.nan
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
        scratch = np.empty((2, n))
        q, r = scratch
        src, total = a, None
        for p in range(1, _EXTRACT_PASSES + 1):
            np.add(src, sigma, out=q)
            q -= sigma
            src = np.subtract(src, q, out=r)
            x, tau = scratch.sum(axis=1).tolist()
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
            gap = 0.5 * abs(c - math.nextafter(c, 0.0))
            mag = n * sigma * _UNIT_ROUNDOFF
            if abs(e) + gamma * (mag + lost_mag) >= gap:
                mag = float(np.abs(r, out=q).sum())
            if abs(e) + gamma * (mag + lost_mag) < gap:
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
    return _interval_runs(containing_intervals(times, jumps.times[order]), jumps.sizes[order])


def _interval_runs(intervals: np.ndarray, sizes: np.ndarray):
    """_jumpy_intervals for events already in time order, so each run of
    equal interval indices is one interval."""
    # return_index sorts stably, so first is each run's first event.
    keys, first, counts = np.unique(intervals, return_index=True, return_counts=True)
    return keys, counts, sizes[first]
