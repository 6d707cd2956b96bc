"""Distribution diagnostics: normal CDF, KS distances, moments, histograms.

The normal CDF uses a fixed rational approximation (Abramowitz & Stegun
26.2.17, absolute error < 7.5e-8) rather than a platform math library so
that reported KS values are bit-stable across systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .grids import FINITE, POISSON_MEAN, POSITIVE, SIZE, _check_fields, _check_number

_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Poisson tail mass below which the mixture series is truncated.
_POISSON_TAIL = 1e-12
# The largest lam_t whose series starts at k = 0: exp(-700) is a normal double.
_SERIES_FROM_ZERO = 700.0


def normal_cdf(x):
    """Standard normal CDF, vectorized; |error| < 7.5e-8."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    t = 1.0 / (1.0 + _AS_P * ax)
    b1, b2, b3, b4, b5 = _AS_B
    poly = t * (b1 + t * (b2 + t * (b3 + t * (b4 + t * b5))))
    with np.errstate(over="ignore"):  # ax * ax past the largest double is inf; exp(-inf) is 0
        upper = 1.0 - _INV_SQRT_2PI * np.exp(-0.5 * ax * ax) * poly
    out = np.where(x >= 0.0, upper, 1.0 - upper)
    return float(out) if out.ndim == 0 else out


def ks_statistic(samples) -> float:
    """Two-sided KS distance between the sample ECDF and N(0, 1)."""
    x = _checked_samples(samples)
    x.sort()
    m = x.size
    f = normal_cdf(x)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - f)
    d_minus = np.max(f - (i - 1) / m)
    return float(max(d_plus, d_minus, 0.0))


def ks_against_cdf(samples, cdf, atom_points=()) -> float:
    """KS distance against an arbitrary CDF, allowing atoms.

    cdf must be vectorized and right-continuous; atom_points lists locations
    where it jumps (the sup is evaluated on both sides there).
    """
    x = _checked_samples(samples)
    x.sort()
    m = x.size
    candidates = np.unique(np.concatenate([x, np.asarray(atom_points, dtype=float)]))
    f = np.asarray(cdf(candidates), dtype=float)
    f_left = np.asarray(cdf(candidates - _left_eps(candidates)), dtype=float)
    emp_right = np.searchsorted(x, candidates, side="right") / m
    emp_left = np.searchsorted(x, candidates, side="left") / m
    d = np.maximum(np.abs(emp_right - f), np.abs(emp_left - f_left))
    return float(np.max(d))


@dataclass(frozen=True, slots=True)
class PoissonMixtureCdf:
    """CDF of sum_k pois_k(lam_t) * N(0, var_one * k), atom exp(-lam_t) at 0.

    var_one is the Gaussian variance contributed by a single event. The
    Poisson series is truncated once its remaining tail mass drops below
    1e-12.
    """

    lam_t: float = field(metadata={"rule": POISSON_MEAN})
    var_one: float = field(metadata={"rule": POSITIVE})

    __post_init__ = _check_fields

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for k, w in self._weights():
            out += w * ((x >= 0.0) if k == 0 else normal_cdf(x / math.sqrt(self.var_one * k)))
        # Past lam_t = 700, out adds up hundreds of rounded terms and can pass 1 by an ulp.
        np.minimum(out, 1.0, out=out)
        return float(out) if out.ndim == 0 else out

    def _weights(self):
        """(k, Poisson weight of k) until the tail left is below 1e-12. Up to
        _SERIES_FROM_ZERO they run up from exp(-lam_t); past it, where that
        underflows, they run down and then up from the mode, each side until
        the geometric bound on what lies beyond is below half the tail, and
        are scaled to sum to 1."""
        lam = self.lam_t
        if lam <= _SERIES_FROM_ZERO:
            w = math.exp(-lam)
            yield 0, w
            remaining, k = 1.0 - w, 0
            while remaining > _POISSON_TAIL:
                k += 1
                w *= lam / k
                yield k, w
                remaining -= w
            return

        def beyond_is_small(w, ratio):  # ratio bounds each next weight over the last
            return w * ratio < _POISSON_TAIL * (1.0 - ratio) / 2.0

        mode = math.floor(lam)
        top = math.exp(mode * math.log(lam) - lam - math.lgamma(mode + 1))
        terms = [(mode, top)]
        k, w = mode, top
        while k > 0 and not beyond_is_small(w, k / lam):
            w *= k / lam
            k -= 1
            terms.append((k, w))
        k, w = mode, top
        while not beyond_is_small(w, lam / (k + 1)):
            k += 1
            w *= lam / k
            terms.append((k, w))
        total = math.fsum(w for _, w in terms)
        for k, w in terms:
            yield k, w / total

    @property
    def atom_mass(self) -> float:
        return math.exp(-self.lam_t)


@dataclass(frozen=True, slots=True)
class Moments:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def sample_moments(samples) -> Moments:
    """Unbiased mean/variance plus moment-ratio shape statistics.

    Needs at least 2 samples; skewness needs 3 and kurtosis 4, below which
    (or for constant samples) the shape statistics are NaN.
    """
    x = _checked_samples(samples)
    m = x.size
    if m < 2:
        raise InvalidArgumentError("sample_moments needs at least 2 samples")
    mean = _moment_sum(x) / m
    with np.errstate(over="ignore"):  # an inf term fails _moment_sum
        d = x - mean
        d2 = d * d
        s2 = _moment_sum(d2)
        variance = s2 / (m - 1)
        m2 = s2 / m
        skewness = excess_kurtosis = math.nan
        if m2 > 0.0:
            if m >= 3:
                m3 = _moment_sum(d2 * d) / m
                skewness = m3 / m2 ** 1.5
            if m >= 4:
                m4 = _moment_sum(d2 * d * d) / m
                excess_kurtosis = m4 / (m2 * m2) - 3.0
    return Moments(mean, variance, skewness, excess_kurtosis)


def _moment_sum(terms: np.ndarray) -> float:
    """math.fsum of the terms, which must be finite, as must their sum."""
    try:
        total = math.fsum(terms.tolist())
    except (OverflowError, ValueError):  # an intermediate overflow; -inf + inf
        total = math.nan
    if not math.isfinite(total):
        raise InvalidArgumentError("samples are too large: a sum of their powers overflows")
    return total


@dataclass(frozen=True, eq=False)
class Histogram:
    """Left-closed uniform bins; the right range edge spills to overflow."""

    lo: float
    hi: float
    counts: np.ndarray
    underflow: int
    overflow: int

    @property
    def bin_count(self) -> int:
        return self.counts.size

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.counts.size + 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow


DEFAULT_BIN_COUNT = 60
DEFAULT_RANGE = (-4.0, 4.0)


def build_histogram(samples, bin_count: int = DEFAULT_BIN_COUNT,
                    value_range: tuple[float, float] = DEFAULT_RANGE) -> Histogram:
    """Count samples into uniform left-closed bins [lo + j*w, lo + (j+1)*w)."""
    bin_count = _check_number("bin_count", bin_count, SIZE)
    lo, hi = (_check_number("value_range", v, FINITE) for v in value_range)
    # hi - lo must not overflow: an infinite width breaks the bin arithmetic.
    if not (lo < hi) or not math.isfinite(hi - lo):
        raise InvalidArgumentError(
            f"value_range must increase by a finite width, got {value_range!r}")
    x = np.asarray(samples, dtype=float)
    if x.size and not np.all(np.isfinite(x)):
        raise InvalidArgumentError("samples must be finite")
    counts = np.zeros(bin_count, dtype=np.int64)
    if not x.size:
        return Histogram(lo, hi, counts, 0, 0)
    below, above = x < lo, x >= hi
    # Bin indices only for samples in [lo, hi): a far-off sample would give a
    # quotient that overflows the int64 cast.
    inside = x[~(below | above)]
    idx = np.floor((inside - lo) / (hi - lo) * bin_count).astype(np.int64)
    # Division can round a value just under hi up to the edge; pin it back so
    # the bins are exactly [lo + j*w, lo + (j+1)*w) with only x >= hi spilling.
    idx[idx >= bin_count] = bin_count - 1
    np.add.at(counts, idx, 1)
    return Histogram(lo, hi, counts, int(np.count_nonzero(below)),
                     int(np.count_nonzero(above)))


def _checked_samples(samples) -> np.ndarray:
    x = np.array(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidArgumentError("need a non-empty 1-d sample array")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("samples must be finite")
    return x


def _left_eps(values: np.ndarray) -> np.ndarray:
    # Step just below each candidate to read the CDF's left limit.
    return np.maximum(np.abs(values), 1.0) * 1e-12
