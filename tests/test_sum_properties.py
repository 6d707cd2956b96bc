"""Property tests for the exact sums and the algebra the estimators rest on.

The first test compares the batched extraction with math.fsum bit for bit;
the others pin identities of the estimators, the KS range and the Model2
volatility scan, and hold independently of how the sums are computed.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import (
    AdmissibilityWarning,
    Model2,
    PoissonMixtureCdf,
    SamplePath,
    ThresholdSpec,
    TimeGrid,
    build_irregular_grid,
    detect_jumps,
    ks_against_cdf,
    ks_statistic,
    realized_variance,
    simulate,
    threshold_quarticity,
    threshold_realized_variance,
)
from jumpsift.engines import rng_from_seed
from jumpsift.estimators import _exact_sums

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
           1e300, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


@st.composite
def float_rows(draw):
    """Rows of 0 to 300 values of one of three kinds: a random body at a
    drawn scale and sign mix, with zero runs and special values planted at
    drawn positions; a dense run of same-sign values near one power of two,
    whose sum needs every bit of headroom; or a rounding tie a + ulp(a)/2
    that only a value far below it breaks."""
    kind = draw(st.sampled_from(["random", "dense", "tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "dense":
        size = draw(st.sampled_from([64, 65, 127, 128, 150, 255, 256, 300]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        return sign * rng.uniform(0.875, 1.0, size) * 2.0 ** draw(st.integers(-1000, 1000))
    if kind == "tie":
        row = np.zeros(draw(st.sampled_from([64, 150, 300])))
        a = rng.uniform(1.0, 2.0) * 2.0 ** draw(st.integers(-800, 800))
        tiny = np.spacing(a) * 2.0 ** -draw(st.integers(1, 300))
        row[rng.permutation(row.size)[:3]] = [a, np.spacing(a) / 2.0,
                                              draw(st.sampled_from([tiny, -tiny]))]
        return row
    size = draw(st.sampled_from([0, 1, 2, 63, 64, 65, 150, 300]))
    lo, hi = sorted(draw(st.lists(st.integers(-300, 300), min_size=2, max_size=2)))
    row = rng.standard_normal(size) * 10.0 ** rng.uniform(lo, hi, size)
    if draw(st.booleans()):
        row = np.abs(row)
    if size and draw(st.booleans()):
        row[: rng.integers(size)] = 0.0
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        row[draw(st.integers(0, size - 1))] = draw(st.sampled_from(SPECIAL))
    return row


def fsum_or_error(row):
    try:
        return math.fsum(row.tolist())
    except (ValueError, OverflowError) as exc:
        return type(exc)


def exact_sums_or_error(rows):
    try:
        return _exact_sums(rows)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(float_rows(), min_size=1, max_size=4))
def test_exact_sums_equal_fsum_bitwise(rows):
    want = [fsum_or_error(row) for row in rows]
    errors = [w for w in want if isinstance(w, type)]
    got = exact_sums_or_error(rows)
    if errors:
        # math.fsum stops at the first row that raises; so does the batch.
        assert got is errors[0]
        return
    assert [np.float64(g).tobytes() for g in got] == [np.float64(w).tobytes() for w in want]


@st.composite
def model1_like_paths(draw):
    """Brownian increments at a drawn volatility plus a few large moves, on
    a uniform or jittered grid of 2 to 400 intervals."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    grid = build_irregular_grid(n, 1.0, draw(st.sampled_from([0.0, 0.5])), 7)
    dx = draw(st.floats(1e-3, 2.0)) * np.sqrt(grid.widths) * rng.standard_normal(n)
    dx[rng.integers(n, size=draw(st.integers(0, 4)))] += rng.normal(0.0, 0.5)
    return SamplePath(grid, np.concatenate(([0.0], np.cumsum(dx))))


threshold_specs = st.builds(ThresholdSpec, st.floats(0.05, 0.95), st.floats(0.01, 10.0),
                            st.booleans())


@PROPERTY
@given(model1_like_paths(), threshold_specs)
def test_rv_is_trv_plus_flagged_mass_exactly(path, spec):
    det = detect_jumps(path, spec)
    flagged = np.array(list(det.estimated_sizes.values()))
    assert (threshold_realized_variance(path, spec) + math.fsum((flagged * flagged).tolist())
            == realized_variance(path))


@PROPERTY
@given(st.integers(64, 400), st.integers(0, 40), st.integers(0, 2**32),
       st.floats(0.05, 0.95))
def test_quadratic_sums_are_permutation_invariant(n, exponent, seed, beta):
    # Dyadic increments keep the cumulative sums exact, so every permuted
    # path carries exactly the same multiset of increments.
    rng = np.random.default_rng(seed)
    dx = rng.integers(-2**20, 2**20, size=n).astype(float) * 2.0 ** -(exponent + 14)
    dx[rng.integers(n)] += 1.5
    grid = TimeGrid(np.linspace(0.0, 1.0, n + 1))
    spec = ThresholdSpec(beta)
    results = set()
    for order in (np.arange(n), rng.permutation(n), np.arange(n)[::-1]):
        path = SamplePath(grid, np.concatenate(([0.0], np.cumsum(dx[order]))))
        results.add(tuple(np.float64(v).tobytes() for v in (
            realized_variance(path), threshold_realized_variance(path, spec),
            threshold_quarticity(path, spec))))
    assert len(results) == 1


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=120), st.data())
def test_ties_with_the_threshold_are_kept(xs, data):
    # Unit lags make r = scale_c * 1**beta == scale_c exactly.
    path = SamplePath(TimeGrid(np.arange(len(xs), dtype=float)), np.array(xs))
    dx2 = path.increments * path.increments
    j = data.draw(st.integers(0, dx2.size - 1))
    if dx2[j] == 0.0:
        return
    per_interval = data.draw(st.booleans())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)
        det = detect_jumps(path, ThresholdSpec(data.draw(st.floats(0.05, 1.5)), float(dx2[j]),
                                               per_interval))
    assert not det.indicators[j]
    assert np.array_equal(det.indicators, dx2 > dx2[j])


@PROPERTY
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       st.floats(0.0, 5.0), st.floats(1e-3, 10.0))
def test_ks_lies_in_the_unit_interval(samples, lam_t, var_one):
    ks = ks_statistic(samples)
    mixed = ks_against_cdf(samples, PoissonMixtureCdf(lam_t, var_one), atom_points=(0.0,))
    assert 0.0 <= ks <= 1.0
    assert 0.0 <= mixed <= 1.0


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(1, 120), st.integers(1, 5), st.sampled_from([0.0, 0.6]),
       st.integers(0, 2**32), st.floats(0.1, 8.0), st.floats(1e-3, 0.5),
       st.floats(-1.0, 1.0), st.floats(-3.0, 0.0), st.floats(-3.0, 0.0))
def test_ou_scan_matches_the_stepwise_recursion(n, substeps, jitter, seed, k, eta, rho,
                                                h0, h_bar):
    cfg = Model2(rho=rho, h0=h0, mean_reversion=k, h_bar=h_bar, vol_of_vol=eta)
    grid = build_irregular_grid(n, 1.0, jitter, 3)
    spot = simulate(cfg, grid, substeps, seed).ground_truth.spot_variance.values
    # Draw order: W1 normals, then W2 normals, one per substep.
    offsets = np.arange(substeps) / substeps
    fine = np.append((grid.times[:-1, None] + grid.widths[:, None] * offsets).ravel(), 1.0)
    widths = np.diff(fine)
    rng = rng_from_seed(seed)
    z1 = rng.standard_normal(widths.size)
    z2 = rng.standard_normal(widths.size)
    h = [h0]
    for w, a, b in zip(widths, z1, z2):
        alpha = math.exp(-k * w)
        c21 = rho * eta * (1.0 - alpha) / (k * math.sqrt(w))
        c22 = math.sqrt(max(eta * eta * (1.0 - alpha * alpha) / (2.0 * k) - c21 * c21, 0.0))
        h.append(h_bar + alpha * (h[-1] - h_bar) + c21 * a + c22 * b)
    # H is a log-volatility, so its natural scale is at least 1.
    h = np.array(h)
    assert np.max(np.abs(np.log(spot) / 2.0 - h)) <= 1e-14 * max(1.0, np.max(np.abs(h)))
