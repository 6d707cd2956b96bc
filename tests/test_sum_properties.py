"""Property tests for the exact sums and the algebra the estimators rest on.

The exact-sum tests compare the extraction, and each sum the per-path kernel
returns, with math.fsum bit for bit; the others pin identities of the
estimators, the KS range and the Model2 volatility scan, and hold
independently of how the sums are computed.
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
from jumpsift import estimators
from jumpsift.config import merge_settings
from jumpsift.engines import rng_from_seed
from jumpsift.estimators import _EXTRACT_PASSES, _exact_sum, _path_sums
from jumpsift.montecarlo import run_experiment

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
           1e300, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


# Row lengths from the shortest extracted row to ten desk paths.
LONG = [64, 65, 127, 128, 300, 2000, 4097, 20000]


@st.composite
def float_rows(draw):
    """Rows of 0 to 20,000 values of one of three kinds: a random body at a
    drawn scale and sign mix, with zero runs and special values planted at
    drawn positions; a dense run of same-sign values near one power of two,
    whose sum needs every bit of headroom; or a rounding tie a + ulp(a)/2
    that only a value far below it breaks."""
    kind = draw(st.sampled_from(["random", "dense", "tie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "dense":
        size = draw(st.sampled_from(LONG))
        sign = draw(st.sampled_from([1.0, -1.0]))
        return sign * rng.uniform(0.875, 1.0, size) * 2.0 ** draw(st.integers(-1000, 1000))
    if kind == "tie":
        row = np.zeros(draw(st.sampled_from(LONG)))
        a = rng.uniform(1.0, 2.0) * 2.0 ** draw(st.integers(-800, 800))
        tiny = np.spacing(a) * 2.0 ** -draw(st.integers(1, 300))
        row[rng.permutation(row.size)[:3]] = [a, np.spacing(a) / 2.0,
                                              draw(st.sampled_from([tiny, -tiny]))]
        return row
    size = draw(st.sampled_from([0, 1, 2, 63, *LONG]))
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
        return [_exact_sum(row) for row in rows]
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(float_rows())
def test_non_negative_entry_matches_the_default_and_fsum(row):
    # np.abs keeps nan and maps -inf to inf, so no value is negative.
    row = np.abs(row)
    want = fsum_or_error(row)
    default, nonneg = [], []
    try:
        got = _exact_sum(row, default), _exact_sum(row, nonneg, nonneg=True)
    except (ValueError, OverflowError) as exc:
        assert type(exc) is want
        return
    assert {np.float64(g).tobytes() for g in got} == {np.float64(want).tobytes()}
    assert nonneg == default


EXACT_ROW = 4096
BODY_RESIDUAL = (EXACT_ROW - 4) * 2.0 ** -40
# About gamma * sum|residual| after the first pass of near_midpoint_row,
# without the offset's share.
FIRST_BOUND = EXACT_ROW * 2.0 ** -53 * (BODY_RESIDUAL + 2.0 ** -39)


def near_midpoint_row(offset):
    """A row summing exactly to S + ulp(S)/2 + offset, with S a double.

    Its 4,092 body values are multiples of 2**-30 in [1, 8) plus 2**-40 each,
    followed by the half ulp, the offset and two zeros. The extraction's
    first sigma is 2**16, so the first pass leaves exactly 2**-40 of each
    body value, the half ulp and the offset; the bound on the residual's
    float sum is then about n * 2**-53 * sum|residual| (FIRST_BOUND).
    """
    rng = np.random.default_rng(5)
    body = rng.integers(2**30, 2**33, EXACT_ROW - 4) * 2.0 ** -30
    body[0] = 7.5
    s = math.fsum(body.tolist()) + BODY_RESIDUAL
    assert s - math.fsum(body.tolist()) == BODY_RESIDUAL  # S is exact
    half_ulp = math.ulp(s) / 2.0
    assert half_ulp == 2.0 ** -39
    return np.concatenate((body + 2.0 ** -40, [half_ulp, offset, 0.0, 0.0])), s, half_ulp


def multiple_of(x, step=2.0 ** -80):
    return round(x / step) * step


def test_exact_sums_take_each_exit():
    """Each exit of _exact_sum, placed so that halving the bound, dropping
    the rounding error of c or certifying at equality changes it."""
    last = _EXTRACT_PASSES + 1
    rng = np.random.default_rng(3)
    squares = rng.standard_normal(EXACT_ROW) ** 2
    body = rng.integers(1, 2**33, EXACT_ROW // 2) * 2.0 ** -30
    cancelling = rng.permutation(np.concatenate((body, -body)))
    cases = {
        # Far from a midpoint: the first pass decides.
        "squares": (squares, 1),
        "past the bound": (near_midpoint_row(multiple_of(1.5 * FIRST_BOUND))[0], 1),
        # Closer to the midpoint than the first bound, farther than the second.
        "within the bound": (near_midpoint_row(multiple_of(0.75 * FIRST_BOUND))[0], 2),
        "below the midpoint": (near_midpoint_row(-multiple_of(0.75 * FIRST_BOUND))[0], 2),
        # An exact tie, and ties only a value far below breaks: no pass certifies.
        "tie": (near_midpoint_row(0.0)[0], last),
        "tie broken up": (near_midpoint_row(2.0 ** -100)[0], last),
        "tie broken down": (near_midpoint_row(-(2.0 ** -100))[0], last),
        # c = 0 has no gap to certify against, even with a zero residual.
        "cancelling": (cancelling, last),
        "short": (squares[:63], 0),
    }
    rows = [row for row, _ in cases.values()]
    exits = []
    got = [_exact_sum(row, exits) for row in rows]
    assert ([np.float64(g).tobytes() for g in got]
            == [np.float64(math.fsum(row.tolist())).tobytes() for row in rows])
    assert dict(zip(cases, exits)) == {name: want for name, (_, want) in cases.items()}
    _, s, half_ulp = near_midpoint_row(0.0)
    assert got[list(cases).index("tie broken up")] == s + 2.0 * half_ulp
    assert got[list(cases).index("tie broken down")] == s
    assert got[list(cases).index("cancelling")] == 0.0


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


threshold_specs = st.builds(ThresholdSpec, st.floats(0.05, 0.95), st.floats(0.01, 10.0))


def bits(value):
    return np.float64(value).tobytes()


@PROPERTY
@given(model1_like_paths(), threshold_specs, st.data())
def test_each_kernel_sum_is_fsum_of_its_own_terms(path, spec, data):
    x, r = path.observations, spec.r_at(path.grid.widths)
    # A spike of 1e200 at one observation makes the squares of the one or two
    # increments next to it overflow; they are flagged, so rv and F are inf.
    spike = data.draw(st.one_of(st.none(), st.integers(1, path.grid.n)))
    if spike is not None:
        x = x.copy()
        x[spike] += 1e200
    _, flagged, rv, iv_hat, quartic, bpv = _path_sums(x, r, bpv=path.grid.n >= 2)
    dx = np.diff(x)
    with np.errstate(over="ignore"):
        dx2 = dx * dx
        a = np.abs(dx)
        bpv_terms = a[1:] * a[:-1]
    assert np.array_equal(flagged, dx2 > r)
    assert bits(rv) == bits(math.fsum(dx2.tolist()))
    # iv_hat is rv minus the flagged mass where that is finite, else the sum
    # of the kept squares (estimators module docstring).
    want = rv - math.fsum(dx2[flagged].tolist())
    if not math.isfinite(want):
        want = math.fsum(dx2[~flagged].tolist())
    assert spike is None or math.isfinite(want)
    assert bits(iv_hat) == bits(want)
    assert bits(quartic) == bits(math.fsum((dx2[~flagged] ** 2).tolist()))
    if path.grid.n >= 2:
        assert bits(bpv) == bits((math.pi / 2.0) * math.fsum(bpv_terms.tolist()))


def test_desk_rows_certify_at_the_first_pass(monkeypatch):
    """Every RV, kept-quartic and bipower row of 50 Model1 desk paths exits
    after pass 1; the flagged row, a few values, goes to math.fsum (exit 0)."""
    exits = []
    monkeypatch.setattr(estimators, "_exact_sum",
                        lambda a, _=None, **kw: _exact_sum(a, exits, **kw))
    cfg = merge_settings(overrides={"paths": "50"}, preset="model1-desk").with_seed(2008)
    run_experiment(cfg.experiment())
    assert exits == [1, 0, 1, 1] * 50


@PROPERTY
@given(model1_like_paths(), threshold_specs)
def test_trv_is_rv_minus_flagged_mass_exactly(path, spec):
    det = detect_jumps(path, spec)
    flagged = np.array(list(det.estimated_sizes.values()))
    assert (threshold_realized_variance(path, spec)
            == realized_variance(path) - math.fsum((flagged * flagged).tolist()))


def test_trv_is_rv_minus_flagged_mass_at_a_rounding_tie():
    # r = 2 * dt**0.5 flags the two 2**-120 lags. F = 2**-53 and
    # RV = 1 + 3 * 2**-52, so RV - F lies halfway between two doubles and
    # rounds to even; adding F back rounds to even again, one ulp below RV.
    lags = [2.0 ** -120] * 2 + [1.0] * 5
    dx = np.array([2.0 ** -27, 2.0 ** -27, 1.0, 2.0 ** -26, 2.0 ** -26, 2.0 ** -27, 2.0 ** -27])
    path = SamplePath(TimeGrid(np.concatenate(([0.0], np.cumsum(lags)))),
                      np.concatenate(([0.0], np.cumsum(dx))))
    spec = ThresholdSpec(0.5, 2.0)
    sizes = list(detect_jumps(path, spec).estimated_sizes.values())
    flagged = math.fsum(s * s for s in sizes)
    rv = realized_variance(path)
    trv = threshold_realized_variance(path, spec)
    assert sizes == [2.0 ** -27, 2.0 ** -27]
    assert rv == float.fromhex("0x1.0000000000003p+0")
    assert trv == rv - flagged
    assert rv != trv + flagged


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)
        det = detect_jumps(path, ThresholdSpec(data.draw(st.floats(0.05, 1.5)), float(dx2[j])))
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


# k * T above 600 (T = 1) takes _ou_scan's stepwise loop instead of the
# closed-form cumulative sum.
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(1, 120), st.integers(1, 5), st.sampled_from([0.0, 0.6]),
       st.integers(0, 2**32),
       st.one_of(st.floats(0.1, 8.0), st.floats(600.0, 2000.0, exclude_min=True)),
       st.floats(1e-3, 0.5), st.floats(-1.0, 1.0), st.floats(-3.0, 0.0), st.floats(-3.0, 0.0))
def test_ou_scan_matches_the_stepwise_recursion(n, substeps, jitter, seed, k, eta, rho,
                                                h0, h_bar):
    cfg = Model2(rho=rho, h0=h0, mean_reversion=k, h_bar=h_bar, vol_of_vol=eta)
    grid = build_irregular_grid(n, 1.0, jitter, 3)
    spot = simulate(cfg, grid, substeps, seed).ground_truth.spot_variance
    # Draw order: W1 normals, then W2 normals, one per substep.
    offsets = np.arange(substeps) / substeps
    fine = np.append((grid.times[:-1, None] + grid.widths[:, None] * offsets).ravel(), 1.0)
    widths = np.diff(fine)
    rng = rng_from_seed(seed)
    z1 = rng.standard_normal(widths.size)
    z2 = rng.standard_normal(widths.size)
    # The coefficients come from numpy's exp and sqrt, as in the engine: math.exp
    # can differ by an ulp, which 1 - alpha and c22's square root near
    # |rho| = 1 blow up far past the bound below.
    alpha = np.exp(-k * widths)
    c21 = rho * eta * (1.0 - alpha) / (k * np.sqrt(widths))
    c22 = np.sqrt(np.maximum(eta * eta * (1.0 - alpha * alpha) / (2.0 * k) - c21 * c21, 0.0))
    h = [h0]
    for a, b21, b22, x1, x2 in zip(alpha.tolist(), c21.tolist(), c22.tolist(), z1, z2):
        h.append(h_bar + a * (h[-1] - h_bar) + b21 * x1 + b22 * x2)
    # H is a log-volatility, so its natural scale is at least 1. The scan's
    # rounding drift grows with the number of substeps m, about m * eps / 5
    # at worst over random draws.
    h = np.array(h)
    bound = max(1e-14, widths.size * 2.0 ** -52) * max(1.0, np.max(np.abs(h)))
    assert np.max(np.abs(np.log(spot) / 2.0 - h)) <= bound
