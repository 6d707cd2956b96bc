import math
import warnings

import numpy as np
import pytest

from jumpsift import (
    AdmissibilityWarning,
    CustomModel,
    DegenerateStatisticError,
    GroundTruth,
    InvalidArgumentError,
    JumpTable,
    Model1,
    SamplePath,
    ThresholdSpec,
    TimeGrid,
    UnsupportedError,
    bipower_variation,
    build_irregular_grid,
    build_uniform_grid,
    detect_jumps,
    estimation_report,
    jump_size_error_stat,
    normalized_bias,
    path_seed,
    realized_variance,
    simulate,
    threshold_admissible,
    threshold_quarticity,
    threshold_realized_variance,
)

# four-interval path with increments [0.1, 0.0, 0.5, 0.05]
TIMES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
XS = np.array([0.0, 0.1, 0.1, 0.6, 0.65])


def tiny_path():
    return SamplePath(TimeGrid(TIMES.copy()), XS.copy())


def test_threshold_spec_r_at():
    spec = ThresholdSpec(0.9, 2.0)
    assert math.isclose(spec.r_at(0.25), 2.0 * 0.25 ** 0.9, rel_tol=1e-15)
    arr = spec.r_at(np.array([0.1, 0.2]))
    assert arr.shape == (2,)


def test_a_threshold_past_the_largest_double_is_inf():
    spec = ThresholdSpec(2.0)
    assert spec.r_at(1e300) == math.inf
    assert spec.r_at(np.array([1e300, 0.5])).tolist() == [math.inf, 0.25]
    assert ThresholdSpec(0.5, 1e308).r_at(1e10) == math.inf


def test_realized_variance_hand_value():
    assert math.isclose(realized_variance(tiny_path()), 0.2625, rel_tol=1e-15)


def test_threshold_keeps_everything_under_wide_threshold():
    # r = 0.25^0.9 ~ 0.287 exceeds every squared increment
    spec = ThresholdSpec(0.9, 1.0)
    p = tiny_path()
    assert threshold_realized_variance(p, spec) == realized_variance(p)


def test_threshold_flags_large_increment():
    # r = 0.1 * 0.25^0.9 ~ 0.0287 flags (0.5)^2 only
    spec = ThresholdSpec(0.9, 0.1)
    p = tiny_path()
    assert math.isclose(threshold_realized_variance(p, spec), 0.0125, rel_tol=1e-12)
    det = detect_jumps(p, spec)
    assert det.flagged_intervals == (2,)
    assert det.estimated_sizes == {2: 0.5}
    assert det.match is None


def test_exact_tie_is_kept():
    # beta=1, h=0.25 gives r=0.25 exactly; dx=0.5 squares to exactly 0.25
    p = SamplePath(TimeGrid(TIMES.copy()), np.array([0.0, 0.5, 0.5, 0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)
        spec = ThresholdSpec(1.0, 1.0)
        assert threshold_realized_variance(p, spec) == 0.25
        assert detect_jumps(p, spec).flagged_intervals == ()


def test_threshold_quarticity_hand_value():
    spec = ThresholdSpec(0.9, 0.1)
    want = (0.1 ** 4 + 0.0 + 0.05 ** 4) / (3.0 * 0.25)
    assert math.isclose(threshold_quarticity(tiny_path(), spec), want, rel_tol=1e-12)


def test_threshold_quarticity_rejects_irregular_grid():
    g = build_irregular_grid(50, 1.0, 0.5, seed=1)
    p = simulate(Model1(), g, 1, 3)
    with pytest.raises(UnsupportedError):
        threshold_quarticity(p, ThresholdSpec(0.9))


def test_bipower_hand_value():
    want = (math.pi / 2.0) * (0.1 * 0.0 + 0.0 * 0.5 + 0.5 * 0.05)
    assert math.isclose(bipower_variation(tiny_path()), want, rel_tol=1e-15)


def test_bipower_needs_two_increments():
    p = SamplePath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 0.3]))
    with pytest.raises(InvalidArgumentError):
        bipower_variation(p)


def test_scale_must_be_positive_to_evaluate():
    p = tiny_path()
    with pytest.raises(InvalidArgumentError):
        threshold_realized_variance(p, ThresholdSpec(0.9, 0.0))
    with pytest.raises(InvalidArgumentError):
        threshold_realized_variance(p, ThresholdSpec(0.9, -1.0))


def test_admissibility_warning_on_boundary_beta():
    p = tiny_path()
    with pytest.warns(AdmissibilityWarning):
        threshold_realized_variance(p, ThresholdSpec(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        threshold_realized_variance(p, ThresholdSpec(0.9))  # must not warn


def test_threshold_admissible_reasons():
    ok, why = threshold_admissible(ThresholdSpec(0.9))
    assert ok and "-> 0" in why
    ok, why = threshold_admissible(ThresholdSpec(1.0))
    assert not ok
    ok, why = threshold_admissible(ThresholdSpec(0.9, -2.0))
    assert not ok


def test_permutation_invariance_of_sums():
    # reordering the increments permutes the summands only; fsum-based
    # accumulation must return bitwise equal values on a uniform grid.
    # dyadic increments keep the cumulative sums exact, so each permuted
    # path carries exactly the same increment multiset.
    rng = np.random.Generator(np.random.Philox(key=902))
    dx = rng.integers(-2**20, 2**20, size=257).astype(float) * 2.0 ** -24
    dx[13] += 1.5
    g = build_uniform_grid(257, 1.0)
    spec = ThresholdSpec(0.9)
    base = None
    for perm_seed in range(4):
        order = np.random.Generator(np.random.Philox(key=perm_seed)).permutation(257)
        x = np.concatenate(([0.0], np.cumsum(dx[order])))
        p = SamplePath(g, x)
        assert np.array_equal(np.sort(np.diff(p.observations)), np.sort(dx))
        got = (realized_variance(p), threshold_realized_variance(p, spec),
               threshold_quarticity(p, spec))
        if base is None:
            base = got
        else:
            assert got == base


def make_truth_path():
    """Two true jumps in interval 1, one in interval 3; increments sized so
    the 0.1 * h^0.9 threshold flags exactly intervals 1 and 3."""
    times = TIMES.copy()
    xs = np.array([0.0, 0.01, 0.22, 0.23, 0.95])
    truth = GroundTruth(
        spot_variance=np.full(5, 0.09),
        refinement=1,
        jumps=JumpTable([0.30, 0.35, 0.80], [0.40, -0.20, 0.70]),
        continuous_increments=np.diff(xs - np.array([0.0, 0.0, 0.2, 0.2, 0.9])),
    )
    return SamplePath(TimeGrid(times), xs, truth)


def test_detection_matching_with_multi_jump_interval():
    p = make_truth_path()
    det = detect_jumps(p, ThresholdSpec(0.9, 0.1), p.ground_truth.jumps)
    assert det.flagged_intervals == (1, 3)
    m = det.match
    assert (m.true_positives, m.false_positives, m.false_negatives) == (2, 0, 0)
    assert m.multi_jump_intervals == (1,)
    # size error recorded for the single-jump interval only: 0.72 - 0.70
    assert len(m.size_errors) == 1
    assert math.isclose(m.size_errors[0], 0.02, abs_tol=1e-12)
    assert m.recall == 1.0


def test_detection_false_positive_and_miss():
    p = make_truth_path()
    # huge scale keeps everything: both jumpy intervals become misses
    det = detect_jumps(p, ThresholdSpec(0.9, 50.0), p.ground_truth.jumps)
    m = det.match
    assert (m.true_positives, m.false_positives, m.false_negatives) == (0, 0, 2)
    assert m.recall == 0.0
    # tiny scale flags everything: two extra flags are false positives
    det = detect_jumps(p, ThresholdSpec(0.9, 1e-6), p.ground_truth.jumps)
    m = det.match
    assert (m.true_positives, m.false_positives, m.false_negatives) == (2, 2, 0)


def test_recall_none_without_jumpy_intervals():
    g = build_uniform_grid(4, 1.0)
    p = SamplePath(g, np.array([0.0, 0.01, 0.02, 0.01, 0.0]))
    det = detect_jumps(p, ThresholdSpec(0.9), true_jumps=JumpTable((), ()))
    assert det.match.recall is None


def test_jump_size_error_stat_hand_value():
    p = make_truth_path()
    det = detect_jumps(p, ThresholdSpec(0.9, 0.1), p.ground_truth.jumps)
    # flagged estimates 0.21 + 0.72; first true sizes per jumpy interval
    # 0.40 and 0.70; n = 4
    want = 2.0 * ((0.21 + 0.72) - (0.40 + 0.70))
    got = jump_size_error_stat(p, det, p.ground_truth.jumps)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_jump_size_error_stat_requires_uniform_grid():
    g = build_irregular_grid(50, 1.0, 0.5, seed=4)
    p = simulate(Model1(), g, 1, 9)
    det = detect_jumps(p, ThresholdSpec(0.9))
    with pytest.raises(UnsupportedError):
        jump_size_error_stat(p, det, p.ground_truth.jumps)
    uniform = make_truth_path()
    with pytest.raises(UnsupportedError, match="requires ground-truth jumps"):
        jump_size_error_stat(uniform, detect_jumps(uniform, ThresholdSpec(0.9, 0.1)), None)


def test_normalized_bias_zero_at_true_value():
    p = tiny_path()
    spec = ThresholdSpec(0.9, 0.1)
    iv_hat = threshold_realized_variance(p, spec)
    assert normalized_bias(p, spec, iv_hat) == 0.0


def test_normalized_bias_hand_value():
    p = tiny_path()
    spec = ThresholdSpec(0.9, 0.1)
    quartic = 0.1 ** 4 + 0.0 + 0.05 ** 4
    want = (0.0125 - 0.01) / math.sqrt((2.0 / 3.0) * quartic)
    assert math.isclose(normalized_bias(p, spec, 0.01), want, rel_tol=1e-12)


def test_normalized_bias_degenerate_when_all_flagged():
    p = tiny_path()
    with pytest.raises(DegenerateStatisticError):
        normalized_bias(p, ThresholdSpec(0.9, 1e-12), 0.09)


def test_normalized_bias_requires_uniform_grid():
    g = build_irregular_grid(60, 1.0, 0.5, seed=8)
    p = simulate(Model1(), g, 1, 2)
    with pytest.raises(UnsupportedError):
        normalized_bias(p, ThresholdSpec(0.9), 0.09)


def test_estimation_report_consistency():
    g = build_uniform_grid(400, 1.0)
    p = simulate(Model1(), g, 1, 99)
    spec = ThresholdSpec(0.9)
    rep = estimation_report(p, spec, true_iv=0.09)
    assert rep.iv_threshold == threshold_realized_variance(p, spec)
    assert rep.realized_variance == realized_variance(p)
    assert rep.iq_threshold == threshold_quarticity(p, spec)
    assert rep.bipower_variation == bipower_variation(p)
    assert rep.normalized_bias == normalized_bias(p, spec, 0.09)
    assert rep.flagged_intervals == detect_jumps(p, spec).flagged_intervals
    assert rep.admissible
    assert rep.threshold_used is spec


@pytest.mark.parametrize("index", range(4))
def test_flagged_squares_that_overflow_leave_the_kept_mass(index):
    # Paths 0-3 of mc's 1e200 model at n = 50, base seed 1: a flagged square
    # overflows, so RV and F are inf, and RV - F is nan; the threshold
    # estimate is the exact sum of the kept squares.
    model = CustomModel(jumps="compound-poisson:5,1e200")
    path = simulate(model, build_uniform_grid(50, 1.0), 1, path_seed(1, index))
    spec = ThresholdSpec(0.9)
    with np.errstate(over="ignore"):
        dx2 = np.diff(path.observations) ** 2
    kept = math.fsum(dx2[dx2 <= spec.r_at(path.grid.widths)].tolist())
    assert realized_variance(path) == math.inf
    assert 0.0 < kept < 1.0
    for got in (threshold_realized_variance(path, spec),
                estimation_report(path, spec).iv_threshold):
        assert np.float64(got).tobytes() == np.float64(kept).tobytes()


def test_estimation_report_on_irregular_grid():
    g = build_irregular_grid(200, 1.0, 0.5, seed=14)
    p = simulate(Model1(), g, 1, 6)
    rep = estimation_report(p, ThresholdSpec(0.9), true_iv=0.09)
    assert rep.iq_threshold is None
    assert rep.normalized_bias is None
    assert rep.iv_threshold > 0


def test_complementarity_on_simulated_paths():
    g = build_uniform_grid(300, 1.0)
    spec = ThresholdSpec(0.9)
    for seed in range(50):
        p = simulate(Model1(), g, 1, seed)
        dx = np.diff(p.observations)
        r = spec.r_at(p.grid.widths)
        flagged = dx * dx > r
        flagged_sum = math.fsum((dx[flagged] * dx[flagged]).tolist())
        assert threshold_realized_variance(p, spec) == realized_variance(p) - flagged_sum
