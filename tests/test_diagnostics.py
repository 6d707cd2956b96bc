import math
import warnings

import numpy as np
import pytest

from jumpsift import (
    InvalidArgumentError,
    PoissonMixtureCdf,
    build_histogram,
    ks_against_cdf,
    ks_statistic,
    normal_cdf,
    sample_moments,
)


def test_normal_cdf_reference_points():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-7
    assert abs(normal_cdf(1.959963985) - 0.975) < 1e-6
    assert abs(normal_cdf(-1.959963985) - 0.025) < 1e-6
    assert normal_cdf(8.0) > 1 - 1e-7
    assert normal_cdf(-8.0) < 1e-7


def test_normal_cdf_symmetry_and_monotonicity():
    xs = np.linspace(-5, 5, 101)
    vals = normal_cdf(xs)
    assert vals.shape == xs.shape
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(normal_cdf(xs) + normal_cdf(-xs), 1.0, atol=1e-12)


def test_ks_single_point():
    assert abs(ks_statistic(np.array([0.0])) - 0.5) < 1e-7


def test_ks_standard_normal_sample_is_small():
    rng = np.random.Generator(np.random.Philox(key=314159))
    z = rng.standard_normal(2000)
    assert ks_statistic(z) < 0.035


def test_ks_shifted_sample_is_large():
    rng = np.random.Generator(np.random.Philox(key=314159))
    z = rng.standard_normal(2000) + 3.0
    # sup-distance for a +3 shift tops out near 0.866
    assert ks_statistic(z) > 0.5


def test_ks_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        ks_statistic(np.array([]))
    with pytest.raises(InvalidArgumentError, match="^samples must be finite$"):
        ks_statistic([0.0, math.nan])


def test_ks_against_cdf_hand_case():
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    assert math.isclose(ks_against_cdf(np.array([0.25, 0.5]), uniform), 0.5,
                        abs_tol=1e-12)
    assert math.isclose(ks_against_cdf(np.array([0.5]), uniform), 0.5,
                        abs_tol=1e-12)


def test_sample_moments_hand_case():
    m = sample_moments([1.0, 2.0, 3.0, 4.0])
    assert m.mean == 2.5
    assert math.isclose(m.variance, 5.0 / 3.0, rel_tol=1e-15)
    assert m.skewness == 0.0
    assert math.isclose(m.excess_kurtosis, 2.5625 / 1.5625 - 3.0, rel_tol=1e-12)


def test_sample_moments_normal_sample():
    rng = np.random.Generator(np.random.Philox(key=314159))
    m = sample_moments(rng.standard_normal(2000))
    assert abs(m.mean) < 0.1
    assert 0.9 < m.variance < 1.1
    assert abs(m.skewness) < 0.2
    assert abs(m.excess_kurtosis) < 0.3


def test_sample_moments_degenerate_and_small():
    with pytest.raises(InvalidArgumentError):
        sample_moments([1.0])
    m = sample_moments([2.0, 2.0, 2.0])
    assert m.variance == 0.0
    assert math.isnan(m.skewness)
    assert math.isnan(m.excess_kurtosis)


def test_poisson_mixture_atom_and_jump():
    mix = PoissonMixtureCdf(math.log(2.0), 1.0)
    assert math.isclose(mix.atom_mass, 0.5, rel_tol=1e-15)
    assert mix(0.0) - mix(-1e-9) == pytest.approx(0.5, abs=1e-7)
    assert mix(-50.0) < 1e-9
    assert mix(50.0) > 1 - 1e-9
    xs = np.linspace(-3, 3, 41)
    vals = [mix(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_poisson_mixture_matches_direct_series():
    lam_t, var_one = 5.0, 0.09
    mix = PoissonMixtureCdf(lam_t, var_one)
    for x in (-0.5, -0.05, 0.0, 0.05, 0.5, 2.0):
        brute = math.exp(-lam_t) * (1.0 if x >= 0 else 0.0)
        w = math.exp(-lam_t)
        for k in range(1, 300):
            w = w * lam_t / k
            brute += w * float(normal_cdf(x / math.sqrt(var_one * k)))
        assert abs(mix(x) - brute) < 1e-10


def test_ks_against_mixture_detects_atom():
    # half the mass exactly at zero, half standard normal: close to the
    # lam*T = ln 2 mixture with one-event variance dominating
    rng = np.random.Generator(np.random.Philox(key=77))
    n = 4000
    z = rng.standard_normal(n)
    keep_atom = rng.random(n) < 0.5
    samples = np.where(keep_atom, 0.0, z)
    mix = PoissonMixtureCdf(math.log(2.0), 1.0)
    # not the exact sampling law (multi-event terms differ) but the atom
    # must be absorbed; a plain N(0,1) comparison fails badly on these
    assert ks_against_cdf(samples, mix, atom_points=(0.0,)) < 0.2
    assert ks_statistic(samples) > 0.2


def test_histogram_hand_case():
    samples = np.array([-5.0, -4.0, -3.9, 0.0, 3.9, 4.0, 5.0])
    h = build_histogram(samples, 60, (-4.0, 4.0))
    assert h.bin_count == 60
    assert h.underflow == 1
    assert h.overflow == 2           # x == hi spills into overflow
    assert h.counts[0] == 2          # -4.0 and -3.9
    assert h.counts[30] == 1         # 0.0
    assert h.counts[59] == 1         # 3.9
    assert h.counts.sum() + h.underflow + h.overflow == len(samples)
    assert h.edges.shape == (61,)
    assert h.edges[0] == -4.0
    assert h.edges[-1] == 4.0


def test_histogram_top_edge_rounding():
    # a sample just below hi must stay in the last bin even when the index
    # arithmetic rounds up
    x = np.nextafter(4.0, -np.inf)
    h = build_histogram(np.array([x]), 60, (-4.0, 4.0))
    assert h.counts[59] == 1
    assert h.overflow == 0


def test_histogram_far_off_samples_raise_no_warning():
    # finite samples far outside the range must not reach the int64 cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = build_histogram([1e300, -1e300, 0.5], 60, (-4.0, 4.0))
        narrow = build_histogram([1.0, -1.0, 0.0], 4, (0.0, 1e-300))
    assert (h.underflow, h.overflow, h.counts[33], h.total) == (1, 1, 1, 3)
    assert (narrow.underflow, narrow.overflow, narrow.counts[0], narrow.total) == (1, 1, 1, 3)


def test_histogram_validation():
    with pytest.raises(InvalidArgumentError):
        build_histogram(np.array([0.0]), 0, (-4.0, 4.0))
    with pytest.raises(InvalidArgumentError):
        build_histogram(np.array([0.0]), 10, (1.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        build_histogram(np.array([0.0]), 10, (-1e308, 1e308))
    with pytest.raises(InvalidArgumentError):
        build_histogram(np.array([np.nan]), 10, (-4.0, 4.0))
