import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jumpsift import (
    CustomModel,
    InvalidArgumentError,
    Model1,
    Model2,
    Model3,
    SamplePath,
    SimulationError,
    TimeGrid,
    UnsupportedError,
    build_irregular_grid,
    build_uniform_grid,
    compound_poisson_law,
    finite_activity,
    has_jumps,
    path_seed,
    simulate,
    true_integrated_variance,
)
from jumpsift import engines
from jumpsift.grids import containing_intervals


def grid(n=100, t=1.0):
    return build_uniform_grid(n, t)


def test_same_seed_bit_identical():
    g = grid(200)
    a = simulate(Model1(), g, 1, 42)
    b = simulate(Model1(), g, 1, 42)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.ground_truth.jumps.times, b.ground_truth.jumps.times)
    assert np.array_equal(a.ground_truth.jumps.sizes, b.ground_truth.jumps.sizes)


def test_different_seeds_differ():
    g = grid(200)
    a = simulate(Model1(), g, 1, 42)
    b = simulate(Model1(), g, 1, 43)
    assert not np.array_equal(a.observations, b.observations)


def test_path_seed_is_xor():
    assert path_seed(0b1100, 0b1010) == 0b0110
    assert path_seed(42, 0) == 42
    # stays inside 64 bits for any index
    assert path_seed(2**63, 2**63) == 0
    assert path_seed(-1, np.int64(1)) == 2**64 - 2


def test_a_seed_is_an_integer_reduced_to_64_bits():
    g = grid(20)
    for seed in (1.5, True, "1", None):
        with pytest.raises(InvalidArgumentError, match=rf"^seed must be an integer, got {seed!r}$"):
            simulate(Model1(), g, 1, seed)
    want = simulate(Model1(), g, 1, 2**64 - 3).observations
    for seed in (-3, np.int64(-3), 2**128 - 3):
        assert np.array_equal(simulate(Model1(), g, 1, seed).observations, want)


def test_path_shape_and_start():
    g = grid(150)
    p = simulate(Model1(), g, 1, 7)
    assert p.observations.shape == (151,)
    assert p.observations[0] == 0.0
    assert p.grid is g
    assert p.ground_truth is not None
    with pytest.raises(InvalidArgumentError, match="^observations must match the grid length$"):
        SamplePath(build_uniform_grid(3, 1.0), np.zeros(3))


def test_substeps_refine_truth_but_not_observations():
    g = grid(40)
    p = simulate(Model1(), g, 3, 9)
    assert p.observations.shape == (41,)
    assert p.ground_truth.spot_variance.shape == (3 * 40 + 1,)
    assert p.ground_truth.refinement == 3
    assert p.ground_truth.continuous_part.shape == (41,)


def test_jump_events_land_in_their_intervals():
    g = grid(100)
    p = simulate(Model1(), g, 1, 12345)
    jumps = p.ground_truth.jumps
    assert len(jumps) > 0
    assert np.all((jumps.times > 0.0) & (jumps.times <= 1.0))
    assert np.all(jumps.sizes != 0.0)
    times = g.times
    # intervals holding a jump: observed increment = continuous increment + sizes
    dx = np.diff(p.observations)
    dc = np.diff(p.ground_truth.continuous_part)
    jump_per_interval = {}
    for t, size in zip(jumps.times.tolist(), jumps.sizes.tolist()):
        idx = int(np.searchsorted(times, t, side="left")) - 1
        jump_per_interval[idx] = jump_per_interval.get(idx, 0.0) + size
    for i in range(100):
        expect = dc[i] + jump_per_interval.get(i, 0.0)
        assert math.isclose(dx[i], expect, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("model", [
    Model1(), Model2(), CustomModel(drift="constant:0.5", jumps="compound-poisson:20,0.4"),
], ids=["model1", "model2", "custom jumps"])
def test_plan_arrays_hand_out_the_observed_path(model):
    # What run_experiment reads: the observations simulate returns, and each
    # event's observation interval.
    for substeps in (1, 3, 5):
        for jitter in (0.0, 0.3):
            g = build_irregular_grid(60, 1.0, jitter, 8)
            obs, _, _, (times, _, interval) = engines.simulation_plan(
                model, g, substeps).arrays(21)
            assert obs.tobytes() == simulate(model, g, substeps, 21).observations.tobytes()
            assert len(times) > 0
            assert np.array_equal(interval, containing_intervals(g.times, times))


@pytest.mark.parametrize("substeps", [1, 3])
def test_plan_arrays_reject_a_path_that_overflows(substeps):
    # pyproject's error::RuntimeWarning filter fails the test if the
    # overflow escapes as a numpy warning instead.
    plan = engines.simulation_plan(CustomModel(jumps="compound-poisson:20,1e308"),
                                   grid(50), substeps)
    with pytest.raises(InvalidArgumentError, match="^observations must be finite$"):
        plan.arrays(1)


def test_model2_jump_that_cannot_be_drawn_raises():
    # Z > -1 lies 4,900 standard deviations above this mean.
    with pytest.raises(SimulationError, match=re.escape(
            "failed to draw a jump with 1 + Z > 0 in 100 tries (mean=-50.0, sd=0.01)")):
        simulate(Model2(jump_mean=-50.0, jump_var=1e-4), grid(50), 1, 3)


def test_mean_jump_count_matches_intensity():
    g = grid(50)
    counts = [len(simulate(Model1(), g, 1, path_seed(3000, i)).ground_truth.jumps)
              for i in range(500)]
    assert 4.6 < np.mean(counts) < 5.4   # lambda=5, se ~ 0.1


def test_model1_terminal_value_centered():
    g = grid(100)
    xs = [simulate(Model1(), g, 1, path_seed(4000, i)).observations[-1]
          for i in range(400)]
    # Var(X_1) = 0.09 + 5 * 0.36, so the 400-path mean has se ~ 0.07
    assert abs(np.mean(xs)) < 0.29


def test_true_integrated_variance_constant_vol():
    g = grid(128)
    p = simulate(Model1(), g, 1, 5)
    assert math.isclose(true_integrated_variance(p, 2), 0.09, rel_tol=1e-12)
    assert math.isclose(true_integrated_variance(p, 4), 0.0081, rel_tol=1e-12)


def test_true_integrated_variance_requires_truth_and_known_power():
    g = grid(16)
    p = simulate(Model1(), g, 1, 5)
    with pytest.raises(InvalidArgumentError):
        true_integrated_variance(p, 3)
    bare = SamplePath(g, p.observations)
    with pytest.raises(UnsupportedError):
        true_integrated_variance(bare, 2)


def test_simulate_on_irregular_grid():
    g = build_irregular_grid(300, 1.0, 0.5, seed=2)
    p = simulate(Model1(), g, 1, 8)
    assert p.observations.shape == (301,)
    assert math.isclose(true_integrated_variance(p, 2), 0.09, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Model 2

def test_model2_terminal_logvol_matches_ou_law():
    g = grid(100)
    k, t = 1.0, 1.0
    ends = []
    for i in range(400):
        p = simulate(Model2(), g, 1, path_seed(1000, i))
        h_path = 0.5 * np.log(p.ground_truth.spot_variance)
        ends.append(h_path[-1])
    ends = np.array(ends)
    mean_theory = math.log(0.3) * math.exp(-k * t) + math.log(0.25) * (1 - math.exp(-k * t))
    sd_theory = 0.01 * math.sqrt((1 - math.exp(-2 * k * t)) / (2 * k))
    assert abs(ends.mean() - mean_theory) < 4 * sd_theory / math.sqrt(400)
    assert 0.0055 < ends.std(ddof=1) < 0.0080   # sd_theory ~ 0.00658


def test_model2_leverage_is_negative():
    g = grid(100)
    dxs, dhs = [], []
    for i in range(200):
        p = simulate(Model2(), g, 1, path_seed(1000, i))
        h_path = 0.5 * np.log(p.ground_truth.spot_variance)
        dxs.append(np.diff(p.observations))
        dhs.append(np.diff(h_path))
    corr = np.corrcoef(np.concatenate(dxs), np.concatenate(dhs))[0, 1]
    # rho = -0.7, diluted by the jump component of dX
    assert corr < -0.3


def test_model2_subgrid_refinement_converges():
    # left Riemann sums of one simulated variance path: full 100-point
    # subgrid vs its every-10th subsample must agree closely
    g = build_uniform_grid(50, 1.0)
    p = simulate(Model2(), g, 100, 7)
    spot = p.ground_truth.spot_variance
    w = 1.0 / 5000
    full = math.fsum((spot[:-1] * w).tolist())
    sub = spot[::10]
    coarse = math.fsum((sub[:-1] * (10 * w)).tolist())
    assert abs(full - coarse) / full < 1e-3


def test_model2_spot_variance_positive_and_varying():
    g = grid(200)
    p = simulate(Model2(), g, 1, 3)
    spot = p.ground_truth.spot_variance
    assert np.all(spot > 0)
    assert spot.std() > 0


# ---------------------------------------------------------------------------
# Model 3

def test_model3_terminal_variance():
    g = grid(200)
    xs = np.array([simulate(Model3(), g, 1, path_seed(2000, i)).observations[-1]
                   for i in range(2000)])
    # Var(X_1) = eta^2 + c^2 b + sigma^2 = 0.04 + 0.0092 + 0.09 = 0.1392;
    # se of the sample variance at 2000 paths is ~ 0.0044
    assert abs(xs.var(ddof=1) - 0.1392) < 4 * 0.0045


def test_model3_jumps_are_small_aggregate_events():
    g = grid(100)
    p = simulate(Model3(), g, 1, 11)
    jumps = p.ground_truth.jumps
    assert len(jumps) > 0
    assert np.all(jumps.sizes != 0.0)
    assert np.all((jumps.times > 0.0) & (jumps.times <= 1.0))


def test_model3_constant_spot_variance():
    g = grid(64)
    p = simulate(Model3(), g, 1, 4)
    assert np.all(p.ground_truth.spot_variance == 0.09)
    assert math.isclose(true_integrated_variance(p, 2), 0.09, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# custom model

def test_custom_diffusion_only():
    g = grid(100)
    model = CustomModel(drift="zero", spot_vol="constant:0.3", jumps="none")
    p = simulate(model, g, 1, 21)
    assert len(p.ground_truth.jumps) == 0
    assert math.isclose(true_integrated_variance(p, 2), 0.09, rel_tol=1e-12)


def test_custom_constant_drift():
    g = grid(100)
    model = CustomModel(drift="constant:0.5", spot_vol="constant:0.01", jumps="none")
    xs = [simulate(model, g, 1, path_seed(0, i)).observations[-1] for i in range(100)]
    assert abs(np.mean(xs) - 0.5) < 0.01 * 4 / math.sqrt(100)


def test_custom_zero_intensity_has_no_jumps():
    g = grid(50)
    model = CustomModel(drift="zero", spot_vol="constant:0.3",
                        jumps="compound-poisson:0,0.6")
    p = simulate(model, g, 1, 33)
    assert len(p.ground_truth.jumps) == 0


@pytest.mark.parametrize("model,jumps,finite,law", [
    (Model1(), True, True, (0.0, 0.3, (5.0, 0.6))),
    (Model2(), True, True, None),
    (Model3(), True, False, None),
    (CustomModel(), False, False, (0.0, 0.3, None)),
    (CustomModel(jumps="compound-poisson:5,0.6"), True, True, (0.0, 0.3, (5.0, 0.6))),
    (CustomModel(jumps="compound-poisson:0,1"), False, False, (0.0, 0.3, None)),
], ids=repr)
def test_model_facts(model, jumps, finite, law):
    assert has_jumps(model) is jumps
    assert finite_activity(model) is finite
    assert compound_poisson_law(model) == law


def test_custom_model_rejects_malformed_specs():
    with pytest.raises(InvalidArgumentError):
        CustomModel(drift="linear:1", spot_vol="constant:0.3", jumps="none")
    with pytest.raises(InvalidArgumentError):
        CustomModel(drift="zero", spot_vol="constant:-0.3", jumps="none")
    with pytest.raises(InvalidArgumentError):
        CustomModel(drift="zero", spot_vol="constant:0.3", jumps="poisson")
    # Non-finite numbers: an infinite or NaN intensity would make the event
    # time loop run forever.
    for kw in ({"drift": "constant:nan"}, {"spot_vol": "constant:inf"},
               {"jumps": "compound-poisson:inf,0.5"},
               {"jumps": "compound-poisson:nan,0.5"},
               {"jumps": "compound-poisson:3,inf"}):
        with pytest.raises(InvalidArgumentError):
            CustomModel(**kw)


# ---------------------------------------------------------------------------
# one generator per thread, re-keyed for each path

RNG_DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(37),
    "normal": lambda rng: rng.normal(0.1, 0.6, 5),
    "exponential": lambda rng: np.array([rng.exponential(0.2) for _ in range(9)]),
    "standard_gamma": lambda rng: rng.standard_gamma(np.full(33, 0.004)),
}

# Draws that leave part of the Philox buffer, or a spare 32-bit half, unused.
PART_USED = {
    "nothing": lambda rng: None,
    "random_raw(3)": lambda rng: rng.bit_generator.random_raw(3),
    "uint32": lambda rng: rng.integers(0, 9, dtype=np.uint32),
}


@pytest.mark.parametrize("draw", sorted(RNG_DRAWS))
@pytest.mark.parametrize("before", sorted(PART_USED))
def test_rekeyed_generator_matches_a_new_one(before, draw):
    for seed in (0, 1, 2**64 - 1, path_seed(123456789, 7)):
        PART_USED[before](engines._path_rng(seed ^ 5))
        rekeyed, new = engines._path_rng(seed), engines.rng_from_seed(seed)
        for _ in range(2):
            assert np.array_equal(RNG_DRAWS[draw](rekeyed), RNG_DRAWS[draw](new))


def test_threads_simulating_interleaved_paths_match_a_serial_loop():
    g = build_irregular_grid(300, 1.0, 0.3, 4)
    jobs = [(model, seed) for seed in range(6)
            for model in (Model1(), Model2(), Model3(), CustomModel())]
    serial = [simulate(model, g, 2, seed) for model, seed in jobs]
    # More threads than cores start each of their paths together and switch
    # often, so their draws interleave.
    threads = 3
    barrier = threading.Barrier(threads, timeout=60)

    def run(share):
        out = []
        for model, seed in share:
            barrier.wait()
            out.append(simulate(model, g, 2, seed))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            shares = list(pool.map(run, (jobs[k::threads] for k in range(threads))))
    finally:
        sys.setswitchinterval(interval)
    threaded = [path for group in zip(*shares) for path in group]
    for a, b in zip(threaded, serial, strict=True):
        truth_a, truth_b = a.ground_truth, b.ground_truth
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(truth_a.continuous_part, truth_b.continuous_part)
        assert np.array_equal(truth_a.spot_variance, truth_b.spot_variance)
        assert np.array_equal(truth_a.jumps.times, truth_b.jumps.times)
        assert np.array_equal(truth_a.jumps.sizes, truth_b.jumps.sizes)
