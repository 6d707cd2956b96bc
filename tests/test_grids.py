import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import InvalidArgumentError, TimeGrid, build_irregular_grid, build_uniform_grid, refine
from jumpsift.grids import containing_intervals


def test_uniform_grid_basic():
    g = build_uniform_grid(2000, 1.0)
    assert g.n == 2000
    assert g.times[0] == 0.0
    assert g.times[-1] == 1.0
    assert g.t_end == 1.0
    assert math.isclose(g.h, 1.0 / 2000, rel_tol=1e-12)
    assert g.is_uniform


@pytest.mark.parametrize("n,t", [(4760, 1.0), (5065, 1.0), (9999, 1.0), (10000, 1.0),
                                 (200000, 1.0), (4349, 23.0)])
def test_uniform_grid_is_uniform_at_sizes_where_linspace_widths_spread(n, t):
    # linspace widths spread by more than _UNIFORM_RTOL * h at these sizes.
    g = build_uniform_grid(n, t)
    assert g.is_uniform
    assert TimeGrid(g.times.copy()).is_uniform is False


def test_uniform_grid_widths_sum_to_t():
    g = build_uniform_grid(733, 2.5)
    assert math.isclose(math.fsum(g.widths.tolist()), 2.5, rel_tol=1e-12)


@pytest.mark.parametrize("n,t", [(0, 1.0), (-3, 1.0), (10, 0.0), (10, -1.0)])
def test_uniform_grid_rejects_bad_args(n, t):
    with pytest.raises(InvalidArgumentError):
        build_uniform_grid(n, t)


def test_irregular_grid_increasing_and_bounded():
    g = build_irregular_grid(1000, 1.0, 0.5, seed=7)
    assert np.all(np.diff(g.times) > 0)
    assert g.h < 1.5 / 1000
    assert g.times[0] == 0.0
    assert g.times[-1] == 1.0
    assert not g.is_uniform


def test_irregular_grid_with_tiny_jitter_is_not_uniform():
    assert not build_irregular_grid(2000, 1.0, 1e-9, seed=7).is_uniform


# Horizons from the smallest normal double up: below it, T/n can fall under
# the subnormal spacing, where no n + 1 distinct times fit in [0, T].
@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(2, 5000),
       st.floats(2.0 ** -1022, sys.float_info.max),
       st.sampled_from([0.0, 1.0 - 2.0 ** -53]) | st.floats(0.0, 1.0, exclude_max=True),
       st.integers())
def test_irregular_grid_is_increasing_and_each_time_stays_near_its_node(n, t_end, jitter,
                                                                        seed):
    g = build_irregular_grid(n, t_end, jitter, seed)
    assert np.all(g.times[1:] > g.times[:-1])
    half = jitter * (t_end / n) / 2.0
    # linspace's last step and the spacing of the largest double overflow.
    with np.errstate(over="ignore"):
        nodes = np.linspace(0.0, t_end, n + 1)
        # Adding the offset to a node rounds once, by at most half its ulp.
        bound = half + np.spacing(nodes)
    assert np.all(np.abs(g.times - nodes) <= bound)


def test_irregular_grid_zero_jitter_is_uniform():
    a = build_irregular_grid(64, 1.0, 0.0, seed=3)
    b = build_uniform_grid(64, 1.0)
    assert np.array_equal(a.times, b.times)


def test_irregular_grid_deterministic_in_seed():
    a = build_irregular_grid(200, 1.0, 0.4, seed=11)
    b = build_irregular_grid(200, 1.0, 0.4, seed=11)
    c = build_irregular_grid(200, 1.0, 0.4, seed=12)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)


@pytest.mark.parametrize("jitter", [-0.1, 1.0, 1.5])
def test_irregular_grid_rejects_bad_jitter(jitter):
    with pytest.raises(InvalidArgumentError):
        build_irregular_grid(100, 1.0, jitter, seed=0)


def test_timegrid_validation():
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))       # must start at 0
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))  # strictly increasing
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0]))                 # need at least one interval
    with pytest.raises(InvalidArgumentError):
        TimeGrid(np.array([0.0, np.nan, 1.0]))


def test_refine_keeps_coarse_nodes_exactly():
    g = build_irregular_grid(50, 1.0, 0.6, seed=5)
    fine_times, fine_widths = refine(g, 4)
    assert fine_times.shape == (4 * 50 + 1,)
    # coarse nodes must appear bitwise, not just approximately
    assert np.array_equal(fine_times[::4], g.times)
    assert np.all(fine_widths > 0)
    assert math.isclose(math.fsum(fine_widths.tolist()), 1.0, rel_tol=1e-12)


def test_refine_identity_for_one_substep():
    g = build_uniform_grid(20, 1.0)
    fine_times, fine_widths = refine(g, 1)
    assert np.array_equal(fine_times, g.times)
    assert np.array_equal(fine_widths, g.widths)


# Jump matching in a run takes an event's observation interval as its
# substep index // substeps; this pins that identity on refined grids.
@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 300),
       st.sampled_from([1.0, 0.7, 3e-9, 2.5e6]),
       st.sampled_from([0.0, 0.99]) | st.floats(0.0, 1.0, exclude_max=True),
       st.integers(0, 2**64 - 1),
       st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_substep_interval_over_substeps_is_the_observation_interval(n, t_end, jitter, seed,
                                                                    substeps, draw_seed):
    g = build_irregular_grid(n, t_end, jitter, seed)
    fine_times, _ = refine(g, substeps)
    rng = np.random.default_rng(draw_seed)
    uniforms = rng.uniform(0.0, t_end, 64)
    uniforms[uniforms == 0.0] = t_end
    events = np.concatenate([uniforms, g.times, fine_times,
                             np.nextafter(fine_times, np.inf), np.nextafter(fine_times, 0.0)])
    got = containing_intervals(fine_times, events) // substeps
    assert np.array_equal(got, containing_intervals(g.times, events))


def test_refine_rejects_bad_substeps():
    g = build_uniform_grid(10, 1.0)
    with pytest.raises(InvalidArgumentError):
        refine(g, 0)
    with pytest.raises(InvalidArgumentError):
        refine(g, 2.5)
