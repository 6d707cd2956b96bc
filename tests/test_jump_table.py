import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import (
    CustomModel,
    ExperimentConfig,
    InvalidArgumentError,
    JumpTable,
    Model1,
    Model2,
    Model3,
    SamplePath,
    ThresholdSpec,
    TimeGrid,
    build_uniform_grid,
    detect_jumps,
    jump_size_error_stat,
    path_seed,
    run_experiment,
    simulate,
)
from jumpsift import montecarlo
from jumpsift.engines import simulation_plan
from jumpsift.estimators import _jumpy_intervals
from jumpsift.grids import containing_intervals, refine


# ---------------------------------------------------------------------------
# JumpTable: two read-only arrays

def test_table_arrays_are_read_only():
    table = JumpTable([0.2, 0.5, 0.9], [0.3, -0.1, 0.05])
    assert len(table) == 3
    for arr in (table.times, table.sizes):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 1


SPOT_ERROR = "spot variance must be positive and finite"


@pytest.mark.parametrize("model_cls", [Model1, Model3])
def test_plan_rejects_a_constant_spot_variance_out_of_range(model_cls):
    grid = build_uniform_grid(20, 1.0)
    for sigma in (1e200, 1e-200):  # sigma^2 overflows to inf, underflows to 0
        with pytest.raises(InvalidArgumentError, match=SPOT_ERROR):
            simulation_plan(model_cls(sigma=sigma), grid, 1)
    for sigma in (1e-160, 1e154):  # a subnormal and a near-maximal sigma^2
        simulation_plan(model_cls(sigma=sigma), grid, 1)


def test_model2_path_rejects_spot_variance_out_of_range():
    grid = build_uniform_grid(20, 1.0)
    with pytest.raises(InvalidArgumentError, match=SPOT_ERROR):
        simulate(Model2(h0=-400.0, h_bar=-400.0), grid, 1, 7)  # exp(2H) underflows to 0
    with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match=SPOT_ERROR):
        simulate(Model2(h0=400.0, h_bar=400.0), grid, 1, 7)  # exp(2H) overflows to inf


def test_table_validation_errors():
    with pytest.raises(InvalidArgumentError, match="equal length"):
        JumpTable([0.1, 0.2], [0.2])
    with pytest.raises(InvalidArgumentError, match="1-D"):
        JumpTable([[0.1]], [[0.2]])
    assert len(JumpTable((), ())) == 0
    for times, sizes in (([math.nan], [0.1]), ([0.5], [math.inf]), ([-math.inf], [0.1])):
        with pytest.raises(InvalidArgumentError, match="^jump times and sizes must be finite$"):
            JumpTable(times, sizes)
    assert repr(JumpTable([0.2, 0.5], [0.1, 0.3])) == "JumpTable(2 events)"


# A true jump at time t lies in the interval (t_i, t_{i+1}] holding t, so a
# time outside (0, T] lies in none.
@pytest.mark.parametrize("time", [-1.0, 0.0, -0.0, math.nextafter(1.0, 2.0), 2.0])
def test_matching_rejects_a_true_jump_outside_the_grid(time):
    path = hand_path()
    det = detect_jumps(path, SPECS[0], JumpTable([0.5], [0.7]))
    table = JumpTable([0.5, time], [0.7, 0.2])
    message = re.escape(f"true jump times must lie in (0, T] = (0, 1.0], got {time!r}")
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        detect_jumps(path, SPECS[0], table)
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        jump_size_error_stat(path, det, table)


def test_engines_build_tables():
    g = build_uniform_grid(100, 1.0)
    for model in (Model1(), Model2(), Model3()):
        jumps = simulate(model, g, 2, 5).ground_truth.jumps
        assert isinstance(jumps, JumpTable) and len(jumps) > 0
        assert np.all(jumps.sizes != 0.0)


# ---------------------------------------------------------------------------
# the run plan's simulation subgrid

def test_plan_subgrid_is_read_only_and_shared_by_every_path(monkeypatch):
    seen = []
    simulate_path = montecarlo._simulate_path

    def spy(plan, index):
        seen.append(plan.sim)
        return simulate_path(plan, index)

    monkeypatch.setattr(montecarlo, "_simulate_path", spy)
    for m in (1, 4):
        seen.clear()
        run_experiment(ExperimentConfig(Model2(), ThresholdSpec(0.9), n=30, substeps=m,
                                        n_paths=3))
        assert len(seen) == 3
        sim = seen[0]
        fine_times, fine_widths = sim.fine_times, sim.fine_widths
        assert all(s.fine_times is fine_times and s.fine_widths is fine_widths
                   for s in seen)
        g = sim.grid
        want_times, want_widths = refine(g, m)
        assert np.array_equal(fine_times, want_times)
        assert np.array_equal(fine_widths, want_widths)
        for arr in (fine_times, fine_widths):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the grid's own arrays stay writable
        g.widths[0] = g.widths[0]
        g.times[0] = g.times[0]


# ---------------------------------------------------------------------------
# vectorized matching against the per-event loop it replaced

def oracle_interval(times, event_time):
    i = int(np.searchsorted(times, event_time, side="left")) - 1
    return min(max(i, 0), times.size - 2)


def events_in_time_order(true_jumps):
    return sorted(zip(true_jumps.times.tolist(), true_jumps.sizes.tolist()),
                  key=lambda ev: ev[0])


def oracle_match(times, flagged, sizes, true_jumps):
    per_interval = {}
    for t, size in events_in_time_order(true_jumps):
        per_interval.setdefault(oracle_interval(times, t), []).append(size)
    tp = fn = 0
    errors, multi = [], []
    for i, jump_sizes in per_interval.items():
        if len(jump_sizes) > 1:
            multi.append(i)
        if flagged[i]:
            tp += 1
            if len(jump_sizes) == 1:
                errors.append(sizes[i] - jump_sizes[0])
        else:
            fn += 1
    fp = int(np.count_nonzero(flagged)) - tp
    return tp, fp, fn, tuple(errors), tuple(sorted(multi))


def oracle_jump_size_error_stat(path, detection, true_jumps):
    first_sizes = {}
    for t, size in events_in_time_order(true_jumps):
        first_sizes.setdefault(oracle_interval(path.grid.times, t), size)
    total = (math.fsum(detection.estimated_sizes.values())
             - math.fsum(first_sizes.values()))
    return math.sqrt(path.grid.n) * total


def bits(values):
    return [struct.pack("<d", v) for v in values]


def assert_matches_oracle(path, spec, events):
    det = detect_jumps(path, spec, events)
    m = det.match
    tp, fp, fn, errors, multi = oracle_match(path.grid.times, det.indicators,
                                             det.estimated_sizes, events)
    assert (m.true_positives, m.false_positives, m.false_negatives) == (tp, fp, fn)
    assert all(type(e) is float for e in m.size_errors)
    assert bits(m.size_errors) == bits(errors)
    assert all(type(i) is int for i in m.multi_jump_intervals)
    assert m.multi_jump_intervals == multi
    if path.grid.is_uniform:
        got = jump_size_error_stat(path, det, events)
        assert bits([got]) == bits([oracle_jump_size_error_stat(path, det, events)])
    return m


SPECS = (ThresholdSpec(0.9), ThresholdSpec(0.9, 0.05), ThresholdSpec(0.5, 0.3),
         ThresholdSpec(0.9, 1e-6))


@pytest.mark.parametrize("model,substeps", [
    (Model1(), 1),
    (Model1(jump_intensity=80.0), 3),
    (Model2(), 1),
    (Model2(jump_intensity=60.0), 2),
    (CustomModel(jumps="compound-poisson:40,0.5"), 1),
    (CustomModel(drift="constant:0.2", spot_vol="constant:0.2",
                 jumps="compound-poisson:150,0.3"), 2),
])
def test_vectorized_matching_equals_loop_on_simulated_paths(model, substeps):
    g = build_uniform_grid(50, 1.0)
    saw_multi = False
    for i in range(15):
        path = simulate(model, g, substeps, path_seed(77, i))
        for spec in SPECS:
            m = assert_matches_oracle(path, spec, path.ground_truth.jumps)
            saw_multi |= bool(m.multi_jump_intervals)
    if len(path.ground_truth.jumps) > 50:
        assert saw_multi


def hand_path():
    return SamplePath(build_uniform_grid(4, 1.0), np.array([0.0, 0.5, 0.52, 1.2, 1.21]))


@pytest.mark.parametrize("events", [
    # exactly on interior grid times: each belongs to the interval it closes
    ([0.25, 0.75], [0.4, 0.6]),
    # two events in one interval, given out of time order, and a tie in time
    ([0.7, 0.6, 0.6, 0.1], [0.3, 0.5, -0.2, 0.45]),
    # first and last interval, including the end points: the least time after 0, and T
    ([5e-324, 0.01, 1.0, 0.99], [0.1, 0.45, 0.2, -0.3]),
    # many ties in time: the first jump of an interval is the first in table order
    ([(0.6, 0.3, 0.8)[k % 3] for k in range(40)], [0.01 * (k + 1) for k in range(40)]),
    ((), ()),
])
@pytest.mark.parametrize("spec", SPECS)
def test_vectorized_matching_equals_loop_on_hand_cases(events, spec):
    assert_matches_oracle(hand_path(), spec, JumpTable(*events))


def test_hand_case_values():
    # flags intervals 0 and 2 at c=0.1 (r = 0.1 * 0.25^0.9 ~ 0.029)
    path = hand_path()
    events = JumpTable([0.25, 0.6, 0.7], [0.4, 0.5, 0.3])
    m = detect_jumps(path, ThresholdSpec(0.9, 0.1), events).match
    assert (m.true_positives, m.false_positives, m.false_negatives) == (2, 0, 0)
    assert m.multi_jump_intervals == (2,)
    assert m.size_errors == (0.5 - 0.4,)


def test_irregular_grid_matching_equals_loop():
    times = np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.0])
    path = SamplePath(TimeGrid(times), np.array([0.0, 0.3, 0.31, 0.9, 0.91, 0.5]))
    events = JumpTable([0.05, 0.4, 0.9, 0.95], [0.3, 0.6, -0.2, -0.2])
    for spec in SPECS:
        assert_matches_oracle(path, spec, events)


def bincount_jumpy_intervals(times, jumps):
    """The O(n) form _jumpy_intervals replaced: a count for every interval."""
    order = np.argsort(jumps.times, kind="stable")
    counts = np.bincount(containing_intervals(times, jumps.times[order]),
                         minlength=times.size - 1)
    jumpy = np.flatnonzero(counts)
    first = (np.cumsum(counts) - counts)[jumpy]
    return jumpy, counts[jumpy], jumps.sizes[order][first]


@st.composite
def grids_and_tables(draw):
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        times = build_uniform_grid(n, 1.0).times
    else:
        inner = draw(st.lists(st.floats(0.001, 0.999), min_size=n - 1, max_size=n - 1,
                              unique=True))
        times = np.array([0.0, *sorted(inner), 1.0])
    # Event times come from a small pool holding every grid node, so equal
    # times and times on nodes are common.
    pool = st.one_of(st.sampled_from(times.tolist()), st.floats(0.0, 1.0))
    event_times = draw(st.lists(pool, max_size=10))
    event_times += draw(st.lists(st.sampled_from(event_times), max_size=4)) if event_times else []
    sizes = draw(st.lists(st.floats(-1.0, 1.0).filter(bool), min_size=len(event_times),
                          max_size=len(event_times)))
    return times, JumpTable(event_times, sizes)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(grids_and_tables())
def test_run_length_matching_equals_the_bincount_form(case):
    times, table = case
    got = _jumpy_intervals(times, table)
    want = bincount_jumpy_intervals(times, table)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
