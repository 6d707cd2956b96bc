import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import (
    SOURCE_FINITE_ACTIVITY,
    SOURCE_IA_SMALL,
    CustomModel,
    GroundTruth,
    InvalidArgumentError,
    JumpEvent,
    JumpTable,
    Model1,
    Model2,
    Model3,
    SamplePath,
    SpotVariancePath,
    ThresholdSpec,
    TimeGrid,
    build_uniform_grid,
    detect_jumps,
    jump_size_error_stat,
    path_seed,
    simulate,
)
from jumpsift import engines
from jumpsift.estimators import _containing_intervals, _jumpy_intervals
from jumpsift.grids import refine


# ---------------------------------------------------------------------------
# JumpTable as a read-only sequence of JumpEvent

def small_table():
    return JumpTable([0.2, 0.5, 0.9], [0.3, -0.1, 0.05], [0, 1, 0])


def test_table_reads_as_a_sequence_of_events():
    table = small_table()
    assert len(table) == 3
    events = list(table)
    assert all(isinstance(ev, JumpEvent) for ev in events)
    assert events[1] == JumpEvent(0.5, -0.1, SOURCE_IA_SMALL)
    assert table[0] == JumpEvent(0.2, 0.3, SOURCE_FINITE_ACTIVITY)
    assert table[-1] == JumpEvent(0.9, 0.05, SOURCE_FINITE_ACTIVITY)
    assert JumpEvent(0.5, -0.1, SOURCE_IA_SMALL) in table
    with pytest.raises(IndexError):
        table[3]


def test_table_equality_with_tables_and_tuples():
    table = small_table()
    as_tuple = tuple(table)
    assert table == as_tuple
    assert table == small_table()
    assert table == JumpTable.from_events(as_tuple)
    assert table != as_tuple[:2]
    assert table != JumpTable([0.2, 0.5, 0.9], [0.3, -0.1, 0.06], [0, 1, 0])
    assert JumpTable((), (), ()) == ()
    assert JumpTable.from_events(table) is table


def test_table_arrays_are_read_only():
    table = small_table()
    for arr in (table.times, table.sizes, table.codes):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert table.codes.dtype == np.int8


def test_ground_truth_converts_an_event_tuple():
    events = (JumpEvent(0.3, 0.4), JumpEvent(0.1, -0.2))
    truth = GroundTruth(SpotVariancePath(np.full(3, 0.09), 1), events, np.zeros(3))
    assert isinstance(truth.jumps, JumpTable)
    assert truth.jumps == events
    assert truth.jumps.times.tolist() == [0.3, 0.1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300])
def test_spot_variance_must_be_positive_and_finite(bad):
    for pos in (0, 2):
        values = np.full(3, 0.09)
        values[pos] = bad
        with pytest.raises(InvalidArgumentError, match="spot variance must be positive and finite"):
            SpotVariancePath(values, 1)
    assert SpotVariancePath(np.array([5e-324, 1.7976931348623157e308]), 1).values.size == 2
    assert SpotVariancePath(np.array([]), 1).values.size == 0


def test_table_validation_errors():
    with pytest.raises(InvalidArgumentError, match="unknown jump source"):
        JumpTable([0.1], [0.2], [2])
    with pytest.raises(InvalidArgumentError, match="unknown jump source"):
        JumpTable([0.1], [0.2], [-1])
    with pytest.raises(InvalidArgumentError, match="nonzero size"):
        JumpTable([0.1, 0.2], [0.2, 0.0], [1, 0])
    with pytest.raises(InvalidArgumentError, match="equal length"):
        JumpTable([0.1, 0.2], [0.2], [0, 0])
    # zero-size aggregate events are allowed; only finite-activity ones are not
    assert len(JumpTable([0.1], [0.0], [1])) == 1


def test_engines_build_tables():
    g = build_uniform_grid(100, 1.0)
    for model, source in ((Model1(), SOURCE_FINITE_ACTIVITY), (Model2(), SOURCE_FINITE_ACTIVITY),
                          (Model3(), SOURCE_IA_SMALL)):
        jumps = simulate(model, g, 2, 5).ground_truth.jumps
        assert isinstance(jumps, JumpTable) and len(jumps) > 0
        assert {ev.source for ev in jumps} == {source}


# ---------------------------------------------------------------------------
# memoized simulation subgrid

def test_subgrid_is_cached_and_read_only():
    g = build_uniform_grid(30, 1.0)
    for m in (1, 4):
        fine_times, fine_widths = engines._subgrid(g, m)
        assert engines._subgrid(g, m)[0] is fine_times
        want_times, want_widths = refine(g, m)
        assert np.array_equal(fine_times, want_times)
        assert np.array_equal(fine_widths, want_widths)
        for arr in (fine_times, fine_widths):
            with pytest.raises(ValueError):
                arr[0] = 1.0
    # the grid's own arrays stay writable
    g.widths[0] = g.widths[0]


# ---------------------------------------------------------------------------
# vectorized matching against the per-event loop it replaced

def oracle_interval(times, event_time):
    i = int(np.searchsorted(times, event_time, side="left")) - 1
    return min(max(i, 0), times.size - 2)


def oracle_match(times, flagged, sizes, true_jumps):
    per_interval = {}
    for ev in sorted(true_jumps, key=lambda e: e.time):
        per_interval.setdefault(oracle_interval(times, ev.time), []).append(ev.size)
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
    for ev in sorted(true_jumps, key=lambda e: e.time):
        first_sizes.setdefault(oracle_interval(path.grid.times, ev.time), ev.size)
    total = (math.fsum(detection.estimated_sizes.values())
             - math.fsum(first_sizes.values()))
    return math.sqrt(path.grid.n) * total


def bits(values):
    return [struct.pack("<d", v) for v in values]


def assert_matches_oracle(path, spec, events):
    det = detect_jumps(path, spec, events)
    m = det.match
    tp, fp, fn, errors, multi = oracle_match(path.grid.times, det.indicators,
                                             det.estimated_sizes, tuple(events))
    assert (m.true_positives, m.false_positives, m.false_negatives) == (tp, fp, fn)
    assert all(type(e) is float for e in m.size_errors)
    assert bits(m.size_errors) == bits(errors)
    assert all(type(i) is int for i in m.multi_jump_intervals)
    assert m.multi_jump_intervals == multi
    if path.grid.is_uniform:
        got = jump_size_error_stat(path, det, events)
        assert bits([got]) == bits([oracle_jump_size_error_stat(path, det, tuple(events))])
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
    (JumpEvent(0.25, 0.4), JumpEvent(0.75, 0.6)),
    # two events in one interval, given out of time order, and a tie in time
    (JumpEvent(0.7, 0.3), JumpEvent(0.6, 0.5), JumpEvent(0.6, -0.2), JumpEvent(0.1, 0.45)),
    # first and last interval, including the end points 0 and T
    (JumpEvent(0.0, 0.1), JumpEvent(0.01, 0.45), JumpEvent(1.0, 0.2), JumpEvent(0.99, -0.3)),
    # many ties in time: the first jump of an interval is the first in table order
    tuple(JumpEvent((0.6, 0.3, 0.8)[k % 3], 0.01 * (k + 1)) for k in range(40)),
    (),
])
@pytest.mark.parametrize("spec", SPECS)
def test_vectorized_matching_equals_loop_on_hand_cases(events, spec):
    assert_matches_oracle(hand_path(), spec, events)
    assert_matches_oracle(hand_path(), spec, JumpTable.from_events(events))


def test_hand_case_values():
    # flags intervals 0 and 2 at c=0.1 (r = 0.1 * 0.25^0.9 ~ 0.029)
    path = hand_path()
    events = (JumpEvent(0.25, 0.4), JumpEvent(0.6, 0.5), JumpEvent(0.7, 0.3))
    m = detect_jumps(path, ThresholdSpec(0.9, 0.1), events).match
    assert (m.true_positives, m.false_positives, m.false_negatives) == (2, 0, 0)
    assert m.multi_jump_intervals == (2,)
    assert m.size_errors == (0.5 - 0.4,)


def test_irregular_grid_matching_equals_loop():
    times = np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.0])
    path = SamplePath(TimeGrid(times), np.array([0.0, 0.3, 0.31, 0.9, 0.91, 0.5]))
    events = (JumpEvent(0.05, 0.3), JumpEvent(0.4, 0.6), JumpEvent(0.9, -0.2),
              JumpEvent(0.95, -0.2))
    for spec in SPECS:
        assert_matches_oracle(path, spec, events)


def bincount_jumpy_intervals(times, jumps):
    """The O(n) form _jumpy_intervals replaced: a count for every interval."""
    order = np.argsort(jumps.times, kind="stable")
    counts = np.bincount(_containing_intervals(times, jumps.times[order]),
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
    return times, JumpTable(event_times, sizes, [0] * len(event_times))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(grids_and_tables())
def test_run_length_matching_equals_the_bincount_form(case):
    times, table = case
    got = _jumpy_intervals(times, table)
    want = bincount_jumpy_intervals(times, table)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
