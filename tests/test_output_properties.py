"""Property tests for the output files' byte contract.

Every CSV is written column-wise through serialize.write_csv. These tests
compare it against a per-cell reference, and check that a path file reads
back bit for bit and that hist.csv accounts for every sample.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import SamplePath, TimeGrid, build_histogram
from jumpsift.serialize import read_path_csv, write_csv, write_histogram_csv, write_path_csv

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
finite_float = st.floats(allow_nan=False, allow_infinity=False)


def reference_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


@st.composite
def csv_columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "str"]), min_size=1, max_size=5))
    columns, cells = [], []
    for kind in kinds:
        if kind == "float":
            values = draw(st.lists(any_float, min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.float64))
        elif kind == "int":
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.int64))
        else:
            values = draw(st.lists(st.text("abc-_ .", max_size=4), min_size=n, max_size=n))
            columns.append(values)
        cells.append(values)
    return columns, cells


@PROPERTY
@given(csv_columns())
def test_write_csv_matches_a_per_cell_join(tmp_path_factory, drawn):
    columns, cells = drawn
    header = [f"c{j}" for j in range(len(columns))]
    dest = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(dest), header, columns)
    rows = [",".join(reference_cell(v) for v in row) for row in zip(*cells)]
    assert dest.read_bytes() == ("\n".join([",".join(header), *rows]) + "\n").encode()


@st.composite
def sample_paths(draw):
    later = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                          min_size=1, max_size=30, unique=True))
    times = np.array([0.0, *sorted(later)])
    xs = np.array(draw(st.lists(finite_float, min_size=times.size, max_size=times.size)))
    return SamplePath(TimeGrid(times), xs)


@PROPERTY
@given(sample_paths())
def test_path_csv_round_trip_is_bit_exact(tmp_path_factory, path):
    dest = str(tmp_path_factory.mktemp("path") / "path.csv")
    write_path_csv(path, dest)
    back = read_path_csv(dest)
    assert back.grid.times.tobytes() == path.grid.times.tobytes()
    assert back.observations.tobytes() == path.observations.tobytes()


@PROPERTY
@given(st.lists(st.floats(-1e6, 1e6), max_size=80), st.integers(1, 20),
       st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
def test_histogram_csv_counts_sum_to_the_sample_count(tmp_path_factory, samples,
                                                      bin_count, lo, width):
    hist = build_histogram(samples, bin_count, (lo, lo + width))
    dest = tmp_path_factory.mktemp("hist") / "hist.csv"
    write_histogram_csv(hist, str(dest))
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_left,bin_right,count" and len(lines) == bin_count + 3
    assert sum(int(ln.rsplit(",", 1)[1]) for ln in lines[1:]) == len(samples)
