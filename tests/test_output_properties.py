"""Property tests for the output files' byte contract.

Every CSV is built from NUL-padded cell slots, through serialize.write_csv
or, for detection.csv, its own chunk writer. These tests compare write_csv
on float, int and ASCII bytes columns, and detection.csv, against a
per-cell join, in tables of up to 12 rows and in tables from one row short
of the column length at which _float_slots leaves format() for its kernel
to more than two chunks. They also check that a path file reads back bit
for bit, that read_path_csv agrees with the per-line reader on any text,
and that hist.csv accounts for every sample.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpsift import (InvalidArgumentError, JumpDetectionResult, SamplePath, TimeGrid,
                      build_histogram)
from jumpsift import serialize
from jumpsift.serialize import (fmt_float, read_path_csv, write_csv, write_detection_csv,
                                write_histogram_csv, write_path_csv)

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
    if isinstance(v, bytes):
        return v.decode("ascii")
    return str(v)


@st.composite
def csv_columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bytes"]), min_size=1, max_size=5))
    columns, cells = [], []
    for kind in kinds:
        if kind == "float":
            values = draw(st.lists(any_float, min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.float64))
        elif kind == "int":
            values = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.int64))
        else:
            values = draw(st.lists(st.text("abc-_ .", max_size=4).map(str.encode),
                                   min_size=n, max_size=n))
            columns.append(np.array(values, dtype=np.bytes_))
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


# Quiet and signalling NaNs with payloads and either sign: all print as "nan".
NAN_PAYLOADS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                         0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64).view(np.float64).tolist()


@st.composite
def long_csv_columns(draw):
    """One to two chunks of rows, drawn from a small pool so values repeat
    within and across columns; the pool may hold 0.0 next to -0.0 and NaNs
    with payloads."""
    chunk = serialize._CSV_CHUNK_ROWS
    n = draw(st.integers(chunk - 2, 2 * chunk + 3))
    pool = draw(st.lists(st.one_of(any_float, st.sampled_from(NAN_PAYLOADS)),
                         min_size=1, max_size=12))
    pool += draw(st.sampled_from([[], [0.0, -0.0], NAN_PAYLOADS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "float", "int", "bytes"]),
                          min_size=1, max_size=5))
    columns, cells = [], []
    for kind in kinds:
        if kind == "float":
            column = np.array(pool)[rng.integers(len(pool), size=n)]
        elif kind == "int":
            column = rng.integers(-3, 3, size=n)
        else:
            column = np.array([b"", b"a", b"b-c"])[rng.integers(3, size=n)]
        columns.append(column)
        cells.append(column.tolist())
    return columns, cells


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(long_csv_columns())
def test_write_csv_matches_a_per_cell_join_across_chunks(tmp_path_factory, drawn):
    columns, cells = drawn
    header = [f"c{j}" for j in range(len(columns))]
    dest = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(dest), header, columns)
    rows = [",".join(reference_cell(v) for v in row) for row in zip(*cells)]
    assert dest.read_bytes() == ("\n".join([",".join(header), *rows]) + "\n").encode()


def _ulps(v: float, k: int) -> float:
    """v moved k doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


# Doubles next to where a 17-digit significand is hard to get right: powers
# of ten a few ulps off (floor(log10) is one off next to them), doubles
# nearest a 17-digit halfway decimal, m/2, m/4 and m/8 near 2**53 (some are
# exact ties), the certified range's edges, subnormals, zeros, NaNs with
# payloads and infinities; either sign.
TRICKY_FLOATS = st.tuples(st.one_of(
    st.builds(lambda e, k: _ulps(float(f"1e{e}"), k),
              st.integers(-40, 40), st.sampled_from([-3, -2, -1, 1, 2, 3])),
    st.builds(lambda d, e: float(f"{d}5e{e}"),
              st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-50, 15)),
    st.builds(lambda m, j: m / j, st.integers(2 ** 52, 2 ** 54), st.sampled_from([2, 4, 8])),
    st.builds(_ulps, st.sampled_from([1e-30, 1e30]), st.integers(-3, 3)),
    st.integers(1, 2 ** 52 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.sampled_from([0.0, math.inf, *NAN_PAYLOADS]),
    st.floats(),
), st.booleans()).map(lambda pair: -pair[0] if pair[1] else pair[0])


@st.composite
def vector_csv_columns(draw):
    """From one row short of serialize._KERNEL_MIN_VALUES to two chunks and
    three rows: float columns mixing a drawn pool of tricky doubles with
    random doubles of every exponent the certified range holds and random
    bit patterns, int64 columns over the whole range, and ASCII bytes
    columns."""
    n = draw(st.integers(serialize._KERNEL_MIN_VALUES - 1, 2 * serialize._CSV_CHUNK_ROWS + 3))
    pool = np.array(draw(st.lists(TRICKY_FLOATS, min_size=1, max_size=40)))
    ints = np.array(draw(st.lists(st.one_of(
        st.integers(-2 ** 63, 2 ** 63 - 1),
        st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0, -10 ** 18, 10 ** 18, 1 - 10 ** 18,
                         10 ** 18 - 1])), min_size=1, max_size=20)), dtype=np.int64)
    texts = np.array(draw(st.lists(st.text("a- _", max_size=4).map(str.encode), min_size=1,
                                   max_size=8)), dtype=np.bytes_)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "float", "int", "bytes"]),
                          min_size=1, max_size=5))
    columns, cells = [], []
    for kind in kinds:
        if kind == "float":
            column = np.where(rng.random(n) < 0.5, pool[rng.integers(pool.size, size=n)],
                              rng.standard_normal(n) * 10.0 ** rng.integers(-31, 31, n))
            bits = rng.random(n) < 0.1
            column[bits] = rng.integers(0, 2 ** 64, size=int(bits.sum()),
                                        dtype=np.uint64).view(np.float64)
        elif kind == "int":
            column = np.where(rng.random(n) < 0.5, ints[rng.integers(ints.size, size=n)],
                              rng.integers(-10 ** 6, 10 ** 6, n))
        else:
            column = texts[rng.integers(texts.size, size=n)]
        columns.append(column)
        cells.append(column.tolist())
    return columns, cells


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(vector_csv_columns())
def test_write_csv_of_a_long_table_matches_a_per_cell_join(tmp_path_factory, drawn):
    columns, cells = drawn
    header = [f"c{j}" for j in range(len(columns))]
    dest = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(str(dest), header, columns)
    rows = [",".join(reference_cell(v) for v in row) for row in zip(*cells)]
    assert dest.read_bytes() == ("\n".join([",".join(header), *rows]) + "\n").encode()


@st.composite
def long_detections(draw):
    """From one row short of serialize._KERNEL_MIN_VALUES to two chunks and
    three rows on a jittered grid, with observations of every scale and
    pairs of +-1.5e308 whose increments overflow to +-inf. No row, every row
    or a random share is flagged; in the last case each chunk's first and
    last rows are flagged too. The sizes are not the increments, so each
    must come from estimated_sizes."""
    n = draw(st.integers(serialize._KERNEL_MIN_VALUES - 1, 2 * serialize._CSV_CHUNK_ROWS + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = rng.uniform(1.0 - draw(st.sampled_from([0.0, 0.3, 0.9])), 1.0, n) / n
    times = np.r_[0.0, np.cumsum(steps)]
    xs = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-30, 30, n + 1)
    huge = rng.choice(n, size=draw(st.integers(0, 8)), replace=False)
    xs[huge] = rng.choice([-1.5e308, 1.5e308], huge.size)
    xs[huge + 1] = -xs[huge]
    share = draw(st.sampled_from([0.0, 1.0, 0.02, 0.2, 0.5]))
    flagged = rng.random(n) < share
    if 0 < share < 1:
        edges = np.arange(0, n, serialize._CSV_CHUNK_ROWS)
        flagged[edges] = flagged[np.minimum(edges + serialize._CSV_CHUNK_ROWS, n) - 1] = True
    sizes = rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n)
    sizes[rng.random(n) < 0.05] = np.inf
    return SamplePath(TimeGrid(times), xs), JumpDetectionResult(
        flagged, {i: sizes[i] for i in np.flatnonzero(flagged).tolist()})


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(long_detections())
def test_write_detection_csv_matches_a_per_cell_join(tmp_path_factory, drawn):
    path, det = drawn
    dest = tmp_path_factory.mktemp("det") / "detection.csv"
    write_detection_csv(path, det, str(dest))
    t, dx = path.grid.times.tolist(), path.increments.tolist()
    rows = [",".join([str(i), format(t[i], ".17g"), format(t[i + 1], ".17g"),
                      format(dx[i], ".17g"), str(int(f)),
                      fmt_float(det.estimated_sizes[i]) if f else ""])
            for i, f in enumerate(det.indicators.tolist())]
    header = "interval,t_left,t_right,dx,flagged,size_hat"
    assert dest.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()


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


# Cells numpy and float() might read differently: underscores, comment and
# quote marks, hex, non-ASCII digits, the 0x1c-0x1f separators (whitespace
# to numpy, not to float()), NUL, and spaces inside or around a number.
ODD_CELLS = ["nan", "-NaN", "+inf", "-Infinity", "1e999", "-1e-999", ".5", "5.", "1_0", "#1",
             '"1"', "'1'", "", " ", " 2 ", "\t3", "0x1p3", "1e", "1 2", "\u0661", "\xa01",
             "2\u2003", "\x1c1", "1\x1f", "1\x00", "abc"]
AFFIXES = [" ", "\t", "\xa0", "\u2003", "\x1c", "\x1f", "\x00", "_", "#", '"']
LINE_ENDS = ["\n", "\r\n", "\r"]
BLANK_LINES = ["", " ", "\t", "\x1c", "\xa0"]


@st.composite
def path_csv_texts(draw):
    """A path file with an optional BOM, any line ending, blank or
    whitespace-only lines anywhere and columns in any order with extras,
    then up to two defects: an odd cell, a prefix or suffix on a cell, a
    ragged row, a header without x, or fewer than two data rows."""
    header = draw(st.permutations(["time", "x", *draw(st.lists(
        st.sampled_from(["x_cont", "note", "time", " x"]), max_size=2))]))
    later = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                          min_size=1, max_size=6, unique=True))
    rows = []
    for t in [0.0, *sorted(later)]:
        t_cell = format(t, ".17g") if draw(st.booleans()) else repr(t)
        rows.append([t_cell if name == "time" else draw(any_float.map(repr)) for name in header])
    for defect in draw(st.lists(st.sampled_from(
            ["cell", "prefix", "suffix", "ragged", "no x", "short"]), max_size=2)):
        if defect == "no x":
            header = [name for name in header if name != "x"]
        elif defect == "short":
            rows = rows[:draw(st.integers(0, 1))]
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            j = draw(st.integers(0, len(row)))
            if defect == "ragged":
                row[j:] = draw(st.lists(st.sampled_from(ODD_CELLS), max_size=2))
            elif j < len(row):
                row[j] = {"cell": draw(st.sampled_from(ODD_CELLS)),
                          "prefix": draw(st.sampled_from(AFFIXES)) + row[j],
                          "suffix": row[j] + draw(st.sampled_from(AFFIXES))}[defect]
    lines = [",".join(header), *map(",".join, rows)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    end = draw(st.sampled_from(LINE_ENDS))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def read_outcome(reader, src):
    try:
        path = reader(src)
    except InvalidArgumentError as exc:
        return str(exc)
    return path.grid.times.tobytes(), path.observations.tobytes()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(path_csv_texts())
def test_read_path_csv_agrees_with_the_per_line_reader(tmp_path_factory, text):
    src = tmp_path_factory.mktemp("read") / "path.csv"
    src.write_bytes(text.encode("utf-8"))
    assert (read_outcome(read_path_csv, str(src))
            == read_outcome(serialize._read_path_csv_by_line, str(src)))


def test_read_path_csv_takes_bom_crlf_and_blank_lines_without_the_per_line_reader(
        tmp_path, monkeypatch):
    src = tmp_path / "path.csv"
    src.write_bytes(b"\xef\xbb\xbfx,time\r\n\r\n0.5,0\r\n-2.5e-3,0.25\r\n\r\n-0,0.75")
    monkeypatch.setattr(serialize, "_read_path_csv_by_line", None)
    path = read_path_csv(str(src))
    assert path.grid.times.tolist() == [0.0, 0.25, 0.75]
    xs = path.observations
    assert xs[:2].tolist() == [0.5, -2.5e-3] and xs[2] == 0.0 and np.signbit(xs[2])


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
