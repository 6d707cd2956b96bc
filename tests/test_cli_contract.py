"""Property test for the CLI failure contract.

Every invocation of cli.main ends with exit code 0, 2 or 3. A non-zero exit
raises nothing out of main (so no traceback), ends stderr with a line that
starts with "jumpsift", and writes no manifest.json.

Flags, config files and path CSVs are drawn from pools of bad values: zero,
negative, huge, non-finite, non-numeric and empty numbers, hex numbers for
float keys, malformed config keys and ids, and CSV bytes a reader must
refuse. A hex integer is valid, as in a config file, so the int keys draw
small ones among their valid values. The valid values in the pools keep
every run small: --paths at most 4 and --n at most 100, so no draw runs
long or forks more than 3 children. A huge --paths is a valid request that
simply runs for a long time, so it is not drawn.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpsift.cli import main
from jumpsift.config import RUN_PARAMETERS

HUGE_INT = "99999999999999999999"
BAD_VALUES = ("0", "-1", "1e308", "nan", "inf", "-inf", "abc", "")

# (valid, bad) flag values per RUN_PARAMETERS key.
FLAG_POOLS = {
    "n": (("2", "30", "100", "0x3"), (*BAD_VALUES, HUGE_INT, "1")),
    "paths": (("2", "3", "4", "0x2"), (*BAD_VALUES, "1")),
    "beta": (("0.5", "0.9", "0.99"), (*BAD_VALUES, HUGE_INT, "0x1f")),
    "scale_c": (("0.1", "1"), (*BAD_VALUES, HUGE_INT, "0x1f")),
    "substeps": (("1", "3", "0x3"), (*BAD_VALUES, HUGE_INT)),
    "jitter": (("0", "0.3"), (*BAD_VALUES, HUGE_INT, "0.999999", "0x1f")),
    "parallelism": (("1", "2", "0x2"), (*BAD_VALUES, HUGE_INT)),
    "seed": (("7", "-5", "0x1f"), (*BAD_VALUES, HUGE_INT)),
}
FLAG_KEYS = tuple(p.key for p in RUN_PARAMETERS if p.help is not None)
ALWAYS_PASSED = ("n", "paths")

PRESETS = (("model1-desk", "model2-desk", "model3-desk", "diffusion-desk"), ("no-such-preset",))

CUSTOM = b"model = custom\n"
# (valid, bad) config-file lines naming the model, and (valid, bad) others.
MODEL_LINES = (
    (b"model = model1", b"model = model2", b"model = model3", CUSTOM + b"jumps = none",
     CUSTOM + b"jumps = compound-poisson:3,0.5\ndrift = constant:0.2"),
    (CUSTOM + b"jumps = compound-poisson:1e300,0.5", CUSTOM + b"jumps = compound-poisson:nan,0.5",
     CUSTOM + b"jumps = compound-poisson:-1,0.5", CUSTOM + b"jumps = poisson",
     CUSTOM + b"spot_vol = constant:-0.3", CUSTOM + b"spot_vol = constant:inf",
     CUSTOM + b"drift = linear:1", b"model = model9", b"model = model1\xff",
     b"jumps = none"),
)
OTHER_LINES = (
    (b"t = 2", b"n = 5", b"paths = 3", b"beta = 0.7", b"preset = model3-desk",
     b"# comment only"),
    (b"t = 0", b"t = -1", b"t = nan", b"t = 0x1", b"t = 1e-310", b"preset = nope",
     b"unknown_key = 1", b"no equals sign", b"seed =", b"schema_version = 2",
     b"n = 5\nn = 6"),
)

CSV_HEADERS = ((b"time,x", b"\xef\xbb\xbftime,x"), (b"time,x,x_cont", b"t,x", b""))
CSV_ROWS = (
    (b"0.25,-0.2", b"0.5,0.1", b"0.75,0.15", b"1,0.3"),
    (b"0.75,nan", b"1,inf", b"0,0,0", b"0.5", b"0.5,abc", b"0.5,", b"1,\xe9", b"0.5,0\x00",
     b"0.5\x1c,0.1", b"0.5,0.1\x1d", b"\x1e", b"0.5,0.1\x1f", b"-0.5,0", b"0.5,0.2"),
)


@st.composite
def config_bytes(draw, bad):
    fault = draw(st.sampled_from(["schema", "model", "other"])) if bad else None
    lines = [] if fault == "schema" else [b"schema_version = 1"]
    if fault == "model" or draw(st.booleans()):
        lines.append(draw(st.sampled_from(MODEL_LINES[fault == "model"])))
    lines += draw(st.lists(st.sampled_from(OTHER_LINES[0]), max_size=2, unique=True))
    if fault == "other":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(OTHER_LINES[1])))
    return b"".join(line + b"\n" for line in lines)


@st.composite
def csv_bytes(draw, bad):
    header = draw(st.sampled_from(CSV_HEADERS[0]))
    rows = [b"0,0", *draw(st.lists(st.sampled_from(CSV_ROWS[0]), min_size=1, max_size=4,
                                   unique=True))]
    rows.sort(key=lambda row: float(row.split(b",")[0]))
    if bad:
        kind = draw(st.sampled_from(["header", "row", "short"]))
        if kind == "header":
            header = draw(st.sampled_from(CSV_HEADERS[1]))
        elif kind == "row":
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(CSV_ROWS[1])))
        else:
            rows = rows[:1]
    return b"\n".join([header, *rows]) + b"\n"


@st.composite
def invocations(draw):
    """argv, config-file bytes (or None) and path-CSV bytes (or None), with
    bad values at no more than two drawn places."""
    command = draw(st.sampled_from(["simulate", "estimate", "detect", "mc", "compare"]))
    faults = draw(st.lists(st.sampled_from([*FLAG_KEYS, "preset", "config", "csv"]),
                           max_size=2))
    argv = [command]
    for key in FLAG_KEYS:
        if key in faults or key in ALWAYS_PASSED or draw(st.booleans()):
            values = FLAG_POOLS[key][key in faults]
            argv.append(f"--{key.replace('_', '-')}={draw(st.sampled_from(values))}")
    if "preset" in faults or draw(st.booleans()):
        argv.append("--preset=" + draw(st.sampled_from(PRESETS["preset" in faults])))
    config = None
    if "config" in faults or draw(st.booleans()):
        config = draw(config_bytes("config" in faults))
    csv = None
    if command in ("estimate", "detect"):
        csv = draw(csv_bytes("csv" in faults))
    return argv, config, csv


HUGE_INTENSITY = b"schema_version = 1\n" + MODEL_LINES[1][0] + b"\n"
# Lags of 1e300, at which a threshold c * h**2 passes the largest double.
HUGE_LAGS = b"time,x\n0,0\n1e300,1\n2e300,3\n"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(invocations())
@example((["simulate", "--n=30", "--paths=2"], HUGE_INTENSITY, None))
@example((["mc", "--n=30", "--paths=4", "--parallelism=2"], HUGE_INTENSITY, None))
# Finite squares whose sum overflows: every kernel row is non-negative, so +inf.
@example((["estimate"], None, b"time,x\n0,0\n0.25,1e154\n0.5,0\n0.75,1e154\n1,0\n"))
# Inadmissible thresholds that are evaluated; the drawn ones rarely are.
@example((["mc", "--n=30", "--paths=4", "--beta=1"], None, None))
@example((["estimate", "--beta=0"], None, b"time,x\n0,0\n0.5,0.1\n1,0.05\n"))
@example((["detect", "--beta=2"], None, HUGE_LAGS))
def test_every_invocation_exits_0_2_or_3_with_a_message(case):
    argv, config, csv = case
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            with open(os.path.join(tmp, "run.cfg"), "wb") as fh:
                fh.write(config)
            argv = [*argv, "--config", os.path.join(tmp, "run.cfg")]
        if csv is not None:
            with open(os.path.join(tmp, "path.csv"), "wb") as fh:
                fh.write(csv)
            argv = [*argv, "--in", os.path.join(tmp, "path.csv")]
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            # No warning escapes the CLI as an exception; an inadmissible
            # threshold still warns in one line and runs.
            warnings.simplefilter("error")
            code = main([*argv, "--out", out])
        assert code in (0, 2, 3)
        if code != 0:
            lines = err.getvalue().splitlines()
            assert lines and lines[-1].startswith("jumpsift")
            assert "Traceback" not in err.getvalue()
            assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("command", ["estimate", "detect"])
def test_a_threshold_past_the_largest_double_flags_nothing(command, tmp_path):
    src = tmp_path / "p.csv"
    src.write_bytes(HUGE_LAGS)
    res = subprocess.run(
        [sys.executable, "-m", "jumpsift.cli", command, "--in", str(src), "--beta", "2",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONWARNINGS": "error",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == [
        "jumpsift: warning: inadmissible threshold: h*log(1/h)/r(h) ~ h^-1.0*log(1/h)"
        " diverges as h -> 0"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["threshold_at_h"] is None
    assert report["flagged_intervals"] == []
