import dataclasses
import json
import math
import os
import platform
import re
import sys
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from jumpsift import (
    AdmissibilityWarning,
    ConfigError,
    InvalidArgumentError,
    Model1,
    Model2,
    Model3,
    CustomModel,
    PoissonMixtureCdf,
    SamplePath,
    ThresholdSpec,
    TimeGrid,
    build_histogram,
    build_irregular_grid,
    build_uniform_grid,
    detect_jumps,
    estimation_report,
    path_seed,
    refine,
    simulate,
    small_jump_bias_bound,
    threshold_realized_variance,
)
from jumpsift import cli, montecarlo
from jumpsift.errors import DegenerateSizeError
from jumpsift.estimators import JumpDetectionResult
from jumpsift.cli import _settings_echo, _settings_from_args, build_parser, main, replay_manifest
from jumpsift.models import MODEL_CLASSES
from jumpsift.config import (
    DEFAULT_BASE_SEED,
    RUN_PARAMETERS,
    ExperimentConfig,
    RunSettings,
    load_config_file,
    merge_settings,
    preset_values,
    resolve_seed,
)
from jumpsift.serialize import (
    _json_escape,
    dumps_json,
    file_sha256,
    fmt_float,
    model_to_dict,
    read_path_csv,
    report_to_dict,
    write_csv,
    write_detection_csv,
    write_histogram_csv,
    write_path_csv,
)

SPEC09 = ThresholdSpec(0.9, 1.0)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tiny_path():
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    xs = np.array([0.0, 0.1, 0.1, 0.6, 0.65])
    return SamplePath(TimeGrid(times), xs)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """simulate --n 20000 into sim/, then detect on its path.csv into det/;
    the tests that share it write nothing there."""
    out = tmp_path_factory.mktemp("long")
    assert main(["simulate", "--n", "20000", "--seed", "8", "--out", str(out / "sim")]) == 0
    assert main(["detect", "--in", str(out / "sim" / "path.csv"),
                 "--out", str(out / "det")]) == 0
    return out


# ---------------------------------------------------------------------------
# serialization primitives

def test_fmt_float_round_trips():
    for x in (0.1, -1.0 / 3.0, 1e-300, 2.0 ** -1074, 6.02e23, 0.0, -0.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(math.nan) == "nan"
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"


def test_dumps_json_shape_and_round_trip():
    obj = {
        "b_first": 2,
        "a_second": [1.5, None, True],
        "text": 'quote " backslash \\ tab \t',
        "bad": math.nan,
        "empty": {},
    }
    text = dumps_json(obj)
    assert text.endswith("\n") and "\r" not in text
    # insertion order is kept, not sorted
    assert text.index("b_first") < text.index("a_second")
    back = json.loads(text)
    assert back["bad"] is None
    assert back["a_second"] == [1.5, None, True]
    assert back["text"] == obj["text"]
    with pytest.raises(InvalidArgumentError):
        dumps_json({"x": object()})
    with pytest.raises(InvalidArgumentError, match="^json keys must be strings$"):
        dumps_json({1: 2})


def loop_json_escape(s: str) -> str:
    """The per-character escaper _json_escape replaced, kept as the oracle."""
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def test_json_escape_matches_the_per_character_loop():
    texts = [chr(c) for c in range(0x80)]
    texts += ["".join(chr(c) for c in range(0x80)), "", "plain", "é ü ß € 漢字 \U0001f600",
              "\x85\xa0\u2003\u2028\ufeff", 'mix "é"\\\n\x00\x1f\x7f\U0010ffff']
    for text in texts:
        assert _json_escape(text) == loop_json_escape(text)
        assert json.loads(f'"{_json_escape(text)}"') == text


# ---------------------------------------------------------------------------
# path files

def test_path_csv_round_trip_bitwise(tmp_path):
    grid = build_uniform_grid(64, 1.0)
    path = simulate(Model1(), grid, 1, path_seed(99, 0))
    dest = str(tmp_path / "p.csv")
    write_path_csv(path, dest)

    with open(dest, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    header = raw.decode().splitlines()[0]
    assert header == "time,x,x_cont,jump_cum,sigma2"

    back = read_path_csv(dest)
    assert np.array_equal(back.grid.times, path.grid.times)
    assert np.array_equal(back.observations, path.observations)
    assert back.ground_truth is None

    cols = np.loadtxt(dest, delimiter=",", skiprows=1)
    x, x_cont, jump_cum = cols[:, 1], cols[:, 2], cols[:, 3]
    assert np.max(np.abs(x_cont + jump_cum - x)) < 1e-12
    assert np.all(cols[:, 4] > 0.0)


def test_read_path_csv_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,y\n0,1\n1,2\n")
    with pytest.raises(InvalidArgumentError):
        read_path_csv(str(bad))
    short = tmp_path / "short.csv"
    short.write_text("time,x\n0,1\n")
    with pytest.raises(InvalidArgumentError):
        read_path_csv(str(short))


@pytest.mark.parametrize("suffix", [".bz2", ".gz", ".xz", ".lzma"])
def test_read_path_csv_reads_text_named_like_an_archive(tmp_path, suffix):
    # numpy would decompress a file by these suffixes; a path file is text.
    src = tmp_path / f"path.csv{suffix}"
    src.write_text("time,x\n0,1\n0.5,-2\n1,3.25\n")
    back = read_path_csv(str(src))
    assert back.grid.times.tolist() == [0.0, 0.5, 1.0]
    assert back.observations.tolist() == [1.0, -2.0, 3.25]


def test_read_path_csv_reads_a_url_shaped_name_locally(tmp_path, monkeypatch):
    # numpy fetches "scheme://host/..." names by URL; this one is a local file.
    def no_network(*args, **kwargs):
        raise AssertionError("read_path_csv opened a URL")
    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "h").mkdir(parents=True)
    (tmp_path / "http:" / "h" / "p.csv").write_text("time,x\n0,1\n0.5,-2\n1,3.25\n")
    back = read_path_csv("http://h/p.csv")
    assert back.observations.tolist() == [1.0, -2.0, 3.25]
    assert sorted(os.listdir(tmp_path)) == ["http:"]


# ---------------------------------------------------------------------------
# detection and histogram files

def test_detection_csv_rows(tmp_path, long_run):
    path = tiny_path()
    det = detect_jumps(path, ThresholdSpec(0.9, 0.1))
    dest = str(tmp_path / "det.csv")
    write_detection_csv(path, det, dest)
    lines = Path(dest).read_text().splitlines()
    assert lines[0] == "interval,t_left,t_right,dx,flagged,size_hat"
    assert len(lines) == 1 + 4
    cells = [ln.split(",") for ln in lines[1:]]
    flagged = [c for c in cells if c[4] == "1"]
    quiet = [c for c in cells if c[4] == "0"]
    assert len(flagged) == 1 and flagged[0][0] == "2"
    assert float(flagged[0][5]) == 0.5
    assert all(c[5] == "" for c in quiet)

    # The long detect run's file, rebuilt cell by cell from its path.csv and
    # report.json with float(), format(v, ".17g") and str() only.
    header, *rows = [ln.split(",") for ln in
                     (long_run / "sim" / "path.csv").read_text().splitlines()]
    t, x = ([float(r[header.index(name)]) for r in rows] for name in ("time", "x"))
    report = load_json(long_run / "det" / "report.json")
    sizes = {e["interval"]: format(e["size_hat"], ".17g")
             for e in report["jump_size_estimates"]}
    assert sizes and len(sizes) == report["n_flagged"]

    def g(v):
        return format(v, ".17g")

    want = [lines[0]] + [
        ",".join([str(i), g(t[i]), g(t[i + 1]), g(x[i + 1] - x[i]),
                  str(int(i in sizes)), sizes.get(i, "")])
        for i in range(len(t) - 1)]
    got = (long_run / "det" / "detection.csv").read_bytes()
    assert got == ("\n".join(want) + "\n").encode()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    dest = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"^columns differ in length: \[2, 3\]$"):
        write_csv(str(dest), ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert not dest.exists()


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("extra", [-1, 1])
def test_write_detection_csv_rejects_indicators_of_another_length(tmp_path, n, extra):
    path = SamplePath(TimeGrid(np.linspace(0.0, 1.0, n + 1)), np.zeros(n + 1))
    indicators = np.zeros(n + extra, dtype=bool)
    indicators[-1] = True
    dest = tmp_path / "det.csv"
    with pytest.raises(ValueError, match="columns differ in length"):
        write_detection_csv(path, JumpDetectionResult(indicators, {n + extra - 1: 0.5}), str(dest))
    assert not dest.exists()


def test_histogram_csv_layout(tmp_path):
    hist = build_histogram(np.array([-9.0, 0.0, 0.1, 9.0, 9.5]), 8, (-4.0, 4.0))
    dest = str(tmp_path / "h.csv")
    write_histogram_csv(hist, dest)
    lines = Path(dest).read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 1 + 8 + 2
    assert lines[1].startswith("-inf,")
    assert lines[-1].split(",")[1] == "inf"
    counts = [int(ln.split(",")[2]) for ln in lines[1:]]
    assert sum(counts) == 5
    assert counts[0] == 1 and counts[-1] == 2


# ---------------------------------------------------------------------------
# report dictionaries

def test_report_to_dict_contents():
    path = tiny_path()
    spec = ThresholdSpec(0.9, 0.1)
    d = report_to_dict(estimation_report(path, spec), path)
    assert d["schema_version"] == 1
    assert d["n_intervals"] == 4 and d["uniform_grid"] is True
    assert d["n_flagged"] == 1 and d["flagged_intervals"] == [2]
    assert d["jump_size_estimates"] == [{"interval": 2, "size_hat": 0.5}]
    assert d["iv_threshold"] == pytest.approx(0.0125)
    assert d["admissible"] is True and d["admissibility_warning"] is False
    json.loads(dumps_json(d))


def test_report_to_dict_flags_inadmissible_threshold():
    path = tiny_path()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d = report_to_dict(estimation_report(path, ThresholdSpec(1.0, 1.0)), path)
    assert d["admissible"] is False
    assert d["admissibility_warning"] is True
    assert d["admissibility_reason"]


# ---------------------------------------------------------------------------
# config files and presets

def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
def test_load_config_file_parses_values(tmp_path, bom):
    src = write_cfg(tmp_path, """schema_version = 1
# comment line
model = model3     # trailing comment
n = 4000
beta = 0.99
""")
    Path(src).write_bytes(bom + Path(src).read_bytes())
    raw = load_config_file(src)
    assert raw == {"schema_version": "1", "model": "model3",
                   "n": "4000", "beta": "0.99"}


@pytest.mark.parametrize("text,fragment", [
    ("", "schema_version"),
    ("schema_version = 1\nwidth = 3\n", "unknown key"),
    ("schema_version = 1\nn = 2\nn = 3\n", "duplicate"),
    ("schema_version = 2\n", "schema_version"),
    ("schema_version = 1\nn 2000\n", "key = value"),
    ("schema_version = 1\nn =\n", "empty value"),
])
def test_load_config_file_errors(tmp_path, text, fragment):
    src = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config_file(src)
    assert fragment in str(err.value)


def test_merge_precedence(tmp_path):
    file_values = {"n": "3000", "beta": "0.5"}
    s = merge_settings(file_values, {"n": 400}, preset="model1-full")
    assert s.n == 400            # override beats file
    assert s.beta == 0.5         # file beats preset's 0.9
    assert s.n_paths == 5000     # preset beats default
    assert s.t_end == 1.0        # untouched default
    # preset key inside the file applies when no explicit preset
    s2 = merge_settings({"preset": "model3-desk"}, None)
    assert isinstance(s2.model, Model3) and s2.beta == 0.99


# The first key in sorted order is named, before any value is read; a
# config file's preset key is no override.
@pytest.mark.parametrize("file_values,overrides,key", [
    (None, {"pathz": "5"}, "pathz"),
    ({"bta": "2"}, None, "bta"),
    ({"zz": "1", "n": "abc"}, {"aa": "2"}, "aa"),
    (None, {"preset": "model3-desk"}, "preset"),
], ids=["override", "file value", "sorted first", "preset override"])
def test_merge_settings_rejects_a_key_that_names_no_run_value(file_values, overrides, key):
    with pytest.raises(ConfigError, match=rf"^unknown config key '{key}'$"):
        merge_settings(file_values, overrides)


def test_a_file_value_that_is_not_text_is_read_from_its_text():
    assert merge_settings({"n": 300, "beta": 0.5}).n == 300
    with pytest.raises(ConfigError, match=r"^n must be an integer, got '2.5'$"):
        merge_settings({"n": 2.5})


def test_preset_contents():
    s = merge_settings(preset="model1-full")
    assert (s.n, s.n_paths, s.beta) == (6000, 5000, 0.9)
    assert s.model == Model1(sigma=0.3, jump_intensity=5.0,
                             jump_size_std=0.6, drift=0.0)
    s3 = merge_settings(preset="model3-full")
    assert (s3.n, s3.beta) == (6000, 0.99)
    assert s3.model == Model3(sigma=0.3, gamma_var=0.23,
                              vg_drift=-0.2, vg_vol=0.2)
    d = merge_settings(preset="diffusion-desk")
    assert isinstance(d.model, CustomModel) and d.model.jumps == "none"
    with pytest.raises(ConfigError):
        preset_values("model9-desk")


def test_model_param_keys_require_custom():
    with pytest.raises(ConfigError):
        merge_settings({"model": "model1", "drift": "zero"}, None)


def test_malformed_custom_model_is_config_error():
    with pytest.raises(ConfigError, match="invalid custom model"):
        merge_settings({"model": "custom", "jumps": "compound-poisson:inf,0.5"}, None)


# The model names are a file-format contract: config files, presets,
# manifests and summary.json all carry them.
MODEL_NAMES = {"model1": Model1, "model2": Model2, "model3": Model3,
               "custom": CustomModel}


@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_model_names_round_trip_through_the_settings_echo(name):
    file_values = {"model": name}
    if name == "custom":
        file_values["jumps"] = "compound-poisson:3,0.5"
    settings = merge_settings(file_values, {"seed": 5, "beta": 0.7})
    assert type(settings.model) is MODEL_NAMES[name]
    # The echo reaches replay_manifest through manifest.json.
    echo = json.loads(dumps_json(_settings_echo(settings)))
    assert echo["model"] == name
    again = merge_settings(None, {k: str(v) for k, v in echo.items()})
    assert again == settings
    assert model_to_dict(settings.model)["model"] == name
    assert MODEL_CLASSES[name] is MODEL_NAMES[name]


def test_resolve_seed(monkeypatch):
    monkeypatch.delenv("JUMPSIFT_SEED", raising=False)
    assert resolve_seed() == DEFAULT_BASE_SEED
    monkeypatch.setenv("JUMPSIFT_SEED", "0x10")
    assert resolve_seed() == 16
    monkeypatch.setenv("JUMPSIFT_SEED", "not-a-seed")
    with pytest.raises(ConfigError):
        resolve_seed()


# ---------------------------------------------------------------------------
# command line

def test_cli_version_and_config_errors(tmp_path, capsys):
    assert main(["--version"]) == 0
    assert main(["mc", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert main(["estimate", "--out", str(tmp_path)]) == 2
    bad = write_cfg(tmp_path, "schema_version = 1\nwidth = 3\n")
    assert main(["mc", "--config", bad, "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["simulate", "estimate", "detect", "mc", "compare"])
@pytest.mark.parametrize("flags", [
    ["--paths", "0"],
    ["--n", "0"],
    ["--substeps", "0"],
    ["--jitter", "1.0"],
    ["--parallelism", "0"],
    ["--config", "t = 0"],
    ["--config", "t = inf"],
    ["--beta", "inf"],
    ["--scale-c=-inf"],
    ["--config", "t = 1e-320", "--n", "5000"],
    ["--n", "abc"],
    ["--seed", "010"],
], ids=" ".join)
def test_cli_out_of_range_run_parameter_is_config_error(tmp_path, capsys, command, flags):
    if flags[0] == "--config":
        flags = ["--config", write_cfg(tmp_path, f"schema_version = 1\n{flags[1]}\n"),
                 *flags[2:]]
    src = tmp_path / "path.csv"
    src.write_text("time,x\n0,0\n0.5,0.1\n1.0,0.05\n", encoding="utf-8")
    inputs = ["--in", str(src)] if command in ("estimate", "detect") else []
    out = tmp_path / "out"
    assert main([command, *inputs, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("jumpsift: config error: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("lines,message", [
    ("n = abc", "n must be an integer, got 'abc'"),
    ("t = nan", "t must be positive and finite, got nan"),
    ("model = model9", "unknown model 'model9' (known: model1, model2, model3, custom)"),
    ("model = custom\njumps = compound-poisson:1",
     "invalid custom model: jumps id needs '<lam>,<size_std>', got 'compound-poisson:1'"),
    ("model = custom\njumps = compound-poisson:a,b",
     "invalid custom model: bad jumps id 'compound-poisson:a,b'"),
    ("model = custom\njumps = compound-poisson:-1,0.5",
     "invalid custom model: jump intensity must be >= 0 and finite, got -1.0"),
    ("model = custom\njumps = compound-poisson:1,0",
     "invalid custom model: jump size_std must be positive and finite, got 0.0"),
    ("model = custom\nspot_vol = linear:1", "invalid custom model: unknown spot_vol id 'linear:1'"),
    ("model = custom\ndrift = constant:abc", "invalid custom model: bad drift id 'constant:abc'"),
], ids=lambda v: v.splitlines()[-1])
def test_cli_bad_config_value_is_one_config_error_line(tmp_path, capsys, lines, message):
    cfg = write_cfg(tmp_path, f"schema_version = 1\n{lines}\n")
    out = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"jumpsift: config error: {message}\n"
    assert not (out / "manifest.json").exists()


# A range error names the key the user wrote (paths, t), not the field it
# fills (n_paths, t_end), from a flag and from a config file alike.
@pytest.mark.parametrize("command,flags,message", [
    ("mc", ["--paths", "0"], "paths must be >= 1, got 0"),
    ("simulate", ["--config", "t = 0"], "t must be positive and finite, got 0.0"),
    ("mc", ["--config", "paths = -3"], "paths must be >= 1, got -3"),
    ("compare", ["--config", "t = inf"], "t must be positive and finite, got inf"),
    ("mc", ["--parallelism", "0"], "parallelism must be >= 1, got 0"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_cli_range_error_names_the_key_the_user_wrote(tmp_path, capsys, command, flags,
                                                      message):
    if flags[0] == "--config":
        flags = ["--config", write_cfg(tmp_path, f"schema_version = 1\n{flags[1]}\n")]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"jumpsift: config error: {message}\n"
    assert not out.exists()


def test_library_range_errors_name_the_fields():
    with pytest.raises(InvalidArgumentError, match=r"^n_paths must be >= 1, got 0$"):
        ExperimentConfig(Model1(), SPEC09, n_paths=0)
    for build in (lambda: ExperimentConfig(Model1(), SPEC09, t_end=0.0),
                  lambda: build_uniform_grid(4, 0.0)):
        with pytest.raises(InvalidArgumentError,
                           match=r"^t_end must be positive and finite, got 0.0$"):
            build()
    with pytest.raises(InvalidArgumentError,
                       match=r"^t_end / n must be at least .*, got t_end = 1e-320, n = 5000$"):
        ExperimentConfig(Model1(), SPEC09, t_end=1e-320, n=5000)
    # bool is an int subclass, but a size of True is not an integer.
    for name in ("n", "substeps", "n_paths", "parallelism"):
        with pytest.raises(InvalidArgumentError, match=rf"^{name} must be an integer, got True$"):
            ExperimentConfig(Model1(), SPEC09, **{name: True})
    for name, build in (("n", lambda: build_uniform_grid(True, 1.0)),
                        ("substeps", lambda: refine(build_uniform_grid(4, 1.0), True))):
        with pytest.raises(InvalidArgumentError, match=rf"^{name} must be an integer, got True$"):
            build()
    # Any integer seeds a run, a negative one included.
    for seed in (-5, np.int64(7), 2 ** 70):
        assert ExperimentConfig(Model1(), SPEC09, base_seed=seed).base_seed == seed


# Every number a type or builder takes, outside its range or not a number at
# all: a bool or a string is none, though Python counts a bool an int.
NUMBER_RULE_CASES = [
    (lambda: ExperimentConfig(Model1(), SPEC09, t_end=True), "t_end must be a number, got True"),
    (lambda: ExperimentConfig(Model1(), SPEC09, jitter=False),
     "jitter must be a number, got False"),
    *((lambda seed=seed: ExperimentConfig(Model1(), SPEC09, base_seed=seed),
       f"base_seed must be an integer, got {seed!r}") for seed in (1.5, "7", "abc", True)),
    (lambda: Model1(sigma=True), "sigma must be a number, got True"),
    (lambda: Model1(sigma="0.3"), "sigma must be a number, got '0.3'"),
    (lambda: Model1(sigma=-1.0), "sigma must be positive and finite, got -1.0"),
    (lambda: Model3(vg_vol=math.inf), "vg_vol must be positive and finite, got inf"),
    (lambda: Model1(drift=True), "drift must be a number, got True"),
    (lambda: Model2(rho=1.5), "rho must lie in [-1, 1], got 1.5"),
    (lambda: ThresholdSpec(True), "beta must be a number, got True"),
    (lambda: ThresholdSpec(0.9, math.inf), "scale_c must be finite, got inf"),
    (lambda: PoissonMixtureCdf(math.nan, 1.0), "lam_t must be >= 0 and finite, got nan"),
    (lambda: PoissonMixtureCdf(-1.0, 1.0), "lam_t must be >= 0 and finite, got -1.0"),
    (lambda: PoissonMixtureCdf(1e300, 1.0), "lam_t must be at most 1e7, got 1e+300"),
    (lambda: PoissonMixtureCdf(1.0, 0.0), "var_one must be positive and finite, got 0.0"),
    (lambda: build_histogram([0.1], True), "bin_count must be an integer, got True"),
    (lambda: build_histogram([0.1], 10, (0.0, math.inf)), "value_range must be finite, got inf"),
    (lambda: build_irregular_grid(10, 1.0, 0.3, 1.5), "seed must be an integer, got 1.5"),
    (lambda: simulate(Model1(), build_uniform_grid(4, 1.0), 1, None),
     "seed must be an integer, got None"),
    (lambda: path_seed(1, "0"), "path_index must be an integer, got '0'"),
    (lambda: build_uniform_grid(4, 5e-324), "t_end = 5e-324 is too short for n = 4 intervals"),
    (lambda: small_jump_bias_bound(Model3(), SPEC09, math.inf),
     "h must be positive and finite, got inf"),
    (lambda: small_jump_bias_bound(Model3(), SPEC09, 1e-3, 0.0),
     "t_end must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize("build,message", NUMBER_RULE_CASES,
                         ids=[message for _, message in NUMBER_RULE_CASES])
def test_every_number_rule_names_the_argument(build, message):
    with pytest.raises(InvalidArgumentError) as err:
        build()
    assert str(err.value) == message


def test_a_model_class_with_no_name_is_an_invalid_argument():
    @dataclasses.dataclass(frozen=True)
    class M:
        sigma: float = 0.3

    cfg = ExperimentConfig(M(), SPEC09, n=50, n_paths=4)
    for call in (lambda: montecarlo.efficiency_comparison(cfg), lambda: model_to_dict(M()),
                 lambda: montecarlo.run_experiment(cfg),
                 lambda: simulate(M(), build_uniform_grid(50, 1.0))):
        with pytest.raises(InvalidArgumentError, match="^unknown model config M$"):
            call()


# Each text on an int key and on a float key, with the value or the error
# message both routes must give.
@pytest.mark.parametrize("key,text,want", [
    *((key, "0x1F", 31) for key in ("n", "seed")),
    *((key, "010", f"{key} must be an integer, got '010'") for key in ("n", "seed")),
    *((key, "1_000", 1000) for key in ("n", "seed")),
    *((key, "abc", f"{key} must be an integer, got 'abc'") for key in ("n", "seed")),
    *((key, "", f"{key} must be an integer, got ''") for key in ("n", "seed")),
    *((key, "1e-3", 0.001) for key in ("beta", "jitter")),
    *((key, "nan", f"{key} must {wording}, got nan")
      for key, wording in (("beta", "be finite"), ("jitter", "lie in [0, 1)"))),
])
def test_a_flag_parses_like_the_same_config_file_key(key, text, want):
    def settings_or_error(build):
        try:
            settings = build()
        except ConfigError as exc:
            return str(exc)
        return settings

    args = build_parser().parse_args(["simulate", "--preset", "model1-desk", f"--{key}={text}"])
    from_flag = settings_or_error(lambda: _settings_from_args(args))
    from_file = settings_or_error(lambda: merge_settings({key: text}, preset="model1-desk"))
    assert from_flag == from_file
    field = next(p.field for p in RUN_PARAMETERS if p.key == key)
    got = from_flag if isinstance(want, str) else getattr(from_flag, field)
    assert got == want


def test_cli_horizon_below_normal_spacing_names_t_and_n(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "schema_version = 1\nt = 1e-320\nn = 5000\n")
    assert main(["mc", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: t / n must be at least" in err
    assert "t = 1e-320, n = 5000" in err


@pytest.mark.parametrize("command,flags,message", [
    ("mc", ["--n", "1"], "n must be >= 2"),
    ("compare", ["--n", "1"], "n must be >= 2"),
    ("compare", ["--paths", "1"], "paths must be >= 2"),
], ids=["mc --n 1", "compare --n 1", "compare --paths 1"])
def test_cli_size_no_run_can_succeed_at_is_config_error(tmp_path, capsys, monkeypatch,
                                                        command, flags, message):
    def no_path(*args):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(montecarlo, "_simulate_path", no_path)
    out = tmp_path / "out"
    assert main([command, "--paths", "4", *flags, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_simulate_estimate_detect_run_at_one_interval(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--n", "1", "--out", str(sim)]) == 0
    for command in ("estimate", "detect"):
        assert main([command, "--n", "1", "--in", str(sim / "path.csv"),
                     "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()


def test_cli_squares_summing_past_the_largest_double_read_null(tmp_path, capsys):
    # Each squared increment is 1e308, but their sum overflows: it is +inf,
    # written as null, as on a path where a single square overflows.
    src = tmp_path / "path.csv"
    src.write_text("time,x\n0,0\n0.25,1e154\n0.5,0\n0.75,1e154\n1,0\n")
    for command in ("estimate", "detect"):
        out = tmp_path / command
        assert main([command, "--in", str(src), "--out", str(out)]) == 0
        report = load_json(out / "report.json")
        assert report["realized_variance"] is None
        assert report["bipower_variation"] is None
    capsys.readouterr()


@pytest.mark.parametrize("rows,flags", [
    ("0,0\n0.5,1e200\n1,0\n", []),
    ("0,0\n0.25,1e308\n0.5,-1e308\n0.75,-1e308\n1,0\n", []),
    ("0,0\n0.5,1e80\n1,0\n", ["--scale-c", "1e200"]),
], ids=["square overflows", "increment overflows", "kept fourth power overflows"])
def test_cli_overflow_prints_no_warning(tmp_path, capsys, rows, flags):
    # numpy's overflow and inf * 0 warnings stay inside the kernel, so they
    # neither reach stderr nor, as errors, end the run.
    src = tmp_path / "path.csv"
    src.write_text("time,x\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("estimate", "detect"):
            assert main([command, "--in", str(src), *flags,
                         "--out", str(tmp_path / command)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_missing_input_file_is_runtime_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    assert main(["estimate", "--in", missing, "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


# The first goes through numpy's reader before the per-line one; the 0x1f
# separator byte sends the second straight to the per-line reader.
@pytest.mark.parametrize("content,reason", [
    (b"time,x\n0,0\n" + b"".join(b"%d,0.5\n" % i for i in range(1, 20000)) + b"1,\xe9\n",
     "invalid continuation byte"),
    (b"time,x\n0,0\x1f\n1,\xff\n", "invalid start byte"),
])
def test_cli_csv_that_is_not_utf8_is_runtime_error(tmp_path, capsys, content, reason):
    src = tmp_path / "f.csv"
    src.write_bytes(content)
    out = tmp_path / "out"
    assert main(["estimate", "--in", str(src), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"jumpsift: error: {src}: not UTF-8 text ({reason})\n"
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.parametrize("content", [b"", b"\n\r\n  \n"], ids=["empty", "blank lines"])
def test_cli_empty_path_file_is_runtime_error(tmp_path, capsys, content):
    src = tmp_path / "f.csv"
    src.write_bytes(content)
    out = tmp_path / "out"
    assert main(["estimate", "--in", str(src), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"jumpsift: error: {src}: empty path file\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["absent.cfg", "."], ids=["missing", "directory"])
def test_cli_config_that_cannot_be_read_is_config_error(tmp_path, capsys, name):
    cfg = str(tmp_path / name)
    out = tmp_path / "out"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"jumpsift: config error: cannot read config file {cfg!r}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(b"schema_version = 1\nmodel = model1\xff\n")
    out = tmp_path / "out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"jumpsift: config error: {cfg}: not UTF-8 text (invalid start byte)\n")
    assert not os.path.exists(out / "manifest.json")


# Times that numpy's reader and the per-line reader (a 0x1f byte) both parse.
@pytest.mark.parametrize("rows,reason", [
    ("0.5,0\n1,1\n", "grid must start at 0"),
    ("0,0\n1,1\n1,2\n", "times must be strictly increasing"),
    ("0,0\n0.5,1\n0.25,2\n", "times must be strictly increasing"),
    ("0,0\n0.5,1\ninf,2\n", "horizon T must be positive and finite"),
])
@pytest.mark.parametrize("separator", ["", "\x1f"])
def test_cli_csv_with_a_bad_time_column_names_file_and_column(tmp_path, capsys, rows,
                                                               reason, separator):
    src = tmp_path / "f.csv"
    src.write_text("time,x" + separator + "\n" + rows)
    out = tmp_path / "out"
    assert main(["estimate", "--in", str(src), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"jumpsift: error: {src}: time column: {reason}\n"
    assert not os.path.exists(out / "manifest.json")


HUGE = "99999999999999999999"


@pytest.mark.parametrize("command", ["simulate", "mc", "compare"])
@pytest.mark.parametrize("flags,n,substeps", [
    (["--n", HUGE], HUGE, "1"),
    (["--substeps", HUGE], "2000", HUGE),
    (["--n", "1" + "0" * 400, "--substeps", "3"], "1" + "0" * 400, "3"),
])
def test_cli_size_numpy_cannot_allocate_is_config_error(tmp_path, capsys, command, flags,
                                                        n, substeps):
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"jumpsift: config error: n = {n} with substeps = {substeps} ")
    assert err.endswith(" doubles, more than numpy can allocate\n")
    assert err.count("\n") == 1
    assert not os.path.exists(out / "manifest.json")


# Most squared increments are kept, and their sum and the true IV overflow,
# so the normalized bias is computed but not finite.
BIAS_OVERFLOW_CFG = "schema_version = 1\nmodel = custom\nspot_vol = constant:1e154\nt = 3.0\n"
BIAS_OVERFLOW_FLAGS = ["--n", "50", "--beta", "0.05", "--scale-c", "1e308"]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_cli_mc_bias_that_overflows_is_one_error_line(tmp_path, capsys, parallelism):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(BIAS_OVERFLOW_CFG)
    out = tmp_path / "out"
    assert main(["mc", "--config", str(cfg), *BIAS_OVERFLOW_FLAGS, "--paths", "4", "--seed", "1",
                 "--parallelism", parallelism, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "jumpsift: error: samples must be finite\n"
    assert captured.out == ""
    assert not os.path.exists(out / "summary.json")
    assert not os.path.exists(out / "manifest.json")


def test_cli_mc_where_flagged_squares_overflow_keeps_the_kept_mass(tmp_path, capsys):
    # Jumps of size 1e200: rv, bpv and the flagged mass are inf, and iv_hat
    # is the finite sum of the kept squares, so the bias is finite too.
    cfg = tmp_path / "f.cfg"
    cfg.write_text("schema_version = 1\nmodel = custom\njumps = compound-poisson:5,1e200\n")
    for parallelism in ("1", "2"):
        assert main(["mc", "--config", str(cfg), "--n", "50", "--paths", "4", "--seed", "1",
                     "--parallelism", parallelism, "--out", str(tmp_path / parallelism)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("summary.json", "hist.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    summary = load_json(tmp_path / "1" / "summary.json")
    assert summary["estimates"]["mean_rv"] is None
    assert summary["estimates"]["mean_bpv"] is None
    assert 0.0 < summary["estimates"]["mean_iv_hat"] < 0.09
    assert summary["excluded_paths"] == 0


# sigma^2 = 1e200 is finite and sigma^4 is not: mc needs only sigma^2, and
# compare's error scale sqrt(h * IQ) is inf, which fails its plan.
@pytest.mark.parametrize("command,code,err", [
    ("mc", 0, ""),
    ("compare", 3, "jumpsift: error: compare needs a finite error scale sqrt(h * IQ), got inf\n"),
], ids=["mc", "compare"])
def test_cli_sigma_whose_fourth_power_overflows(tmp_path, capsys, command, code, err):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("schema_version = 1\nmodel = custom\nspot_vol = constant:1e100\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", str(cfg), "--n", "50", "--paths", "4",
                     "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)


# Jumps of size 1e308 overflow the path's cumulative sum. pyproject's
# error::RuntimeWarning filter fails the test if a numpy warning escapes.
@pytest.mark.parametrize("argv", [["mc", "--parallelism", "1"], ["mc", "--parallelism", "2"],
                                  ["simulate"]], ids=["mc p1", "mc p2", "simulate"])
def test_cli_path_that_overflows_is_one_error_line(tmp_path, capsys, argv):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("schema_version = 1\nmodel = custom\njumps = compound-poisson:20,1e308\n")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--n", "50", "--paths", "4", "--seed", "1",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "jumpsift: error: observations must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--config", "{cfg}", *BIAS_OVERFLOW_FLAGS, "--paths", "4", "--seed", "1"],
    ["--preset", "model1-desk", "--paths", "4", "--n", "50", "--scale-c", "0",
     "--parallelism", "2"],
], ids=["bias overflow", "scale-c 0"])
def test_cli_failed_mc_leaves_no_out_directory(tmp_path, capsys, flags):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(BIAS_OVERFLOW_CFG)
    out = tmp_path / "out"
    assert main(["mc", *(f.format(cfg=cfg) for f in flags), "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_cli_jump_intensity_numpy_cannot_allocate_is_runtime_error(tmp_path, command):
    import subprocess

    # A child process, so that a regression hangs only until the timeout.
    cfg = tmp_path / "f.cfg"
    cfg.write_text("schema_version = 1\nmodel = custom\njumps = compound-poisson:1e300,0.5\n")
    out = tmp_path / "out"
    res = subprocess.run(
        [sys.executable, "-m", "jumpsift.cli", command, "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 3
    assert res.stderr == (
        "jumpsift: error: jump intensity 1e+300 over horizon t = 1.0 expects 1e+300 jump"
        " times, more doubles than numpy can allocate\n")
    assert not os.path.exists(out / "manifest.json")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_cli_out_of_memory_is_runtime_error(tmp_path):
    import subprocess

    # One child caps its own address space at 512 MiB, below the first
    # array of an n = 10**8 path (800 MB), so the allocation fails before
    # any memory is touched and nothing else is limited.
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from jumpsift.cli import main\n"
             "sys.exit(main())\n")
    out = tmp_path / "out"
    res = subprocess.run(
        [sys.executable, "-c", child, "mc", "--n", "100000000", "--paths", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 3
    assert res.stderr == (
        "jumpsift: error: out of memory at n = 100000000, substeps = 1; a simulated path"
        " needs about 122 bytes per fine step, and it has n * substeps of them\n")
    assert res.stdout == ""
    assert not os.path.exists(out / "manifest.json")


# The same message from a MemoryError raised in the process, on each command
# that simulates.
@pytest.mark.parametrize("command,target", [
    ("simulate", "jumpsift.cli.simulate"),
    ("mc", "jumpsift.montecarlo.run_experiment"),
    ("compare", "jumpsift.montecarlo.efficiency_comparison"),
])
def test_cli_out_of_memory_names_n_and_substeps(tmp_path, capsys, monkeypatch, command,
                                                target):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(target, out_of_memory)
    out = tmp_path / "out"
    assert main([command, "--n", "300", "--substeps", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "jumpsift: error: out of memory at n = 300, substeps = 2; a simulated path"
        " needs about 122 bytes per fine step, and it has n * substeps of them\n")
    assert captured.out == ""
    assert not out.exists()


def test_cli_out_of_memory_reading_a_path_names_the_file(tmp_path, capsys, monkeypatch):
    def read_path_csv(name):
        raise MemoryError

    monkeypatch.setattr("jumpsift.cli.read_path_csv", read_path_csv)
    src = str(tmp_path / "big" / "path.csv")
    out = tmp_path / "out"
    assert main(["estimate", "--in", src, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"jumpsift: error: out of memory on the path read from {src}\n"
    assert captured.out == ""
    assert not os.path.exists(out / "manifest.json")


def test_cli_simulate_then_estimate_round_trip(tmp_path, capsys):
    sim_dir = str(tmp_path / "sim")
    assert main(["simulate", "--n", "128", "--seed", "11",
                 "--out", sim_dir]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert os.path.join(sim_dir, "path.csv") in printed
    assert os.path.join(sim_dir, "manifest.json") in printed

    est_dir = str(tmp_path / "est")
    path_csv = os.path.join(sim_dir, "path.csv")
    assert main(["estimate", "--in", path_csv, "--out", est_dir]) == 0
    capsys.readouterr()
    report = load_json(os.path.join(est_dir, "report.json"))
    want = threshold_realized_variance(read_path_csv(path_csv), SPEC09)
    assert report["iv_threshold"] == want
    assert report["beta"] == 0.9 and report["n_intervals"] == 128

    manifest = load_json(os.path.join(est_dir, "manifest.json"))
    assert manifest["inputs"][0]["sha256"] == file_sha256(path_csv)


def test_cli_detect_reports_inadmissible_beta(tmp_path, capsys):
    sim_dir = str(tmp_path / "sim")
    main(["simulate", "--n", "64", "--seed", "3", "--out", sim_dir])
    det_dir = str(tmp_path / "det")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["detect", "--in", os.path.join(sim_dir, "path.csv"),
                     "--beta", "1.0", "--out", det_dir]) == 0
    capsys.readouterr()
    report = load_json(os.path.join(det_dir, "report.json"))
    assert report["admissibility_warning"] is True
    lines = Path(os.path.join(det_dir, "detection.csv")).read_text().splitlines()
    assert len(lines) == 1 + 64


INADMISSIBLE = ("jumpsift: warning: inadmissible threshold:"
                " h*log(1/h)/r(h) ~ h^0.0*log(1/h) diverges as h -> 0\n")


@pytest.mark.parametrize("argv", [
    ["estimate", "--beta", "1"],
    ["detect", "--beta", "1"],
    ["mc", "--beta", "1", "--paths", "3", "--n", "64"],
], ids=" ".join)
@pytest.mark.parametrize("outer", ["default", "error", "ignore"])
def test_cli_inadmissible_threshold_warns_in_one_line(tmp_path, capsys, argv, outer):
    src = tmp_path / "path.csv"
    src.write_text("time,x\n0,0\n0.5,0.1\n1.0,0.05\n", encoding="utf-8")
    inputs = ["--in", str(src)] if argv[0] != "mc" else []
    with warnings.catch_warnings():
        warnings.simplefilter(outer)
        assert main([*argv, *inputs, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == INADMISSIBLE


def test_cli_inadmissible_threshold_warns_once_across_workers(tmp_path):
    import subprocess

    res = subprocess.run(
        [sys.executable, "-m", "jumpsift.cli", "mc", "--beta", "1", "--paths", "4",
         "--n", "64", "--parallelism", "2", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 0
    assert res.stderr == INADMISSIBLE


def test_cli_passes_other_warnings_on(tmp_path, capsys, monkeypatch):
    def warning_run(*args):
        for category in (AdmissibilityWarning, UserWarning, AdmissibilityWarning):
            warnings.warn(f"inadmissible threshold: a {category.__name__}", category)
        return []

    monkeypatch.setattr(cli, "_run", warning_run)
    argv = ["simulate", "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "inadmissible threshold: a UserWarning")]
    assert capsys.readouterr().err == (
        "jumpsift: warning: inadmissible threshold: a AdmissibilityWarning\n")

    def runtime_warning_run(*args):
        warnings.warn("overflow", RuntimeWarning)
        return []

    monkeypatch.setattr(cli, "_run", runtime_warning_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(argv)


def test_cli_interrupt_is_one_line_and_exit_130(tmp_path, capsys, monkeypatch):
    assert main(["simulate", "--n", "32", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()

    def interrupted_run(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_run", interrupted_run)
    out = tmp_path / "out"
    assert main(["mc", "--out", str(out)]) == 130
    assert capsys.readouterr() == ("", "jumpsift: interrupted\n")
    assert not out.exists()
    # Only main turns the interrupt into an exit code; the library call raises it.
    with pytest.raises(KeyboardInterrupt):
        replay_manifest(str(tmp_path / "run" / "manifest.json"), str(out))


def test_cli_compare_on_a_model_with_jumps_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--preset", "model1-desk", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "jumpsift: config error: compare needs a jump-free model, and model1 has jumps\n")
    assert not out.exists()


MC_ARGS = ["mc", "--n", "150", "--paths", "6", "--seed", "21"]


def test_cli_mc_outputs_and_determinism(tmp_path, capsys):
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(MC_ARGS + ["--out", dir_a]) == 0
    assert main(MC_ARGS + ["--out", dir_b]) == 0
    capsys.readouterr()

    summary = load_json(os.path.join(dir_a, "summary.json"))
    assert summary["n_paths"] == 6
    assert summary["normality_supported"] is True
    assert "parallelism" not in summary["config"]
    assert summary["detection"]["total_tp"] >= 0
    assert set(summary["estimates"]) == {
        "mean_iv_hat", "mean_true_iv", "mean_abs_error", "mean_rv", "mean_bpv"}

    for name in ("summary.json", "hist.csv"):
        a = Path(os.path.join(dir_a, name)).read_bytes()
        b = Path(os.path.join(dir_b, name)).read_bytes()
        assert a == b

    manifest = load_json(os.path.join(dir_a, "manifest.json"))
    for entry in manifest["outputs"]:
        assert entry["sha256"] == file_sha256(os.path.join(dir_a, entry["file"]))
        assert entry["bytes"] == os.path.getsize(os.path.join(dir_a, entry["file"]))


def test_cli_mc_irregular_grid_drops_histogram(tmp_path, capsys):
    out = str(tmp_path / "jit")
    assert main(["mc", "--n", "100", "--paths", "3", "--seed", "5",
                 "--jitter", "0.4", "--out", out]) == 0
    capsys.readouterr()
    assert not os.path.exists(os.path.join(out, "hist.csv"))
    summary = load_json(os.path.join(out, "summary.json"))
    assert summary["normality_supported"] is False
    assert summary["ks_statistic"] is None


def test_cli_compare_writes_efficiency_table(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    assert main(["compare", "--n", "200", "--paths", "32", "--seed", "9",
                 "--out", out]) == 0
    capsys.readouterr()
    lines = Path(os.path.join(out, "efficiency.csv")).read_text().splitlines()
    assert lines[0] == "estimator,normalized_error_variance,ratio_to_threshold"
    first, second = lines[1].split(","), lines[2].split(",")
    assert first[0] == "threshold" and float(first[2]) == 1.0
    assert second[0] == "bipower"
    assert math.isclose(float(second[2]),
                        float(second[1]) / float(first[1]), rel_tol=1e-12)


def test_replay_manifest_reproduces_run(tmp_path, capsys, long_run):
    dir_a = str(tmp_path / "orig")
    assert main(MC_ARGS + ["--out", dir_a]) == 0
    capsys.readouterr()
    dir_b = str(tmp_path / "replay")
    outputs = replay_manifest(os.path.join(dir_a, "manifest.json"), dir_b)
    assert "summary.json" in outputs
    for name in ("summary.json", "hist.csv"):
        a = Path(os.path.join(dir_a, name)).read_bytes()
        b = Path(os.path.join(dir_b, name)).read_bytes()
        assert a == b
    ma = load_json(os.path.join(dir_a, "manifest.json"))
    mb = load_json(os.path.join(dir_b, "manifest.json"))
    ma.pop("created_utc"), mb.pop("created_utc")
    assert ma == mb

    # Five more runs, replayed in one new interpreter, which has computed
    # nothing yet: mc where linspace widths spread, paths on Model2's refined
    # subgrid and on an irregular Model3 grid, the long detect run, and
    # Model2 with k * t = 700, past the closed-form OU scan's exponent limit,
    # where its volatility takes the stepwise loop.
    cfg = write_cfg(tmp_path, "schema_version = 1\nmodel = model2\nt = 700\n")
    manifests = [str(long_run / "det" / "manifest.json")]
    for name, argv in (("mc", ["mc", "--n", "5065", "--paths", "2"]),
                       ("m2", ["simulate", "--preset", "model2-desk", "--n", "400"]),
                       ("m3", ["simulate", "--preset", "model3-desk", "--n", "400",
                               "--jitter", "0.3"]),
                       ("m2-t700", ["simulate", "--config", cfg, "--n", "400"])):
        assert main([*argv, "--seed", "3", "--out", str(tmp_path / name)]) == 0
        manifests.append(str(tmp_path / name / "manifest.json"))
    capsys.readouterr()
    _run_fresh("from jumpsift.cli import replay_manifest\n"
               f"for i, manifest in enumerate({manifests!r}):\n"
               f"    replay_manifest(manifest, {str(tmp_path)!r} + f'/fresh{{i}}')\n")


# ---------------------------------------------------------------------------
# repeated main calls in one process

def run_outputs(out):
    """Each file main wrote into out, as bytes; the manifest as JSON without
    its timestamp."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest.pop("created_utc")
    return files, manifest


@pytest.fixture
def sim_csv(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "64", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out / "path.csv")


def test_cli_flag_of_an_earlier_call_does_not_reach_a_later_one(tmp_path, capsys, sim_csv):
    detect = ["detect", "--in", sim_csv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)
        assert main([*detect, "--beta", "1", "--out", str(tmp_path / "beta1")]) == 0
    assert main([*detect, "--out", str(tmp_path / "second")]) == 0
    cli._parser.cache_clear()
    assert main([*detect, "--out", str(tmp_path / "first")]) == 0
    capsys.readouterr()
    files, manifest = run_outputs(tmp_path / "second")
    default_beta = merge_settings(preset="model1-desk").beta
    assert manifest["config"]["beta"] == default_beta
    assert json.loads(files["report.json"])["beta"] == default_beta
    assert (files, manifest) == run_outputs(tmp_path / "first")
    assert run_outputs(tmp_path / "beta1")[1]["config"]["beta"] == 1.0


@pytest.mark.parametrize("between,code", [(["detect", "--no-such-flag"], 2),
                                          (["--version"], 0)], ids=["bad-flag", "version"])
def test_cli_usage_error_or_version_between_runs_leaves_outputs_alone(
        tmp_path, capsys, sim_csv, between, code):
    detect = ["detect", "--in", sim_csv, "--out"]
    assert main([*detect, str(tmp_path / "before")]) == 0
    capsys.readouterr()
    assert main(between) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "jumpsift: error: unrecognized arguments: --no-such-flag\n" in captured.err
    else:
        assert captured.out == f"jumpsift {cli.__version__}\n"
    # What a parser built for this one call prints.
    with pytest.raises(SystemExit):
        build_parser().parse_args(between)
    assert capsys.readouterr() == captured
    assert main([*detect, str(tmp_path / "after")]) == 0
    capsys.readouterr()
    assert run_outputs(tmp_path / "before") == run_outputs(tmp_path / "after")


def test_cli_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for i in range(3):
        assert main(["simulate", "--n", "16", "--out", str(tmp_path / str(i))]) == 0
    assert main(["--version"]) == 0
    assert main(["mc", "--no-such-flag"]) == 2
    capsys.readouterr()
    assert len(builds) == 1
    assert build_parser() is not build_parser()
    cli._parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    import subprocess

    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import jumpsift.cli\n"
            "assert jumpsift.cli._parser.cache_info().currsize == 0\n"
            "assert not built, len(built)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 0, res.stderr


def _run_fresh(code: str, **env: str) -> None:
    """Runs code in a new interpreter, where no jumpsift module is loaded yet,
    with env added to the environment."""
    import subprocess

    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env})
    assert res.returncode == 0, res.stderr


def test_importing_the_package_loads_neither_serialize_nor_hashlib():
    _run_fresh(
        "import sys\n"
        "import jumpsift\n"
        "loaded = [m for m in ('jumpsift.serialize', 'hashlib') if m in sys.modules]\n"
        "assert not loaded, loaded\n")


def test_importing_the_package_imports_nothing_until_a_name_is_read():
    _run_fresh(
        "import sys\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m == 'numpy' or m.startswith('jumpsift.')]\n"
        "import jumpsift\n"
        "assert not loaded(), loaded()\n"
        "jumpsift.ConfigError\n"
        "assert loaded() == ['jumpsift.errors'], loaded()\n"
        "jumpsift.Model1\n"
        "assert 'jumpsift.models' in sys.modules\n")


def test_only_mc_loads_the_harness_and_its_diagnostics(tmp_path):
    out = str(tmp_path)
    _run_fresh(
        "import sys\n"
        "def harness():\n"
        "    return [m for m in ('jumpsift.montecarlo', 'jumpsift.diagnostics')\n"
        "            if m in sys.modules]\n"
        "import jumpsift\n"
        "assert not harness(), harness()\n"
        "import jumpsift.cli\n"
        "assert not harness(), harness()\n"
        f"out = {out!r}\n"
        "for argv in (['simulate', '--n', '200', '--out', out + '/sim'],\n"
        "             ['estimate', '--in', out + '/sim/path.csv', '--out', out + '/est'],\n"
        "             ['detect', '--in', out + '/sim/path.csv', '--out', out + '/det']):\n"
        "    assert jumpsift.cli.main(argv) == 0, argv\n"
        "assert not harness(), harness()\n"
        "assert jumpsift.cli.main(['mc', '--paths', '4', '--n', '200', '--out', out + '/mc']) == 0\n"
        "assert len(harness()) == 2, harness()\n")


def readme_public_names() -> dict[str, str]:
    """Name -> defining module, from the table in README "Library"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", library, flags=re.M)
    names = dict(rows)
    assert len(names) == len(rows), "a name has two rows"
    return names


def test_every_public_name_resolves_to_its_modules_object():
    # Four names used only inside the package: importable from their modules, not exported.
    internal = {"PRESETS": "config", "load_config_file": "config", "resolve_seed": "config",
                "RNG_ALGORITHM": "engines"}
    _run_fresh(
        "import importlib, types, jumpsift\n"
        f"public = {readme_public_names()!r}\n"
        f"internal = {internal!r}\n"
        "modules = 'config diagnostics engines errors estimators grids models montecarlo"
        " serialize'.split()\n"
        "# Before any lazy name loads, so dir() must list the lazy ones itself.\n"
        "listed = sorted(n for n in dir(jumpsift) if not n.startswith('_'))\n"
        "assert listed == sorted([*public, *modules]), listed\n"
        "assert sorted(jumpsift.__all__) == sorted(public)\n"
        "star = {}\n"
        "exec('from jumpsift import *', star)\n"
        "assert sorted(n for n in star if n != '__builtins__') == sorted(public)\n"
        "for name, home in public.items():\n"
        "    obj = getattr(jumpsift, name)\n"
        "    assert not isinstance(obj, types.ModuleType), name\n"
        "    assert obj is getattr(importlib.import_module('jumpsift.' + home), name), name\n"
        "for name, home in internal.items():\n"
        "    assert not hasattr(jumpsift, name), name\n"
        "    getattr(importlib.import_module('jumpsift.' + home), name)\n"
        "for m in modules:\n"
        "    assert getattr(jumpsift, m) is importlib.import_module('jumpsift.' + m), m\n")


def test_the_harness_loads_through_either_import_form():
    _run_fresh(
        "import jumpsift\n"
        "assert not hasattr(jumpsift, 'no_such_name')\n"
        "from jumpsift import montecarlo\n"
        "assert montecarlo.ExperimentConfig is jumpsift.config.ExperimentConfig\n"
        "assert jumpsift.montecarlo is montecarlo\n"
        "import jumpsift.diagnostics\n"
        "assert jumpsift.build_histogram is jumpsift.diagnostics.build_histogram\n")


# A value other than the built-in default for each run parameter, spelled as
# in a config file.
SAMPLE_VALUES = {"n": "48", "t": "2.5", "paths": "3", "beta": "0.8", "scale_c": "1.5",
                 "substeps": "2", "jitter": "0.25", "parallelism": "2", "seed": "77"}


def test_run_parameters_table_matches_run_settings():
    assert list(SAMPLE_VALUES) == [p.key for p in RUN_PARAMETERS]
    assert ([f.name for f in dataclasses.fields(RunSettings)]
            == ["model", *(p.field for p in RUN_PARAMETERS)])


@pytest.mark.parametrize("param", RUN_PARAMETERS, ids=lambda p: p.key)
def test_run_parameter_by_flag_file_and_default_then_echo_and_replay(
        param, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("JUMPSIFT_SEED", raising=False)
    text = SAMPLE_VALUES[param.key]
    want = param.kind(text)

    def settings_for(*flags):
        return _settings_from_args(build_parser().parse_args(["simulate", *flags]))

    def check(value):
        assert type(value) is param.kind and value == want

    default = getattr(merge_settings(), param.field)
    if param.default is None:
        assert default == DEFAULT_BASE_SEED
    else:
        assert type(default) is param.kind and default == param.kind(param.default)
    if param.help is not None:
        check(getattr(settings_for("--" + param.key.replace("_", "-"), text), param.field))
    cfg = write_cfg(tmp_path, "schema_version = 1\n"
                    + "".join(f"{k} = {v}\n" for k, v in {"n": "48", param.key: text}.items()))
    check(getattr(settings_for("--config", cfg), param.field))

    dir_a, dir_b = tmp_path / "orig", tmp_path / "replay"
    assert main(["simulate", "--config", cfg, "--out", str(dir_a)]) == 0
    capsys.readouterr()
    echo = json.loads((dir_a / "manifest.json").read_text())["config"]
    assert list(echo) == ["model", *(p.key for p in RUN_PARAMETERS)]
    check(echo[param.key])
    replay_manifest(str(dir_a / "manifest.json"), str(dir_b))
    assert (dir_a / "path.csv").read_bytes() == (dir_b / "path.csv").read_bytes()
    ma, mb = (json.loads((d / "manifest.json").read_text()) for d in (dir_a, dir_b))
    ma.pop("created_utc"), mb.pop("created_utc")
    assert ma == mb


def test_cli_mc_runs_where_linspace_widths_spread(tmp_path, capsys):
    out = tmp_path / "mid"
    assert main(["mc", "--n", "5065", "--paths", "2", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["normality_supported"] is True
    assert summary["excluded_paths"] == 0
    assert (out / "hist.csv").exists()


def test_replay_manifest_rejects_changed_input_or_output(tmp_path, capsys):
    sim_dir, est_dir = str(tmp_path / "sim"), str(tmp_path / "est")
    assert main(["simulate", "--n", "64", "--seed", "2", "--out", sim_dir]) == 0
    path_csv = os.path.join(sim_dir, "path.csv")
    assert main(["estimate", "--in", path_csv, "--out", est_dir]) == 0
    capsys.readouterr()
    manifest_path = os.path.join(est_dir, "manifest.json")
    assert replay_manifest(manifest_path, str(tmp_path / "again")) == [
        "report.json", "manifest.json"]

    # A recorded output that the replay no longer reproduces.
    manifest = load_json(manifest_path)
    manifest["outputs"][0]["sha256"] = "0" * 64
    tampered = str(tmp_path / "tampered.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(InvalidArgumentError, match="report.json: output"):
        replay_manifest(tampered, str(tmp_path / "out_check"))

    # An input edited after the run is rejected before anything is written.
    with open(path_csv, "a", encoding="utf-8") as fh:
        fh.write("2.0,0.5\n")
    replay_dir = tmp_path / "in_check"
    with pytest.raises(InvalidArgumentError, match="path.csv: input"):
        replay_manifest(manifest_path, str(replay_dir))
    assert not replay_dir.exists()


def test_replay_of_an_inadmissible_run_warns_in_one_line(tmp_path, capsys):
    sim_dir, det_dir = str(tmp_path / "sim"), str(tmp_path / "det")
    assert main(["simulate", "--n", "64", "--seed", "2", "--out", sim_dir]) == 0
    assert main(["detect", "--beta", "1", "--in", os.path.join(sim_dir, "path.csv"),
                 "--out", det_dir]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default", AdmissibilityWarning)
        replay_manifest(os.path.join(det_dir, "manifest.json"), str(tmp_path / "again"))
    assert capsys.readouterr().err == INADMISSIBLE


# A manifest cut short; an inputs or outputs entry without "file" or
# "sha256", or one that is a bare file name; an entry's "file" or "sha256"
# that is not a string ("role key:value"); a top level that is not an
# object, or a key holding a JSON value of the wrong type ("key=value"); an
# unknown command, or an estimate manifest without an input entry; a config
# echo with a key a config file would reject, or a value that does not parse
# ("config.key=value").
@pytest.mark.parametrize("damage", ["truncated", "inputs file", "inputs sha256",
                                    "outputs file", "outputs sha256", "outputs entry",
                                    "inputs file:5", "inputs sha256:null",
                                    "outputs file:5", "outputs sha256:7",
                                    "top=5", "config=[]", "outputs=5", 'base_seed="x"',
                                    "base_seed=1.5", "base_seed=true", "command=5",
                                    'command="foo"', "inputs=[]", "config.substep=5",
                                    'config.bogus="x"', 'config.n="abc"'])
def test_replay_of_a_malformed_manifest_is_config_error(tmp_path, capsys, damage):
    sim_dir, est_dir = str(tmp_path / "sim"), str(tmp_path / "est")
    assert main(["simulate", "--n", "64", "--seed", "2", "--out", sim_dir]) == 0
    assert main(["estimate", "--in", os.path.join(sim_dir, "path.csv"), "--out", est_dir]) == 0
    capsys.readouterr()
    text = Path(est_dir, "manifest.json").read_text(encoding="utf-8")
    if damage == "truncated":
        text = text[:len(text) // 2]
    elif "=" in damage:
        key, value = damage.split("=")
        manifest = json.loads(text)
        if key == "top":
            manifest = json.loads(value)
        elif "." in key:
            role, key = key.split(".")
            manifest[role][key] = json.loads(value)
        else:
            manifest[key] = json.loads(value)
        text = json.dumps(manifest)
    else:
        manifest = json.loads(text)
        role, key = damage.split()
        if ":" in key:
            key, value = key.split(":")
            manifest[role][0][key] = json.loads(value)
        elif key == "entry":
            manifest[role][0] = manifest[role][0]["file"]
        else:
            del manifest[role][0][key]
        text = json.dumps(manifest)
    broken = tmp_path / "manifest.json"
    broken.write_text(text, encoding="utf-8")
    replay_dir = tmp_path / "replay"
    with pytest.raises(ConfigError, match=re.escape(str(broken))):
        replay_manifest(str(broken), str(replay_dir))
    assert not replay_dir.exists()


# The last is raised by the replayed command, and keeps its class.
@pytest.mark.parametrize("damage,message", [
    ("no command", "manifest lacks 'command'"),
    ("config.bogus", "unknown config key 'bogus'"),
    ("compare of model1", "compare needs a jump-free model, and model1 has jumps"),
])
def test_replay_error_names_the_manifest_then_the_fault(tmp_path, capsys, damage, message):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--n", "16", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = load_json(run_dir / "manifest.json")
    if damage == "no command":
        del manifest["command"]
    elif damage == "config.bogus":
        manifest["config"]["bogus"] = 5
    else:
        assert manifest["config"]["model"] == "model1"
        manifest["command"] = "compare"
    broken = tmp_path / "manifest.json"
    broken.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        replay_manifest(str(broken), str(tmp_path / "replay"))
    assert str(err.value) == f"{broken}: {message}"
    want = DegenerateSizeError if damage == "compare of model1" else ConfigError
    assert type(err.value) is want
    assert not (tmp_path / "replay").exists()


def test_cli_estimate_accepts_a_byte_order_mark(tmp_path, capsys, long_run):
    sim_dir = str(tmp_path / "sim")
    assert main(["simulate", "--n", "64", "--seed", "9", "--out", sim_dir]) == 0
    short, long = Path(sim_dir, "path.csv"), long_run / "sim" / "path.csv"
    # The long path's copy also has CRLF endings and blank lines, which
    # numpy's reader takes without the per-line reader.
    crlf = long.read_bytes().replace(b"\n", b"\r\n").replace(b"\r\n", b"\r\n\r\n", 3)
    for path_csv, text in ((short, short.read_bytes()), (long, crlf)):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + text)
        for src, out in ((path_csv, "plain"), (bom_csv, "bom")):
            assert main(["estimate", "--in", str(src), "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "bom" / "report.json").read_bytes()
                == (tmp_path / "plain" / "report.json").read_bytes())
    capsys.readouterr()


def test_cli_env_seed_lands_in_manifest(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "env")
    monkeypatch.setenv("JUMPSIFT_SEED", "424242")
    assert main(["simulate", "--n", "32", "--out", out]) == 0
    capsys.readouterr()
    manifest = load_json(os.path.join(out, "manifest.json"))
    assert manifest["base_seed"] == 424242
    assert manifest["config"]["seed"] == 424242
    assert manifest["rng"]


def test_manifest_records_the_environment(tmp_path, capsys):
    out = str(tmp_path / "env")
    assert main(["simulate", "--n", "32", "--out", out]) == 0
    capsys.readouterr()
    manifest = load_json(os.path.join(out, "manifest.json"))
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "numpy_dispatch": enabled_dispatch_targets(),
                                       "platform": sys.platform}


def enabled_dispatch_targets():
    """numpy's CPU dispatch targets that this process enables, sorted."""
    from numpy._core import _multiarray_umath as umath
    return sorted(name for name in umath.__cpu_dispatch__ if umath.__cpu_features__[name])


def test_manifest_records_no_dispatch_target_with_all_disabled(tmp_path):
    # numpy reads NPY_DISABLE_CPU_FEATURES when it is imported, so in a fresh process.
    out = str(tmp_path / "plain")
    _run_fresh("from jumpsift.cli import main\n"
               f"assert main(['simulate', '--n', '32', '--out', {out!r}]) == 0\n",
               NPY_DISABLE_CPU_FEATURES=" ".join(enabled_dispatch_targets()))
    assert load_json(os.path.join(out, "manifest.json"))["environment"]["numpy_dispatch"] == []


def test_cli_ragged_row_is_runtime_error_naming_the_line(tmp_path, capsys):
    src = tmp_path / "ragged.csv"
    src.write_text("time,x\n0,0\n\n0.5,0.1\n1.0\n", encoding="utf-8")
    assert main(["estimate", "--in", str(src), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"{src}:5:" in err and "too few columns" in err
    with pytest.raises(InvalidArgumentError, match=r"ragged\.csv:5:"):
        read_path_csv(str(src))


def test_cli_non_numeric_cell_is_runtime_error_naming_the_line(tmp_path, capsys):
    src = tmp_path / "text.csv"
    src.write_text("x,time\n0,0\nabc,0.5\n0.2,1.0\n", encoding="utf-8")
    assert main(["detect", "--in", str(src), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"{src}:3:" in err and "numeric" in err
    assert not os.path.exists(tmp_path / "detection.csv")


def test_cli_one_increment_path_reports_null_bipower(tmp_path, capsys):
    src = tmp_path / "two.csv"
    src.write_text("time,x\n0,0\n1,0.5\n", encoding="utf-8")
    for command in ("estimate", "detect"):
        out = tmp_path / command
        assert main([command, "--in", str(src), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["bipower_variation"] is None
        assert report["realized_variance"] == report["iv_threshold"] == 0.25
    capsys.readouterr()
