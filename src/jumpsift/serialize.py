"""CSV/JSON emission with a fixed byte-level contract.

Floats are written with 17 significant digits so parsing the text back
reproduces the exact double. The JSON emitter is deliberately small and
deterministic: insertion-ordered keys, two-space indent, LF endings, and
non-finite floats mapped to null. CSV files are UTF-8 with a header row
and LF endings.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .errors import InvalidArgumentError
from .estimators import EstimationReport, JumpDetectionResult
from .grids import TimeGrid
from .models import SamplePath, model_name
from .diagnostics import Histogram
from .montecarlo import EfficiencyTable, ExperimentConfig, McSummary

# Format version of config files, manifests, reports and summaries.
SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


# write_csv sends rows out in chunks of _CSV_CHUNK_ROWS, one write each.
_CSV_CHUNK_ROWS = 4096


def write_csv(dest: str, header: list[str], columns: list) -> None:
    """Writes equal-length columns under a header row: a float array with 17
    significant digits, an int array or a list of str as it prints."""
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            fh.write(_csv_rows([c[lo:lo + _CSV_CHUNK_ROWS] for c in columns]))


def _csv_rows(columns: list) -> str:
    """The CSV lines of equal-length column slices. Each distinct double
    among the float columns is formatted once; distinct means the same bit
    pattern, so 0.0 and -0.0 stay apart."""
    floats = [j for j, c in enumerate(columns)
              if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    cells = [list(map(str, c.tolist())) if isinstance(c, np.ndarray) and j not in floats
             else c for j, c in enumerate(columns)]
    if floats:
        block = np.array([columns[j] for j in floats], dtype=np.float64)
        distinct, where = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(list(map("{:.17g}".format, distinct.view(np.float64).tolist())),
                        dtype=object)
        for j, col in zip(floats, text[where.reshape(block.shape)].tolist()):
            cells[j] = col
    return "\n".join(map(",".join, zip(*cells))) + "\n"


# str.translate table for JSON strings: the quote, the backslash and every C0
# control character.
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_JSON_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
                      ord("\r"): "\\r", ord("\t"): "\\t"})


def _json_escape(s: str) -> str:
    return s.translate(_JSON_ESCAPES)


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt_float(x) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return f'"{_json_escape(obj)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InvalidArgumentError("json keys must be strings")
            items.append(f'{pad_in}"{_json_escape(k)}": {_emit(v, indent, level + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [pad_in + _emit(v, indent, level + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _emit(obj, 2, 0) + "\n"


def write_json(dest: str, obj) -> None:
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


# ---------------------------------------------------------------------------
# paths

def write_path_csv(path: SamplePath, dest: str) -> None:
    """One row per grid node. Ground truth, when present, adds the continuous
    component, the cumulative jump part, and the spot variance."""
    truth = path.ground_truth
    columns = [path.grid.times, path.observations]
    if truth is None:
        header = ["time", "x"]
    else:
        step = truth.spot_variance.refinement
        header = ["time", "x", "x_cont", "jump_cum", "sigma2"]
        columns += [truth.continuous_part, path.observations - truth.continuous_part,
                    truth.spot_variance.values[::step]]
    write_csv(dest, header, columns)


def read_path_csv(src: str) -> SamplePath:
    """Reads time and x back; truth columns are not reconstructed.

    numpy's C reader parses the two columns, bit for bit as float() does.
    A file it rejects, one with fewer than two data rows, one whose first
    line is not the header, and one holding a byte in 0x1c-0x1f (which numpy
    skips as whitespace inside a cell and float() does not) go through the
    per-line reader, which decides what is accepted and words the errors.
    """
    data = None
    if not _has_separator_bytes(src):
        try:
            with open(src, "r", encoding="utf-8-sig") as fh:
                header = fh.readline().strip().split(",")
                usecols = (header.index("time"), header.index("x"))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a file without data rows
                    data = np.loadtxt(fh, delimiter=",", usecols=usecols, comments=None,
                                      ndmin=2)
        except ValueError:
            pass
    if data is None or len(data) < 2:
        return _read_path_csv_by_line(src)
    return SamplePath(TimeGrid(data[:, 0].copy()), data[:, 1].copy())


def _has_separator_bytes(src: str) -> bool:
    """True if src holds an ASCII information separator (0x1c-0x1f)."""
    with open(src, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            if any(sep in block for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return True
    return False


def _read_path_csv_by_line(src: str) -> SamplePath:
    """The reference reader: blank and whitespace-only lines are skipped,
    the first other line is the header, and each cell goes through float()."""
    try:
        with open(src, "r", encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{src}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise InvalidArgumentError(f"{src}: empty path file")
    header = lines[0].split(",")
    try:
        t_col, x_col = header.index("time"), header.index("x")
    except ValueError:
        raise InvalidArgumentError(
            f"{src}: header must contain 'time' and 'x' columns") from None
    times, xs = [], []
    try:
        for ln in lines[1:]:
            parts = ln.split(",")
            times.append(float(parts[t_col]))
            xs.append(float(parts[x_col]))
    except (IndexError, ValueError) as exc:
        # xs grows last, so its length is the index of the failing data row.
        what = ("row has too few columns" if isinstance(exc, IndexError)
                else "'time' and 'x' cells must be numeric")
        raise InvalidArgumentError(
            f"{src}:{_nonblank_line_number(src, len(xs) + 1)}: {what}") from None
    if len(times) < 2:
        raise InvalidArgumentError(f"{src}: need at least two rows")
    return SamplePath(TimeGrid(np.array(times)), np.array(xs))


def _nonblank_line_number(src: str, k: int) -> int:
    """1-based line number in src of its k-th (0-based) non-blank line."""
    with open(src, "r", encoding="utf-8-sig") as fh:
        nonblank = (number for number, ln in enumerate(fh, 1) if ln.strip())
        for _ in range(k):
            next(nonblank)
        return next(nonblank)


# ---------------------------------------------------------------------------
# reports and detection

def report_to_dict(report: EstimationReport, path: SamplePath) -> dict:
    spec = report.threshold_used
    return {
        "schema_version": SCHEMA_VERSION,
        "n_intervals": path.grid.n,
        "h": path.grid.h,
        "uniform_grid": path.grid.is_uniform,
        "beta": spec.beta,
        "scale_c": spec.scale_c,
        "per_interval": spec.per_interval,
        "threshold_at_h": float(spec.r_at(path.grid.h)),
        "iv_threshold": report.iv_threshold,
        "iq_threshold": report.iq_threshold,
        "realized_variance": report.realized_variance,
        "bipower_variation": report.bipower_variation,
        "n_flagged": len(report.flagged_intervals),
        "flagged_intervals": list(report.flagged_intervals),
        "jump_size_estimates": [
            {"interval": i, "size_hat": s}
            for i, s in sorted(report.jump_size_estimates.items())
        ],
        "normalized_bias": report.normalized_bias,
        "admissible": report.admissible,
        "admissibility_warning": not report.admissible,
        "admissibility_reason": report.admissibility_reason,
    }


def write_detection_csv(path: SamplePath, det: JumpDetectionResult, dest: str) -> None:
    """One row per interval: size_hat is empty where nothing was flagged."""
    times = path.grid.times
    size_hat = [""] * path.grid.n
    for i in np.flatnonzero(det.indicators).tolist():
        size_hat[i] = fmt_float(det.estimated_sizes[i])
    write_csv(dest, ["interval", "t_left", "t_right", "dx", "flagged", "size_hat"],
              [np.arange(path.grid.n), times[:-1], times[1:], np.diff(path.observations),
               det.indicators.astype(np.int64), size_hat])


# ---------------------------------------------------------------------------
# monte carlo outputs

def write_histogram_csv(hist: Histogram, dest: str) -> None:
    """bin_left,bin_right,count rows; the first and last rows carry the
    underflow and overflow tails with infinite edges."""
    edges = hist.edges  # edges[0] == lo and edges[-1] == hi exactly
    write_csv(dest, ["bin_left", "bin_right", "count"],
              [np.r_[-np.inf, edges], np.r_[edges, np.inf],
               np.r_[hist.underflow, hist.counts, hist.overflow]])


def model_to_dict(model) -> dict:
    out = {"model": model_name(model)}
    for field in model.__dataclass_fields__:
        out[field] = getattr(model, field)
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # parallelism is a scheduling hint, so the echo omits it: runs that
    # differ only in worker count must emit identical bytes.
    return {
        "model": model_to_dict(cfg.model),
        "beta": cfg.threshold.beta,
        "scale_c": cfg.threshold.scale_c,
        "per_interval": cfg.threshold.per_interval,
        "n": cfg.n,
        "t_end": cfg.t_end,
        "jitter": cfg.jitter,
        "substeps": cfg.substeps,
        "n_paths": cfg.n_paths,
        "base_seed": cfg.base_seed,
    }


def summary_to_dict(summary: McSummary) -> dict:
    # The field order of Moments, EstimateSummary and DetectionSummary is the
    # key order of summary.json.
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(summary.config),
        "n_paths": summary.n_paths,
        "excluded_paths": summary.excluded_paths,
        "normality_supported": summary.normality_supported,
        "ks_statistic": summary.ks_statistic,
        "moments": summary.moments and asdict(summary.moments),
        "estimates": asdict(summary.estimates),
        "detection": summary.detection and asdict(summary.detection),
    }


def write_efficiency_csv(table: EfficiencyTable, dest: str) -> None:
    write_csv(dest, ["estimator", "normalized_error_variance", "ratio_to_threshold"],
              [["threshold", "bipower"],
               np.array([table.threshold_variance, table.bipower_variance]),
               np.array([1.0, table.ratio])])


# ---------------------------------------------------------------------------
# run manifests

def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(command: str, config: dict, base_seed: int, rng_id: str,
                   version: str, created_utc: str, out_dir: str,
                   outputs: list[str]) -> dict:
    entries = [{"file": name,
                "sha256": file_sha256(os.path.join(out_dir, name)),
                "bytes": os.path.getsize(os.path.join(out_dir, name))}
               for name in outputs]
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "jumpsift",
        "version": version,
        "command": command,
        "rng": rng_id,
        "base_seed": base_seed,
        "created_utc": created_utc,
        # Byte identity of the outputs assumes the same numpy major version.
        "environment": {"python": "%d.%d.%d" % sys.version_info[:3],
                        "numpy": np.__version__, "platform": sys.platform},
        "config": config,
        "outputs": entries,
    }
