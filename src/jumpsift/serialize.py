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
from typing import Iterable

import numpy as np

from .errors import InvalidArgumentError
from .estimators import EstimationReport, JumpDetectionResult
from .grids import TimeGrid
from .models import SamplePath
from .diagnostics import Histogram, Moments
from .montecarlo import EfficiencyTable, ExperimentConfig, McSummary

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(dest: str, header: list[str], rows: Iterable[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_escape(s: str) -> str:
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
    if truth is None:
        header = ["time", "x"]
        rows = zip(path.grid.times, path.observations)
    else:
        step = truth.spot_variance.refinement
        sigma2 = truth.spot_variance.values[::step]
        jump_cum = path.observations - truth.continuous_part
        header = ["time", "x", "x_cont", "jump_cum", "sigma2"]
        rows = zip(path.grid.times, path.observations,
                   truth.continuous_part, jump_cum, sigma2)
    write_csv(dest, header, rows)


def read_path_csv(src: str) -> SamplePath:
    """Reads time and x back; truth columns are not reconstructed."""
    with open(src, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
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
    with open(src, "r", encoding="utf-8") as fh:
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
    dx = np.diff(path.observations)
    rows = []
    for i in range(path.grid.n):
        flagged = bool(det.indicators[i])
        size = fmt_float(det.estimated_sizes[i]) if flagged else ""
        rows.append((i, fmt_float(times[i]), fmt_float(times[i + 1]),
                     fmt_float(dx[i]), int(flagged), size))
    write_csv(dest, ["interval", "t_left", "t_right", "dx", "flagged", "size_hat"],
              rows)


# ---------------------------------------------------------------------------
# monte carlo outputs

def write_histogram_csv(hist: Histogram, dest: str) -> None:
    """bin_left,bin_right,count rows; the first and last rows carry the
    underflow and overflow tails with infinite edges."""
    edges = hist.edges
    rows = [("-inf", fmt_float(hist.lo), hist.underflow)]
    rows.extend((fmt_float(edges[i]), fmt_float(edges[i + 1]), int(hist.counts[i]))
                for i in range(hist.bin_count))
    rows.append((fmt_float(hist.hi), "inf", hist.overflow))
    write_csv(dest, ["bin_left", "bin_right", "count"], rows)


def _moments_dict(m: Moments | None) -> dict | None:
    if m is None:
        return None
    return {
        "mean": m.mean,
        "variance": m.variance,
        "skewness": m.skewness,
        "excess_kurtosis": m.excess_kurtosis,
    }


_MODEL_NAMES = {"Model1": "model1", "Model2": "model2",
                "Model3": "model3", "CustomModel": "custom"}


def model_to_dict(model) -> dict:
    out = {"model": _MODEL_NAMES[type(model).__name__]}
    for field in model.__dataclass_fields__:
        out[field] = getattr(model, field)
    return out


def config_to_dict(cfg: ExperimentConfig, include_parallelism: bool = True) -> dict:
    out = {
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
    # parallelism is a scheduling hint, so the summary echo omits it: runs
    # that differ only in worker count must emit identical bytes.
    if include_parallelism:
        out["parallelism"] = cfg.parallelism
    return out


def summary_to_dict(summary: McSummary) -> dict:
    det = summary.detection
    detection = None
    if det is not None:
        detection = {
            "mean_recall": det.mean_recall,
            "mean_false_flags": det.mean_false_flags,
            "paths_with_jumps": det.paths_with_jumps,
            "total_tp": det.total_tp,
            "total_fp": det.total_fp,
            "total_fn": det.total_fn,
        }
    est = summary.estimates
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(summary.config, include_parallelism=False),
        "n_paths": summary.n_paths,
        "excluded_paths": summary.excluded_paths,
        "normality_supported": summary.normality_supported,
        "ks_statistic": summary.ks_statistic,
        "moments": _moments_dict(summary.moments),
        "estimates": {
            "mean_iv_hat": est.mean_iv_hat,
            "mean_true_iv": est.mean_true_iv,
            "mean_abs_error": est.mean_abs_error,
            "mean_rv": est.mean_rv,
            "mean_bpv": est.mean_bpv,
        },
        "detection": detection,
    }


def write_efficiency_csv(table: EfficiencyTable, dest: str) -> None:
    rows = [
        ("threshold", fmt_float(table.threshold_variance), fmt_float(1.0)),
        ("bipower", fmt_float(table.bipower_variance), fmt_float(table.ratio)),
    ]
    write_csv(dest, ["estimator", "normalized_error_variance", "ratio_to_threshold"],
              rows)


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
        "config": config,
        "outputs": entries,
    }
