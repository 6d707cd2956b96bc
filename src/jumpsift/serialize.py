"""CSV/JSON emission with a fixed byte-level contract.

Floats are written with 17 significant digits so parsing the text back
reproduces the exact double. The JSON emitter is deliberately small and
deterministic: insertion-ordered keys, two-space indent, LF endings, and
non-finite floats mapped to null. CSV files are UTF-8 with a header row
and LF endings. Every table is built in numpy from NUL-padded slots, one per
cell: float cells certified to match format(x, ".17g") or formatted by it
(every cell of a column shorter than _KERNEL_MIN_VALUES), int cells as str()
prints them (tests/sweep_float_text.py), and bytes cells as they are.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import warnings
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidArgumentError
from .estimators import EstimationReport, JumpDetectionResult
from .grids import TimeGrid
from .models import SCHEMA_VERSION, SamplePath, model_name
if TYPE_CHECKING:  # annotations only: simulate, estimate and detect never load these
    from .config import ExperimentConfig
    from .diagnostics import Histogram
    from .montecarlo import EfficiencyTable, McSummary


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


# write_csv sends rows out in chunks of _CSV_CHUNK_ROWS, one write each.
_CSV_CHUNK_ROWS = 4096


def write_csv(dest: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Writes equal-length columns, of the kinds _join_slots takes, under a
    header row."""
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    _write_table(dest, header, n, lambda lo, hi: _join_slots([c[lo:hi] for c in columns]))


def _write_table(dest: str, header: list[str], n: int, chunk) -> None:
    """Writes the header row, then the bytes chunk(lo, hi) of rows lo to hi,
    _CSV_CHUNK_ROWS at a time."""
    with open(dest, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            fh.write(chunk(lo, min(lo + _CSV_CHUNK_ROWS, n)))


def _join_slots(columns: list[np.ndarray]) -> bytes:
    """CSV lines from equal-length columns, one NUL-padded slot per cell: a
    float array with 17 significant digits, an int array as str() prints it,
    an ASCII bytes array or a uint8 array of slots as it is. Commas go between
    the cells, LF after each row, and the padding is deleted."""
    slots = [_float_slots(np.asarray(c, np.float64)) if c.dtype.kind == "f"
             else _int_slots(np.asarray(c, np.int64)) if c.dtype.kind == "i"
             else c.view(np.uint8).reshape(len(c), -1) for c in columns]
    sep = np.full((len(slots[0]), 1), ord(","), np.uint8)
    parts = [part for slot in slots for part in (slot, sep)]
    parts[-1] = np.full_like(sep, ord("\n"))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _int_slots(x: np.ndarray) -> np.ndarray:
    """NUL-padded slots holding str(v) of each v in the int64 array x, one
    byte for the sign and as many for digits as the largest magnitude has."""
    a = np.abs(x).view(np.uint64)  # abs(-2**63) wraps to itself, 2**63 unsigned
    digits = np.empty((len(str(int(a.max(initial=0)))), len(x)), np.uint8)
    for k in range(len(digits) - 1, -1, -1):
        q = a // 10
        digits[k] = a - q * 10
        a = q
    shown = np.maximum.accumulate(digits, axis=0) > 0
    shown[-1] = True  # 0 is one '0' digit
    slots = np.empty((len(x), 1 + len(digits)), np.uint8)
    slots[:, 0] = (x < 0) * ord("-")
    slots[:, 1:] = ((digits | 0x30) * shown).T
    return slots


# _float_slots certifies |x| in [1e-30, 1e30], exponents e in [-30, 30]; the
# tables run one further each side. 10**(16 - e) is num / den, then hi + lo,
# each rounded to nearest as Python's int division is, and hi split for Dekker.
_E_MIN, _E_MAX = -31, 31
_TENS = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in range(16 - _E_MIN, 15 - _E_MAX, -1)]
_POW_HI = np.array([num / den for num, den in _TENS])
_POW_LO = np.array([(num * s - h * den) / (den * s) for (num, den), (h, s)
                    in zip(_TENS, map(float.as_integer_ratio, _POW_HI.tolist()))])
_SPLIT = 134217729.0  # 2**27 + 1
_POW_HH = _SPLIT * _POW_HI - (_SPLIT * _POW_HI - _POW_HI)
_POW_HL = _POW_HI - _POW_HH

# A float slot is 28 bytes: the sign, 5 for text before the digits ("0.000"),
# 18 for the 17 digits and a point among them, and 4 for an exponent. For
# exponent index i = e - _E_MIN, '.17g' puts the first _POINT[i] digits in the
# places _BEFORE[i] marks and the rest in those _AFTER[i] marks; row 2 * i of
# _TEXT holds the other text, and row 2 * i + 1 adds the point among the digits.
_POINT = np.zeros(_E_MAX - _E_MIN + 1, np.int64)
_BEFORE, _AFTER = np.zeros((2, len(_POINT), 28), np.uint8)
_TEXT = np.zeros((2 * len(_POINT), 28), np.uint8)
for _i, _e in enumerate(range(_E_MIN, _E_MAX + 1)):
    _head = "0." + "0" * (-_e - 1) if -4 <= _e < 0 else ""
    _tail = "" if -4 <= _e < 17 else f"e{_e:+03d}"
    _POINT[_i] = _e + 1 if 0 <= _e < 17 else 0 if _head else 1
    _BEFORE[_i, 6:6 + _POINT[_i]] = _AFTER[_i, 7 + _POINT[_i]:24] = 0xFF
    _TEXT[2 * _i:2 * _i + 2, 6 - len(_head):6] = list(_head.encode())
    _TEXT[2 * _i:2 * _i + 2, 24:24 + len(_tail)] = list(_tail.encode())
    _TEXT[2 * _i + 1, 6 + _POINT[_i]] = 0 if _head else ord(".")
# Row k: the '0' bit set on the first k of 17 digits.
_SHOWN = np.tril(np.full((18, 17), 0x30, np.uint8), -1)
# A column shorter than this goes to format() value by value, which is faster
# there: on a 2-core x86-64 box the kernel's fixed cost, about 140 us, bought
# 150 to 175 calls of format() at 0.55 to 0.9 us each.
_KERNEL_MIN_VALUES = 160


def _times_pow10(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + t: p = fl(a * hi), t its exact error plus a * lo."""
    i = e - _E_MIN
    hi, hh, hl = _POW_HI[i], _POW_HH[i], _POW_HL[i]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    return p, (al * hl - (((p - ah * hh) - al * hh) - ah * hl)) + a * _POW_LO[i]


def _float_slots(x: np.ndarray) -> np.ndarray:
    """28-byte NUL-padded slots holding format(v, ".17g") of each v in x.

    For |v| in [1e-30, 1e30] and e = floor(log10 |v|), the 17 digits are
    D = round(y), y = |v| * 10**(16 - e). _times_pow10 gives y as p + t, p an
    integer double in [2**53, 2**57) and |t| < 32, with an error below 2**-47:
    2**-49 each from the double-double's 2**-106 relative error, from rounding
    a * lo and from adding it to the exact error term. A cell is certified if
    the fraction of t lies more than 2**-30 from 1/2, so y rounds as p + t
    does. e is guessed from log10 and corrected from p + t before rounding; a
    D rounded up to 10**17 carries into e. Zeros print as a signed '0'.
    Non-finite values, those out of range, near-ties and every value of a
    column shorter than _KERNEL_MIN_VALUES go to format().
    """
    if len(x) < _KERNEL_MIN_VALUES:
        return _format_slots(x)
    a = np.abs(x)
    fast = (a >= 1e-30) & (a <= 1e30)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _times_pow10(a, e)
    off = ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)
    if off.any():
        e += off
        p, t = _times_pow10(a, e)
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) > 2.0 ** -30
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    i = e + carry - _E_MIN
    d[x == 0] = 0  # shown as one '0' digit, signed by its sign bit
    fast |= x == 0
    # d's 17 digits, from its 8- and 9-digit halves, and how many precede trailing zeros.
    high = d // 10 ** 9
    halves = np.array([high, d - high * 10 ** 9], dtype=np.uint32)
    digits = np.empty((2, 9, len(x)), np.uint8)
    for k in range(8, -1, -1):
        q = halves // 10
        digits[:, k] = halves - q * 10
        halves = q
    digits = digits.reshape(18, -1)[1:]
    significant = ((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)
    shown = np.maximum(significant, _POINT[i])
    padded = np.zeros((len(x), 29), np.uint8)
    padded[:, 7:24] = digits.T | np.take(_SHOWN, shown, axis=0)
    slots = (np.take(_TEXT, 2 * i + (significant > _POINT[i]), axis=0)
             | (padded[:, 1:] & np.take(_BEFORE, i, axis=0))
             | (padded[:, :-1] & np.take(_AFTER, i, axis=0)))
    slots[:, 0] = np.signbit(x) * ord("-")
    slow = np.flatnonzero(~fast)
    slots[slow] = _format_slots(x[slow])
    return slots


def _format_slots(x: np.ndarray) -> np.ndarray:
    """The slots of _float_slots(x), each formatted by format(v, ".17g")."""
    text = [format(v, ".17g") for v in x.tolist()]
    return np.array(text, dtype="S28").view(np.uint8).reshape(-1, 28)


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
        header = ["time", "x", "x_cont", "jump_cum", "sigma2"]
        columns += [truth.continuous_part, path.observations - truth.continuous_part,
                    truth.spot_variance[::truth.refinement]]
    write_csv(dest, header, columns)


def read_path_csv(src: str) -> SamplePath:
    """Reads time and x back; truth columns are not reconstructed.

    numpy's C reader, given the path, reads the file in blocks and parses
    the two columns bit for bit as float() does. A file it rejects, one with
    fewer than two data rows, one whose first line is not the header, one
    holding a byte in 0x1c-0x1f (which numpy skips as whitespace inside a
    cell and float() does not), and one whose name ends in a suffix numpy
    decompresses go through the per-line reader, which decides what is
    accepted and words the errors.
    """
    data = None
    if not _has_separator_bytes(src) and not str(src).endswith((".bz2", ".gz", ".xz", ".lzma")):
        try:
            with open(src, "r", encoding="utf-8-sig") as fh:
                header = fh.readline().strip().split(",")
            usecols = (header.index("time"), header.index("x"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without data rows
                # An absolute name has no URL scheme, so numpy opens the local file.
                data = np.loadtxt(os.path.abspath(src), delimiter=",", skiprows=1,
                                  encoding="utf-8-sig", usecols=usecols, comments=None,
                                  ndmin=2)
        except ValueError:
            pass
    if data is None or len(data) < 2:
        return _read_path_csv_by_line(src)
    return _path_from_columns(src, data[:, 0].copy(), data[:, 1].copy())


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
            lines = [(number, ln.strip()) for number, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{src}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise InvalidArgumentError(f"{src}: empty path file")
    header = lines[0][1].split(",")
    try:
        t_col, x_col = header.index("time"), header.index("x")
    except ValueError:
        raise InvalidArgumentError(
            f"{src}: header must contain 'time' and 'x' columns") from None
    times, xs = [], []
    try:
        for number, ln in lines[1:]:
            parts = ln.split(",")
            times.append(float(parts[t_col]))
            xs.append(float(parts[x_col]))
    except (IndexError, ValueError) as exc:
        what = ("row has too few columns" if isinstance(exc, IndexError)
                else "'time' and 'x' cells must be numeric")
        raise InvalidArgumentError(f"{src}:{number}: {what}") from None
    if len(times) < 2:
        raise InvalidArgumentError(f"{src}: need at least two rows")
    return _path_from_columns(src, np.array(times), np.array(xs))


def _path_from_columns(src: str, times: np.ndarray, xs: np.ndarray) -> SamplePath:
    try:
        grid = TimeGrid(times)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{src}: time column: {exc}") from None
    return SamplePath(grid, xs)


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
        # Schema 1 keeps the key; r is always evaluated at each lag.
        "per_interval": True,
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
    """One row per interval: size_hat is empty where nothing was flagged.
    Each time is formatted once, as one row's t_right and the next row's
    t_left, and each flagged size once."""
    n, times, dx = path.grid.n, path.grid.times, path.increments
    flagged = det.indicators.astype(np.int64)
    if len(flagged) != n:
        raise ValueError(f"columns differ in length: {sorted({n, len(flagged)})}")
    where = np.flatnonzero(flagged)
    sizes = _float_slots(np.array([det.estimated_sizes[i] for i in where.tolist()], np.float64))

    def chunk(lo: int, hi: int) -> bytes:
        t = _float_slots(times[lo:hi + 1])
        size_hat = np.zeros((hi - lo, sizes.shape[1]), np.uint8)
        first, last = np.searchsorted(where, [lo, hi])
        size_hat[where[first:last] - lo] = sizes[first:last]
        return _join_slots([np.arange(lo, hi), t[:-1], t[1:], dx[lo:hi], flagged[lo:hi],
                            size_hat])
    _write_table(dest, ["interval", "t_left", "t_right", "dx", "flagged", "size_hat"], n, chunk)


# ---------------------------------------------------------------------------
# monte carlo outputs

def write_histogram_csv(hist: Histogram, dest: str) -> None:
    """bin_left,bin_right,count rows; the first and last rows carry the
    underflow and overflow tails with infinite edges."""
    # hist.edges[0] == lo and hist.edges[-1] == hi exactly. Each edge is
    # formatted once, as one row's bin_right and the next row's bin_left.
    edges = _float_slots(np.r_[-np.inf, hist.edges, np.inf])
    write_csv(dest, ["bin_left", "bin_right", "count"],
              [edges[:-1], edges[1:], np.r_[hist.underflow, hist.counts, hist.overflow]])


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
        # Schema 1 keeps the key; r is always evaluated at each lag.
        "per_interval": True,
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
              [np.array([b"threshold", b"bipower"]),
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
