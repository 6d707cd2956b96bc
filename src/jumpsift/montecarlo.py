"""Repeated-path experiments: normality of the normalized bias, estimator
efficiency under the diffusion null, and the jump-size error law.

Per-path seeds are base_seed XOR path_index, so a run is a pure function of
its ExperimentConfig: fanning the paths out over worker processes changes
neither a single record nor any aggregate bit.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    DEFAULT_BIN_COUNT,
    DEFAULT_RANGE,
    Histogram,
    Moments,
    PoissonMixtureCdf,
    build_histogram,
    ks_against_cdf,
    ks_statistic,
    sample_moments,
)
from .errors import (
    DegenerateSizeError,
    DegenerateStatisticError,
    InvalidArgumentError,
    SimulationError,
    UnsupportedError,
)
from .estimators import (
    ThresholdSpec,
    _match_events,
    _PathSums,
    _warn_if_inadmissible,
    detect_jumps,
    jump_size_error_stat,
)
from .grids import TimeGrid, build_irregular_grid
from .models import (
    Model1,
    Model3,
    ModelConfig,
    constant_sigma,
    finite_activity,
    has_jumps,
)
from .engines import path_seed, simulate, true_integrated_variance


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything a repeated-path run depends on.

    Construction checks the range of every run parameter; the config layer
    reports a failure as a ConfigError. parallelism is the total number of
    processes, the calling one included: the caller computes the first
    ceil(n_paths / parallelism) paths, and each of parallelism - 1 forked
    children one contiguous slice of the rest. A child that dies raises
    SimulationError; without os.fork every path runs in the caller. It never
    affects results.
    """

    model: ModelConfig
    threshold: ThresholdSpec
    n: int = 2000
    t_end: float = 1.0
    jitter: float = 0.0
    substeps: int = 1
    n_paths: int = 500
    base_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgumentError("n must be >= 1")
        if not (self.t_end > 0.0) or not math.isfinite(self.t_end):
            raise InvalidArgumentError("t_end must be positive and finite")
        if self.t_end / self.n < sys.float_info.min:
            # Below it, n + 1 distinct times need not fit in [0, t].
            raise InvalidArgumentError(
                f"t / n must be at least the smallest normal double"
                f" ({sys.float_info.min!r}), got t = {self.t_end!r}, n = {self.n}")
        if self.n_paths < 1:
            raise InvalidArgumentError("n_paths must be >= 1")
        if self.parallelism < 1:
            raise InvalidArgumentError("parallelism must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise InvalidArgumentError("jitter must lie in [0, 1)")
        if self.substeps < 1:
            raise InvalidArgumentError("substeps must be >= 1")

    def build_grid(self) -> TimeGrid:
        return build_irregular_grid(self.n, self.t_end, self.jitter, self.base_seed)


@dataclass(frozen=True, slots=True)
class PathRecord:
    """Per-path estimates; detection counts are None without ground truth
    that detection can be matched against (finite-activity jumps)."""

    path_index: int
    iv_hat: float
    true_iv: float
    normalized_bias: float | None
    rv: float
    bpv: float
    n_flagged: int
    tp: int | None
    fp: int | None
    fn: int | None


@dataclass(frozen=True, slots=True)
class DetectionSummary:
    mean_recall: float | None       # over paths holding at least one jump
    mean_false_flags: float         # over all paths
    paths_with_jumps: int
    total_tp: int
    total_fp: int
    total_fn: int


@dataclass(frozen=True, slots=True)
class EstimateSummary:
    mean_iv_hat: float
    mean_true_iv: float
    mean_abs_error: float
    mean_rv: float
    mean_bpv: float


@dataclass(frozen=True, eq=False)
class McSummary:
    config: ExperimentConfig
    records: tuple[PathRecord, ...]
    n_paths: int
    excluded_paths: int
    normality_supported: bool
    ks_statistic: float | None
    moments: Moments | None
    histogram: Histogram | None
    estimates: EstimateSummary
    detection: DetectionSummary | None


def run_experiment(cfg: ExperimentConfig) -> McSummary:
    """Simulate n_paths paths, estimate each, and aggregate.

    Paths with a degenerate normalized-bias denominator are excluded from
    the normality statistics and counted in excluded_paths; their other
    estimates still enter the record list.
    """
    _require_sizes(cfg, min_paths=1)
    records = tuple(_map_paths(_single_record, cfg))

    uniform = cfg.jitter == 0.0
    biases = np.array([r.normalized_bias for r in records
                       if r.normalized_bias is not None])
    excluded = sum(1 for r in records if r.normalized_bias is None) if uniform else 0

    ks = moments = hist = None
    if uniform and biases.size:
        moments = (Moments(float(biases[0]), 0.0, math.nan, math.nan)
                   if biases.size == 1 else sample_moments(biases))
        ks = ks_statistic(biases)
        hist = build_histogram(biases, DEFAULT_BIN_COUNT, DEFAULT_RANGE)

    estimates = EstimateSummary(
        mean_iv_hat=_mean([r.iv_hat for r in records]),
        mean_true_iv=_mean([r.true_iv for r in records]),
        mean_abs_error=_mean([abs(r.iv_hat - r.true_iv) for r in records]),
        mean_rv=_mean([r.rv for r in records]),
        mean_bpv=_mean([r.bpv for r in records]),
    )

    detection = None
    if finite_activity(cfg.model):
        recalls = [r.tp / (r.tp + r.fn) for r in records if (r.tp + r.fn) > 0]
        detection = DetectionSummary(
            mean_recall=_mean(recalls) if recalls else None,
            mean_false_flags=_mean([r.fp for r in records]),
            paths_with_jumps=len(recalls),
            total_tp=sum(r.tp for r in records),
            total_fp=sum(r.fp for r in records),
            total_fn=sum(r.fn for r in records),
        )

    return McSummary(
        config=cfg,
        records=records,
        n_paths=cfg.n_paths,
        excluded_paths=excluded,
        normality_supported=uniform,
        ks_statistic=ks,
        moments=moments,
        histogram=hist,
        estimates=estimates,
        detection=detection,
    )


@dataclass(frozen=True, eq=False)
class EfficiencyTable:
    """Empirical variances of (estimator - IV) / sqrt(h * IQ) per estimator."""

    threshold_variance: float
    bipower_variance: float
    ratio: float
    n_paths: int


def efficiency_comparison(cfg: ExperimentConfig) -> EfficiencyTable:
    """Threshold-vs-bipower efficiency under the diffusion null.

    The comparison is defined for jump-free models only; the normalized
    errors of both estimators then have limiting variances 2 (threshold)
    and pi^2/4 + pi - 3 (bipower).
    """
    if has_jumps(cfg.model):
        raise InvalidArgumentError(
            "efficiency comparison requires a jump-free model")
    _require_sizes(cfg, min_paths=2)
    pairs = _map_paths(_efficiency_pair, cfg)
    thr = sample_moments([p[0] for p in pairs]).variance
    bpv = sample_moments([p[1] for p in pairs]).variance
    return EfficiencyTable(thr, bpv, bpv / thr, cfg.n_paths)


@dataclass(frozen=True, eq=False)
class JumpSizeCltResult:
    """Per-path jump-size error statistics and their mixture-KS diagnostic."""

    samples: np.ndarray
    ks_statistic: float
    lam_t: float
    var_one: float


def jump_size_clt_experiment(cfg: ExperimentConfig) -> JumpSizeCltResult:
    """Distribution check for sqrt(n) * sum(gamma_hat - gamma).

    Requires constant spot volatility and compound Poisson jumps, for which
    the limit law is the Poisson-mixed Gaussian with per-event variance
    sigma^2 * T and an atom exp(-lam*T) at zero.
    """
    sigma = constant_sigma(cfg.model)
    if sigma is None:
        raise UnsupportedError("jump-size law needs constant spot volatility")
    if isinstance(cfg.model, Model3):
        raise UnsupportedError("jump-size law needs compound Poisson jumps")
    if isinstance(cfg.model, Model1):
        lam = cfg.model.jump_intensity
    else:
        params = cfg.model.jump_params()
        lam = 0.0 if params is None else params[0]
    samples = np.array(_map_paths(_jump_stat, cfg))
    mixture = PoissonMixtureCdf(lam * cfg.t_end, sigma * sigma * cfg.t_end)
    ks = ks_against_cdf(samples, mixture, atom_points=(0.0,))
    return JumpSizeCltResult(samples, ks, lam * cfg.t_end, sigma * sigma * cfg.t_end)


def small_jump_bias_bound(model: Model3, spec: ThresholdSpec, h: float,
                          t_end: float = 1.0) -> float:
    """Leading-order bound on the Variance Gamma small-jump mass kept by the
    threshold: T * eps^2 / b with eps = 2*sqrt(r(h)).

    Near zero the VG Levy density is ~ 1/(b|x|), so the second moment of
    jumps below eps integrates to eps^2/b per unit time.
    """
    if not isinstance(model, Model3):
        raise InvalidArgumentError("bound is defined for Model3 parameters")
    if not (h > 0.0) or not (t_end > 0.0):
        raise InvalidArgumentError("h and t_end must be positive")
    if spec.scale_c <= 0.0:
        raise InvalidArgumentError("threshold scale must be positive")
    r = float(spec.r_at(h))
    return 4.0 * t_end * r / model.gamma_var


def _require_sizes(cfg: ExperimentConfig, min_paths: int) -> None:
    """Rejects sizes no run can succeed at, before any path is simulated."""
    if cfg.n < 2:
        raise DegenerateSizeError(
            f"n must be >= 2: bipower variation needs at least 2 increments, got n = {cfg.n}")
    if cfg.n_paths < min_paths:
        raise DegenerateSizeError(
            f"paths must be >= {min_paths}: a sample variance needs at least"
            f" {min_paths} samples, got paths = {cfg.n_paths}")


def _single_record(cfg: ExperimentConfig, index: int) -> PathRecord:
    path = _simulate_path(cfg, index)
    true_iv = true_integrated_variance(path, 2)
    _warn_if_inadmissible(cfg.threshold)
    sums = _PathSums(path, cfg.threshold)
    # The quartic sum is read only for the normalized bias of a uniform run.
    sums.fill("rv", "bpv", *(("quartic",) if cfg.jitter == 0.0 else ()))
    match = None
    if finite_activity(cfg.model):
        match = _match_events(path.grid.times, sums.flagged, sums.dx, path.ground_truth.jumps)

    bias = None
    if cfg.jitter == 0.0:
        try:
            bias = sums.normalized_bias(true_iv)
        except DegenerateStatisticError:
            bias = None

    return PathRecord(
        path_index=index,
        iv_hat=sums.iv_hat,
        true_iv=true_iv,
        normalized_bias=bias,
        rv=sums.rv,
        bpv=sums.bpv,
        n_flagged=int(np.count_nonzero(sums.flagged)),
        tp=match.true_positives if match else None,
        fp=match.false_positives if match else None,
        fn=match.false_negatives if match else None,
    )


def _efficiency_pair(cfg: ExperimentConfig, index: int) -> tuple[float, float]:
    path = _simulate_path(cfg, index)
    iv = true_integrated_variance(path, 2)
    iq = true_integrated_variance(path, 4)
    denom = math.sqrt(path.grid.h * iq)
    _warn_if_inadmissible(cfg.threshold)
    sums = _PathSums(path, cfg.threshold)
    sums.fill("rv", "bpv")
    thr = (sums.iv_hat - iv) / denom
    bpv = (sums.bpv - iv) / denom
    return thr, bpv


def _jump_stat(cfg: ExperimentConfig, index: int) -> float:
    path = _simulate_path(cfg, index)
    det = detect_jumps(path, cfg.threshold)
    return jump_size_error_stat(path, det, path.ground_truth.jumps)


def _simulate_path(cfg: ExperimentConfig, index: int):
    return simulate(cfg.model, _grid_for(cfg), cfg.substeps, path_seed(cfg.base_seed, index))


@functools.lru_cache(maxsize=8)
def _grid_for(cfg: ExperimentConfig) -> TimeGrid:
    return cfg.build_grid()


def _map_paths(fn, cfg: ExperimentConfig) -> list:
    """[fn(cfg, i) for i in range(cfg.n_paths)], in index order for any worker count.

    The calling process is one of p = min(parallelism, n_paths) processes.
    It forks p - 1 children, each computing one contiguous slice of
    [ceil(n_paths / p), n_paths) in index order, and computes the paths
    [0, ceil(n_paths / p)) itself. A failure raises as in the serial map:
    the one at the lowest index, with its type and message. A child that
    dies without sending its results raises SimulationError naming its
    slice. Without os.fork the map runs serially.
    """
    n_paths = cfg.n_paths
    procs = min(cfg.parallelism, n_paths) if hasattr(os, "fork") else 1
    if procs == 1:
        return [fn(cfg, i) for i in range(n_paths)]
    own = -(-n_paths // procs)
    rest = n_paths - own
    bounds = [own + j * rest // (procs - 1) for j in range(procs)]
    children = []
    reaped = 0
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            children.append(_fork_slice(fn, cfg, lo, hi))
        results = [fn(cfg, i) for i in range(own)]
        for pid, pipe, lo, hi in children:
            payload = pipe.read()
            pipe.close()
            reaped += 1
            results.extend(_unpack_slice(payload, os.waitpid(pid, 0)[1], lo, hi))
    finally:
        # Children are left here only after a failure; their results are not needed.
        for pid, pipe, _, _ in children[reaped:]:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _fork_slice(fn, cfg: ExperimentConfig, lo: int, hi: int):
    """Forks a child that writes pickle.dumps((ok, records or exception))
    for the paths [lo, hi) to a pipe; returns (pid, the pipe's read end,
    lo, hi)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child always leaves here, never returning into the caller's stack.
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, [fn(cfg, i) for i in range(lo, hi)]))
            except Exception as exc:
                payload = pickle.dumps((False, exc))
            with open(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb"), lo, hi


def _unpack_slice(payload: bytes, status: int, lo: int, hi: int) -> list:
    """A reaped child's records; raises its exception, or SimulationError if
    it sent no complete payload."""
    try:
        ok, value = pickle.loads(payload)
    except Exception:
        if os.WIFSIGNALED(status):
            how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise SimulationError(
            f"the worker for paths {lo} to {hi - 1} {how}"
            " without sending its results") from None
    if not ok:
        raise value
    return value


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else math.nan
