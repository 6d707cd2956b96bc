"""Repeated-path experiments: normality of the normalized bias, estimator
efficiency under the diffusion null, and the jump-size error law.

Per-path seeds are base_seed XOR path_index, so a run is a pure function of
its ExperimentConfig: fanning the paths out over worker processes changes
neither a single record nor any aggregate bit.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
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
from .errors import DegenerateStatisticError, InvalidArgumentError, UnsupportedError
from .estimators import (
    ThresholdSpec,
    _match_events,
    _PathSums,
    _warn_if_inadmissible,
    detect_jumps,
    jump_size_error_stat,
)
from .grids import TimeGrid, build_irregular_grid, build_uniform_grid
from .models import (
    CustomModel,
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
    reports a failure as a ConfigError. parallelism is a worker-count hint
    only; it never affects results.
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
        if self.n_paths < 1:
            raise InvalidArgumentError("n_paths must be >= 1")
        if self.parallelism < 1:
            raise InvalidArgumentError("parallelism must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise InvalidArgumentError("jitter must lie in [0, 1)")
        if self.substeps < 1:
            raise InvalidArgumentError("substeps must be >= 1")

    def build_grid(self) -> TimeGrid:
        if self.jitter == 0.0:
            return build_uniform_grid(self.n, self.t_end)
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
    records = tuple(_map_paths(_single_record, cfg, cfg.n_paths))

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


def efficiency_comparison(cfg: ExperimentConfig, n_paths: int | None = None) -> EfficiencyTable:
    """Threshold-vs-bipower efficiency under the diffusion null.

    The comparison is defined for jump-free models only; the normalized
    errors of both estimators then have limiting variances 2 (threshold)
    and pi^2/4 + pi - 3 (bipower).
    """
    if has_jumps(cfg.model):
        raise InvalidArgumentError(
            "efficiency comparison requires a jump-free model")
    m = cfg.n_paths if n_paths is None else int(n_paths)
    pairs = _map_paths(_efficiency_pair, cfg, m)
    thr = sample_moments([p[0] for p in pairs]).variance
    bpv = sample_moments([p[1] for p in pairs]).variance
    return EfficiencyTable(thr, bpv, bpv / thr, m)


@dataclass(frozen=True, eq=False)
class JumpSizeCltResult:
    """Per-path jump-size error statistics and their mixture-KS diagnostic."""

    samples: np.ndarray
    ks_statistic: float
    lam_t: float
    var_one: float


def jump_size_clt_experiment(cfg: ExperimentConfig, n_paths: int | None = None) -> JumpSizeCltResult:
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
    m = cfg.n_paths if n_paths is None else int(n_paths)
    samples = np.array(_map_paths(_jump_stat, cfg, m))
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


def _map_paths(fn, cfg: ExperimentConfig, n_paths: int) -> list:
    """[fn(cfg, i) for i in range(n_paths)], in index order for any worker count."""
    worker = functools.partial(fn, cfg)
    if cfg.parallelism == 1 or n_paths == 1:
        return [worker(i) for i in range(n_paths)]
    chunk = max(1, n_paths // (cfg.parallelism * 8))
    with multiprocessing.Pool(cfg.parallelism) as pool:
        return pool.map(worker, range(n_paths), chunksize=chunk)


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else math.nan
