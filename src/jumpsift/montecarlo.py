"""Repeated-path experiments: normality of the normalized bias, estimator
efficiency under the diffusion null, and the jump-size error law.

Per-path seeds are base_seed XOR path_index, so a run is a pure function of
its ExperimentConfig: fanning the paths out over worker processes changes
neither a single record nor any aggregate bit.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
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
    _bias,
    _interval_runs,
    _path_sums,
    _size_error_stat,
    _warn_if_inadmissible,
)
from .config import ExperimentConfig
from .grids import _check_number
from .models import Model3, compound_poisson_law, finite_activity, has_jumps, model_name
from .engines import SimulationPlan, simulation_plan, spot_integral


# The fields of a per-path record, in the order _single_record returns them.
_RECORD_DTYPE = np.dtype([(name, np.float64) for name in (
    "iv_hat", "true_iv", "normalized_bias", "rv", "bpv", "n_flagged", "tp", "fp", "fn")])


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
    """records: a read-only numpy record array, one row per path in index
    order, with nine float64 fields: iv_hat, true_iv, normalized_bias, rv,
    bpv, n_flagged, tp, fp, fn (records[i].rv and records.rv both work).
    normalized_bias is NaN where it is undefined: on an irregular grid, or
    on an excluded path. tp, fp and fn are NaN without finite-activity
    jumps to match detection against."""

    config: ExperimentConfig
    records: np.recarray
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
    estimates still enter the records. An inadmissible threshold warns
    once per run.
    """
    plan = _plan(cfg, min_paths=1)
    table = np.array(_map_paths(_single_record, plan), dtype=_RECORD_DTYPE)
    table.flags.writeable = False
    iv_hat, true_iv, bias, rv, bpv, _, tp, fp, fn = (table[name] for name in table.dtype.names)

    biases = bias[~np.isnan(bias)]  # none on an irregular grid
    excluded = cfg.n_paths - biases.size if plan.uniform else 0

    ks = moments = hist = None
    if biases.size:
        moments = (Moments(float(biases[0]), 0.0, math.nan, math.nan)
                   if biases.size == 1 else sample_moments(biases))
        ks = ks_statistic(biases)
        hist = build_histogram(biases, DEFAULT_BIN_COUNT, DEFAULT_RANGE)

    estimates = EstimateSummary(
        mean_iv_hat=_mean(iv_hat),
        mean_true_iv=_mean(true_iv),
        mean_abs_error=_mean(np.abs(iv_hat - true_iv)),
        mean_rv=_mean(rv),
        mean_bpv=_mean(bpv),
    )

    detection = None
    if plan.finite_activity:
        jumps = tp + fn
        recalls = tp[jumps > 0] / jumps[jumps > 0]
        detection = DetectionSummary(
            mean_recall=_mean(recalls) if recalls.size else None,
            mean_false_flags=_mean(fp),
            paths_with_jumps=recalls.size,
            total_tp=int(tp.sum()),
            total_fp=int(fp.sum()),
            total_fn=int(fn.sum()),
        )

    return McSummary(
        config=cfg,
        records=table.view(np.recarray),
        n_paths=cfg.n_paths,
        excluded_paths=excluded,
        normality_supported=plan.uniform,
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

    Defined for jump-free models only (DegenerateSizeError otherwise); the
    normalized errors of both estimators then have limiting variances 2
    (threshold) and pi^2/4 + pi - 3 (bipower).
    """
    if has_jumps(cfg.model):
        raise DegenerateSizeError(
            f"compare needs a jump-free model, and {model_name(cfg.model)} has jumps")
    plan = _plan(cfg, min_paths=2)
    if not math.isfinite(plan.error_scale):
        raise InvalidArgumentError(
            f"compare needs a finite error scale sqrt(h * IQ), got {plan.error_scale!r}")
    pairs = _map_paths(_efficiency_pair, plan)
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
    sigma^2 * T and an atom exp(-lam*T) at zero, and a uniform grid; both
    are checked before any path is simulated. An inadmissible threshold
    warns once per run.
    """
    law = compound_poisson_law(cfg.model)
    if law is None:
        raise UnsupportedError(
            "jump-size law needs constant spot volatility and compound Poisson jumps")
    plan = _plan(cfg, min_paths=None)
    if not plan.uniform:
        raise UnsupportedError("jump-size law needs a uniform grid")
    _, sigma, jumps = law
    lam_t = (0.0 if jumps is None else jumps[0]) * cfg.t_end
    var_one = sigma * sigma * cfg.t_end
    cdf = PoissonMixtureCdf(lam_t, var_one)
    samples = np.array(_map_paths(_jump_stat, plan))
    ks = ks_against_cdf(samples, cdf, atom_points=(0.0,))
    return JumpSizeCltResult(samples, ks, lam_t, var_one)


def small_jump_bias_bound(model: Model3, spec: ThresholdSpec, h: float,
                          t_end: float = 1.0) -> float:
    """Leading-order bound on the Variance Gamma small-jump mass kept by the
    threshold: T * eps^2 / b with eps = 2*sqrt(r(h)).

    Near zero the VG Levy density is ~ 1/(b|x|), so the second moment of
    jumps below eps integrates to eps^2/b per unit time.
    """
    if not isinstance(model, Model3):
        raise InvalidArgumentError("bound is defined for Model3 parameters")
    h = _check_number("h", h)
    t_end = _check_number("t_end", t_end)
    # t_end * r first: 4 * t_end can overflow where r is 0, and inf * 0 is NaN.
    return 4.0 * (t_end * spec.r_at(h)) / model.gamma_var


@dataclass(frozen=True, eq=False)
class _RunPlan:
    """What every path of a run reads: built before any path runs, inherited
    by forked workers, and dropped when the run returns. true_iv (the
    integral of sigma^2) and error_scale (sqrt of h times that of sigma^4)
    are the same on every path of a constant-volatility model; None for
    Model2, which always has jumps and so never runs efficiency_comparison.
    uniform is the grid's is_uniform, the rule of the public estimators."""

    cfg: ExperimentConfig
    sim: SimulationPlan
    r: np.ndarray
    uniform: bool
    finite_activity: bool
    true_iv: float | None
    error_scale: float | None


def _plan(cfg: ExperimentConfig, min_paths: int | None) -> _RunPlan:
    """Rejects sizes no run can succeed at (the jump-size statistic, with
    min_paths None, has none), warns once on an inadmissible threshold, and
    builds the run's plan. Building it checks what no path could run with:
    simulation_plan the model on the grid, r_at the threshold scale."""
    if min_paths is not None and cfg.n < 2:
        raise DegenerateSizeError(
            f"n must be >= 2: bipower variation needs at least 2 increments, got n = {cfg.n}")
    if min_paths is not None and cfg.n_paths < min_paths:
        raise DegenerateSizeError(
            f"paths must be >= {min_paths}: a sample variance needs at least"
            f" {min_paths} samples, got paths = {cfg.n_paths}")
    _warn_if_inadmissible(cfg.threshold, stacklevel=4)  # names the entry point's caller
    grid = cfg.build_grid()
    sim = simulation_plan(cfg.model, grid, cfg.substeps)
    r = cfg.threshold.r_at(grid.widths)
    r.flags.writeable = False
    true_iv = scale = None
    if sim.spot is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # _map_paths's; sigma^4 may overflow
            true_iv, true_iq = (spot_integral(sim.spot, sim.fine_widths, p) for p in (2, 4))
        scale = math.sqrt(grid.h * true_iq)
    return _RunPlan(cfg, sim, r, grid.is_uniform, finite_activity(cfg.model), true_iv, scale)


def _single_record(plan: _RunPlan, index: int) -> tuple:
    """The path's row of McSummary.records, in field order. NaN marks only an
    undefined bias: one computed but not finite fails the run, as it would
    fail the normality statistics."""
    x, _, spot, jumps = _simulate_path(plan, index)
    true_iv = plan.true_iv
    if true_iv is None:
        true_iv = spot_integral(spot, plan.sim.fine_widths, 2)
    _, flagged, rv, iv_hat, quartic, bpv = _path_sums(x, plan.r, quartic=plan.uniform)
    n_flagged = np.count_nonzero(flagged)
    tp = fp = fn = math.nan
    if plan.finite_activity:
        jumpy = list(set(jumps[2].tolist()))  # intervals with a jump
        tp = np.count_nonzero(flagged[jumpy])
        fp, fn = n_flagged - tp, len(jumpy) - tp

    bias = math.nan
    if plan.uniform:
        try:
            bias = _bias(iv_hat, quartic, true_iv)
        except DegenerateStatisticError:
            pass
        else:
            if not math.isfinite(bias):
                raise InvalidArgumentError("samples must be finite")

    return iv_hat, true_iv, bias, rv, bpv, n_flagged, tp, fp, fn


def _efficiency_pair(plan: _RunPlan, index: int) -> tuple[float, float]:
    iv, denom = plan.true_iv, plan.error_scale
    _, _, _, iv_hat, _, bpv = _path_sums(_simulate_path(plan, index)[0], plan.r,
                                         quartic=False)
    return (iv_hat - iv) / denom, (bpv - iv) / denom


def _jump_stat(plan: _RunPlan, index: int) -> float:
    x, _, _, (_, sizes, interval) = _simulate_path(plan, index)
    dx, flagged, *_ = _path_sums(x, plan.r, rv=False, quartic=False, bpv=False)
    first_sizes = _interval_runs(interval, sizes)[2]
    return _size_error_stat(plan.cfg.n, dx[flagged].tolist(), first_sizes)


def _simulate_path(plan: _RunPlan, index: int) -> tuple:
    # path_seed without its per-call checks: base_seed passed the INTEGER rule
    # when the config was built, and index comes from range().
    return plan.sim.arrays(plan.cfg.base_seed ^ index)


# Once per run, children included: a path whose sums overflow fails its
# finiteness check with one error, and no numpy warning reaches stderr.
@np.errstate(over="ignore", invalid="ignore")
def _map_paths(fn, plan: _RunPlan) -> list:
    """[fn(plan, i) for i in range(n_paths)], in index order for any worker count.

    The calling process is one of p = min(parallelism, n_paths) processes,
    or of p = 1 without os.fork. Process j computes the paths
    [ceil(j * n_paths / p), ceil((j + 1) * n_paths / p)) in index order: the
    caller is process 0, and it forks the p - 1 others (none at p = 1), which
    inherit the plan. A failure raises as in the serial map: the one at the
    lowest index, with its type and message. A child that dies without
    sending its results raises SimulationError naming its slice.
    """
    n_paths = plan.cfg.n_paths
    procs = min(plan.cfg.parallelism, n_paths) if hasattr(os, "fork") else 1
    bounds = [-(-j * n_paths // procs) for j in range(procs + 1)]
    children = []
    reaped = 0
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_fork_slice(fn, plan, lo, hi))
        results = [fn(plan, i) for i in range(bounds[1])]
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


def _fork_slice(fn, plan: _RunPlan, lo: int, hi: int):
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
                payload = pickle.dumps((True, [fn(plan, i) for i in range(lo, hi)]))
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


def _mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / values.size
