import dataclasses
import math
import os
import signal
import sys
import warnings

import numpy as np
import pytest

from jumpsift import (
    AdmissibilityWarning,
    CustomModel,
    ExperimentConfig,
    InvalidArgumentError,
    Model1,
    Model2,
    Model3,
    SimulationError,
    ThresholdSpec,
    UnsupportedError,
    efficiency_comparison,
    jump_size_clt_experiment,
    path_seed,
    run_experiment,
    simulate,
    small_jump_bias_bound,
    threshold_realized_variance,
    true_integrated_variance,
)
from jumpsift.montecarlo import _map_paths

SPEC09 = ThresholdSpec(0.9, 1.0)


def small_cfg(**kw):
    base = dict(model=Model1(), threshold=SPEC09, n=200, n_paths=32,
                base_seed=2024, parallelism=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_is_deterministic():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert a.records == b.records
    assert a.ks_statistic == b.ks_statistic
    assert a.moments == b.moments


def test_parallelism_does_not_change_results():
    serial = run_experiment(small_cfg())
    pooled = run_experiment(small_cfg(parallelism=3))
    assert serial.records == pooled.records
    assert serial.ks_statistic == pooled.ks_statistic
    assert serial.estimates == pooled.estimates
    assert np.array_equal(serial.histogram.counts, pooled.histogram.counts)


@pytest.mark.parametrize("parallelism", [1, 2, 3, 7, 10])
def test_every_process_count_gives_the_serial_bits(parallelism):
    def pair(**kw):
        serial = small_cfg(n_paths=7, **kw)
        return serial, dataclasses.replace(serial, parallelism=parallelism)

    serial, pooled = pair()
    a, b = run_experiment(serial), run_experiment(pooled)
    # repr round-trips each double, so equal reprs are equal bits.
    assert repr(a.records) == repr(b.records)
    ha, hb = a.histogram, b.histogram
    assert ha.counts.tobytes() == hb.counts.tobytes()
    assert repr((ha.lo, ha.hi, ha.underflow, ha.overflow)) == repr(
        (hb.lo, hb.hi, hb.underflow, hb.overflow))

    serial, pooled = pair(model=CustomModel())
    assert (repr(vars(efficiency_comparison(serial)))
            == repr(vars(efficiency_comparison(pooled))))

    serial, pooled = pair()
    assert (jump_size_clt_experiment(serial).samples.tobytes()
            == jump_size_clt_experiment(pooled).samples.tobytes())


def _fail_at_base_seed(cfg, index):
    """A per-path function that fails at the path whose index is the base seed."""
    if index == cfg.base_seed:
        raise SimulationError(f"path {index} failed")
    return index


# With 7 paths over 2 processes the caller computes paths 0-3 and the worker 4-6.
@pytest.mark.parametrize("fail_at", [0, 2, 5, 6])
def test_a_failing_path_raises_as_in_the_serial_map_and_leaves_no_worker(fail_at):
    cfg = small_cfg(n_paths=7, base_seed=fail_at)
    with pytest.raises(SimulationError) as serial:
        _map_paths(_fail_at_base_seed, cfg)
    with pytest.raises(SimulationError) as pooled:
        _map_paths(_fail_at_base_seed, dataclasses.replace(cfg, parallelism=2))
    assert type(pooled.value) is type(serial.value)
    assert str(pooled.value) == str(serial.value) == f"path {fail_at} failed"
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _die_at_base_seed(cfg, index):
    """A per-path function that kills its own process at the path whose
    index is the base seed."""
    if index == cfg.base_seed:
        os.kill(os.getpid(), signal.SIGKILL)
    return index


# With 7 paths over 2 processes the caller computes paths 0-3 and the child
# 4-6; over 3 processes the caller takes 0-2 and the children 3-4 and 5-6.
@pytest.mark.parametrize("parallelism,die_at,slice_",
                         [(2, 5, "4 to 6"), (3, 4, "3 to 4"), (3, 5, "5 to 6")])
def test_a_worker_that_dies_raises_simulation_error(parallelism, die_at, slice_):
    cfg = small_cfg(n_paths=7, base_seed=die_at, parallelism=parallelism)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        with pytest.raises(SimulationError, match=(
                f"the worker for paths {slice_} was killed by SIGKILL"
                " without sending its results")):
            _map_paths(_die_at_base_seed, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def _raise_timeout(signum, frame):
    raise TimeoutError("_map_paths did not return within 10 s")


def test_without_fork_the_map_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    got = _map_paths(lambda cfg, i: (i, os.getpid()), small_cfg(n_paths=5, parallelism=3))
    assert got == [(i, os.getpid()) for i in range(5)]


def test_records_match_standalone_pipeline():
    cfg = small_cfg()
    summary = run_experiment(cfg)
    grid = cfg.build_grid()
    for i in (0, 7, 31):
        path = simulate(cfg.model, grid, cfg.substeps,
                        path_seed(cfg.base_seed, i))
        rec = summary.records[i]
        assert rec.path_index == i
        assert rec.iv_hat == threshold_realized_variance(path, cfg.threshold)
        assert rec.true_iv == true_integrated_variance(path, 2)


def test_all_paths_excluded_when_nothing_survives():
    # threshold so tight every increment is flagged: the bias denominator
    # degenerates on every path
    cfg = small_cfg(threshold=ThresholdSpec(0.9, 1e-30), n_paths=8)
    summary = run_experiment(cfg)
    assert summary.excluded_paths == 8
    assert summary.normality_supported is True
    assert summary.ks_statistic is None
    assert summary.moments is None
    assert summary.histogram is None
    assert all(r.normalized_bias is None for r in summary.records)
    assert all(r.iv_hat == 0.0 for r in summary.records)


def test_single_path_moments_convention():
    summary = run_experiment(small_cfg(n_paths=1))
    m = summary.moments
    assert m.mean == summary.records[0].normalized_bias
    assert m.variance == 0.0
    assert math.isnan(m.skewness) and math.isnan(m.excess_kurtosis)
    assert summary.ks_statistic is not None


def test_detection_summary_presence_by_model():
    with_jumps = run_experiment(small_cfg(n_paths=4))
    assert with_jumps.detection is not None
    assert with_jumps.detection.total_tp >= 0

    vg = run_experiment(small_cfg(model=Model3(), n_paths=4,
                                  threshold=ThresholdSpec(0.99, 1.0)))
    assert vg.detection is None
    assert all(r.tp is None and r.fp is None and r.fn is None
               for r in vg.records)

    custom = run_experiment(small_cfg(
        model=CustomModel(jumps="compound-poisson:5,0.6"), n_paths=4))
    assert custom.detection is not None


def test_detection_counts_are_consistent():
    summary = run_experiment(small_cfg())
    det = summary.detection
    assert det.total_tp == sum(r.tp for r in summary.records)
    assert det.total_fp == sum(r.fp for r in summary.records)
    assert det.paths_with_jumps == sum(
        1 for r in summary.records if r.tp + r.fn > 0)
    if det.mean_recall is not None:
        assert 0.0 <= det.mean_recall <= 1.0


def test_irregular_grid_disables_normality_stats():
    summary = run_experiment(small_cfg(jitter=0.4, n_paths=4))
    assert summary.normality_supported is False
    assert summary.ks_statistic is None
    assert summary.moments is None
    assert summary.histogram is None
    assert summary.excluded_paths == 0
    assert all(r.normalized_bias is None for r in summary.records)


def test_rv_dominates_threshold_estimate_under_jumps():
    summary = run_experiment(small_cfg(n_paths=64))
    assert summary.estimates.mean_rv >= summary.estimates.mean_iv_hat
    assert all(r.rv >= r.iv_hat for r in summary.records)


def test_efficiency_comparison_requires_diffusion():
    with pytest.raises(InvalidArgumentError):
        efficiency_comparison(small_cfg())


def test_efficiency_comparison_runs_on_diffusion():
    cfg = small_cfg(model=CustomModel(), n=500, n_paths=128)
    table = efficiency_comparison(cfg)
    assert table.n_paths == 128
    assert table.threshold_variance > 0.0
    assert table.bipower_variance > table.threshold_variance
    assert table.ratio == table.bipower_variance / table.threshold_variance
    # limiting values are 2 and pi^2/4 + pi - 3; stay loose at this size
    assert 1.0 < table.threshold_variance < 3.5
    assert 1.05 < table.ratio < 1.7


def test_jump_size_clt_model_requirements():
    with pytest.raises(UnsupportedError):
        jump_size_clt_experiment(small_cfg(model=Model2(), substeps=5,
                                           n_paths=2))
    with pytest.raises(UnsupportedError):
        jump_size_clt_experiment(small_cfg(model=Model3(), n_paths=2))


def test_jump_size_clt_mixture_parameters():
    cfg = small_cfg(n=500, n_paths=64)
    res = jump_size_clt_experiment(cfg)
    assert res.lam_t == 5.0
    assert res.var_one == pytest.approx(0.09)
    assert res.samples.shape == (64,)
    assert 0.0 <= res.ks_statistic <= 1.0

    lam0 = jump_size_clt_experiment(
        small_cfg(model=CustomModel(jumps="none"), n=100, n_paths=4))
    assert lam0.lam_t == 0.0
    assert np.all(lam0.samples == 0.0)


def test_small_jump_bias_bound_value():
    spec = ThresholdSpec(0.99, 1.0)
    h = 1.0 / 6000.0
    got = small_jump_bias_bound(Model3(), spec, h)
    assert math.isclose(got, 4.0 * h ** 0.99 / 0.23, rel_tol=1e-15)
    # bound shrinks with the grid
    assert small_jump_bias_bound(Model3(), spec, 1.0 / 2000.0) > got


def test_small_jump_bias_bound_validation():
    with pytest.raises(InvalidArgumentError):
        small_jump_bias_bound(Model1(), ThresholdSpec(0.9, 1.0), 1e-3)
    with pytest.raises(InvalidArgumentError):
        small_jump_bias_bound(Model3(), ThresholdSpec(0.9, 1.0), 0.0)
    with pytest.raises(InvalidArgumentError):
        small_jump_bias_bound(Model3(), ThresholdSpec(0.9, -1.0), 1e-3)


def test_experiment_config_validation():
    with pytest.raises(InvalidArgumentError):
        small_cfg(n=0)
    with pytest.raises(InvalidArgumentError):
        small_cfg(t_end=0.0)
    with pytest.raises(InvalidArgumentError):
        small_cfg(t_end=math.inf)
    with pytest.raises(InvalidArgumentError):
        small_cfg(n_paths=0)
    with pytest.raises(InvalidArgumentError):
        small_cfg(parallelism=0)
    with pytest.raises(InvalidArgumentError):
        small_cfg(jitter=1.0)
    with pytest.raises(InvalidArgumentError):
        small_cfg(substeps=0)
    with pytest.raises(InvalidArgumentError, match="t / n"):
        small_cfg(t_end=1e-320, n=5000)
    small_cfg(t_end=sys.float_info.min * 200, n=200)


def test_sizes_no_run_can_succeed_at_are_rejected():
    with pytest.raises(InvalidArgumentError, match="n must be >= 2"):
        run_experiment(small_cfg(n=1))
    with pytest.raises(InvalidArgumentError, match="n must be >= 2"):
        efficiency_comparison(small_cfg(model=CustomModel(), n=1))
    with pytest.raises(InvalidArgumentError, match="paths must be >= 2"):
        efficiency_comparison(small_cfg(model=CustomModel(), n_paths=1))


def test_config_is_hashable_and_replaceable():
    cfg = small_cfg()
    assert hash(cfg) == hash(small_cfg())
    wider = dataclasses.replace(cfg, n_paths=64)
    assert wider.n_paths == 64 and wider.n == cfg.n


def test_inadmissible_threshold_warns_once_per_path():
    cfg = small_cfg(threshold=ThresholdSpec(1.0, 1.0), n_paths=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    assert any(issubclass(w.category, AdmissibilityWarning) for w in caught)
