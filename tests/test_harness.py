import dataclasses
import gc
import importlib
import math
import os
import signal
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from jumpsift import (
    AdmissibilityWarning,
    CustomModel,
    DegenerateStatisticError,
    ExperimentConfig,
    InvalidArgumentError,
    Model1,
    Model2,
    Model3,
    SimulationError,
    ThresholdSpec,
    UnsupportedError,
    bipower_variation,
    build_irregular_grid,
    build_uniform_grid,
    detect_jumps,
    efficiency_comparison,
    finite_activity,
    jump_size_clt_experiment,
    jump_size_error_stat,
    normalized_bias,
    path_seed,
    realized_variance,
    refine,
    run_experiment,
    simulate,
    small_jump_bias_bound,
    threshold_realized_variance,
    true_integrated_variance,
)
from jumpsift import montecarlo
from jumpsift.montecarlo import _map_paths, _plan
from jumpsift.serialize import dumps_json, summary_to_dict

SPEC09 = ThresholdSpec(0.9, 1.0)


def small_cfg(**kw):
    base = dict(model=Model1(), threshold=SPEC09, n=200, n_paths=32,
                base_seed=2024, parallelism=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_is_deterministic():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert a.records.tobytes() == b.records.tobytes()
    assert a.ks_statistic == b.ks_statistic
    assert a.moments == b.moments


def test_parallelism_does_not_change_results():
    serial = run_experiment(small_cfg())
    pooled = run_experiment(small_cfg(parallelism=3))
    assert serial.records.tobytes() == pooled.records.tobytes()
    assert serial.ks_statistic == pooled.ks_statistic
    assert serial.estimates == pooled.estimates
    assert np.array_equal(serial.histogram.counts, pooled.histogram.counts)

    # The records and summary.json's bytes at 1 and 2 processes, the caller
    # computing its own share: Model2 on its refined subgrid, Model3 and
    # Model2 on an irregular grid, and a custom model with drift and compound
    # Poisson jumps; then jumps of size 1e200, whose squares overflow, so rv
    # and bpv are inf and iv_hat is the sum of the kept squares.
    for changes in (dict(model=Model2(), substeps=5),
                    dict(model=Model3(), jitter=0.3),
                    dict(model=Model2(), substeps=5, jitter=0.3),
                    dict(model=CustomModel(drift="constant:0.2", spot_vol="constant:0.2",
                                           jumps="compound-poisson:40,0.5")),
                    dict(model=CustomModel(jumps="compound-poisson:5,1e200"), n=50)):
        serial = small_cfg(n_paths=8, **changes)
        pooled = dataclasses.replace(serial, parallelism=2)
        a, b = run_experiment(serial), run_experiment(pooled)
        assert a.records.tobytes() == b.records.tobytes(), changes
        assert dumps_json(summary_to_dict(a)) == dumps_json(summary_to_dict(b)), changes


@pytest.mark.parametrize("parallelism", [1, 2, 3, 7, 10])
def test_every_process_count_gives_the_serial_bits(parallelism):
    def pair(**kw):
        serial = small_cfg(n_paths=7, **kw)
        return serial, dataclasses.replace(serial, parallelism=parallelism)

    serial, pooled = pair()
    a, b = run_experiment(serial), run_experiment(pooled)
    assert a.records.tobytes() == b.records.tobytes()
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


def _fail_at_base_seed(plan, index):
    """A per-path function that fails at the path whose index is the base seed."""
    if index == plan.cfg.base_seed:
        raise SimulationError(f"path {index} failed")
    return index


# With 7 paths over 2 processes the caller computes paths 0-3 and the worker 4-6.
@pytest.mark.parametrize("fail_at", [0, 2, 5, 6])
def test_a_failing_path_raises_as_in_the_serial_map_and_leaves_no_worker(fail_at):
    cfg = small_cfg(n_paths=7, base_seed=fail_at)
    with pytest.raises(SimulationError) as serial:
        _map_paths(_fail_at_base_seed, _plan(cfg, min_paths=1))
    with pytest.raises(SimulationError) as pooled:
        _map_paths(_fail_at_base_seed, _plan(dataclasses.replace(cfg, parallelism=2),
                                             min_paths=1))
    assert type(pooled.value) is type(serial.value)
    assert str(pooled.value) == str(serial.value) == f"path {fail_at} failed"
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _die_at_base_seed(plan, index):
    """A per-path function that kills its own process at the path whose
    index is the base seed."""
    if index == plan.cfg.base_seed:
        os.kill(os.getpid(), signal.SIGKILL)
    return index


def _exit_at_base_seed(plan, index):
    """A per-path function that ends its own process with status 3 at the
    path whose index is the base seed."""
    if index == plan.cfg.base_seed:
        os._exit(3)
    return index


# With 7 paths over 2 processes the caller computes paths 0-3 and the child
# 4-6; over 3 processes the caller takes 0-2 and the children 3-4 and 5-6.
@pytest.mark.parametrize("parallelism,die_at,slice_,die,how", [
    pytest.param(2, 5, "4 to 6", _die_at_base_seed, "was killed by SIGKILL", id="2-5-4 to 6"),
    pytest.param(3, 4, "3 to 4", _die_at_base_seed, "was killed by SIGKILL", id="3-4-3 to 4"),
    pytest.param(3, 5, "5 to 6", _die_at_base_seed, "was killed by SIGKILL", id="3-5-5 to 6"),
    pytest.param(2, 5, "4 to 6", _exit_at_base_seed, "exited with status 3", id="exit 3"),
])
def test_a_worker_that_dies_raises_simulation_error(parallelism, die_at, slice_, die, how):
    cfg = small_cfg(n_paths=7, base_seed=die_at, parallelism=parallelism)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(10)
    try:
        with pytest.raises(SimulationError, match=(
                f"^the worker for paths {slice_} {how} without sending its results$")):
            _map_paths(die, _plan(cfg, min_paths=1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


def _raise_timeout(signum, frame):
    raise TimeoutError("_map_paths did not return within 10 s")


def test_without_fork_the_map_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    got = _map_paths(lambda plan, i: (i, os.getpid()),
                     _plan(small_cfg(n_paths=5, parallelism=3), min_paths=1))
    assert got == [(i, os.getpid()) for i in range(5)]


@pytest.mark.parametrize("model,substeps", [(Model1(), 1), (Model2(), 5)],
                         ids=["model1", "model2-substeps5"])
def test_a_run_keeps_nothing_after_it_returns(model, substeps):
    # A run's grid, subgrid, threshold and engine constants come to tens of
    # bytes per fine step; all of it goes when the result does.
    fine_steps = 200_000 * substeps
    # A first run in the process also imports modules and makes this
    # thread's generator, which stay.
    run_experiment(small_cfg(model=model, substeps=substeps, n_paths=1))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cfg = small_cfg(model=model, n=200_000, substeps=substeps, n_paths=2)
        summary = run_experiment(cfg)
        del summary, cfg
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left <= 2 * fine_steps, f"{left / fine_steps:.1f} bytes per fine step left"


def test_a_warm_record_peaks_below_80_bytes_per_fine_step():
    # Each exact sum extracts its own row of terms, so no sum holds a block
    # of several rows of the path's length.
    n = 200_000
    plan = _plan(small_cfg(n=n, n_paths=2), min_paths=1)
    montecarlo._single_record(plan, 0)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        montecarlo._single_record(plan, 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 80 * n, f"{peak / n:.1f} bytes per fine step"


def _standalone_record(cfg, path):
    """A path's record from the public single-path functions, NaN where a
    value is undefined."""
    spec = cfg.threshold
    true_iv = true_integrated_variance(path, 2)
    bias = math.nan
    if path.grid.is_uniform:  # normalized_bias's own rule
        try:
            bias = normalized_bias(path, spec, true_iv)
        except DegenerateStatisticError:
            pass
    det = detect_jumps(path, spec,
                       path.ground_truth.jumps if finite_activity(cfg.model) else None)
    m = det.match
    counts = ((math.nan,) * 3 if m is None
              else (m.true_positives, m.false_positives, m.false_negatives))
    return (threshold_realized_variance(path, spec), true_iv, bias, realized_variance(path),
            bipower_variation(path), np.count_nonzero(det.indicators), *counts)


@pytest.mark.parametrize("kw", [
    {},
    {"model": Model3(), "threshold": ThresholdSpec(0.99, 1.0), "n_paths": 8},
    {"jitter": 0.4, "n_paths": 8},
    {"jitter": 1e-13, "n_paths": 8},
    {"threshold": ThresholdSpec(0.9, 1e-30), "n_paths": 8},
    {"model": Model2(), "substeps": 5, "n_paths": 8},
    {"model": Model2(), "substeps": 5, "jitter": 0.4, "n_paths": 8},
    {"substeps": 3, "jitter": 0.4, "n_paths": 8},
    {"model": CustomModel(drift="constant:0.2", spot_vol="constant:0.2",
                          jumps="compound-poisson:40,0.5"), "n_paths": 8},
], ids=["model1", "model3", "irregular", "jitter below the uniform tolerance", "excluded",
        "model2 substeps 5", "model2 substeps 5 irregular", "model1 substeps 3 irregular",
        "custom drift jumps"])
def test_records_match_standalone_pipeline(kw):
    cfg = small_cfg(**kw)
    summary = run_experiment(cfg)
    records = summary.records
    assert records.shape == (cfg.n_paths,)
    assert records.dtype.names == ("iv_hat", "true_iv", "normalized_bias", "rv", "bpv",
                                   "n_flagged", "tp", "fp", "fn")
    assert not records.flags.writeable
    with pytest.raises(ValueError):
        records.iv_hat[0] = 0.0
    grid = cfg.build_grid()
    for i in range(cfg.n_paths):
        path = simulate(cfg.model, grid, cfg.substeps,
                        path_seed(cfg.base_seed, i))
        np.testing.assert_array_equal(np.array(records[i].tolist()),
                                      np.array(_standalone_record(cfg, path), dtype=float))


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
    assert all(np.isnan(r.normalized_bias) for r in summary.records)
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
    assert all(np.isnan(r.tp) and np.isnan(r.fp) and np.isnan(r.fn)
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
    # The column aggregates give the bits of a per-row loop.
    rows = summary.records
    recalls = [r.tp / (r.tp + r.fn) for r in rows if r.tp + r.fn > 0]
    assert det.mean_recall == math.fsum(recalls) / len(recalls)
    assert det.mean_false_flags == math.fsum(r.fp for r in rows) / len(rows)
    assert summary.estimates.mean_abs_error == math.fsum(
        abs(r.iv_hat - r.true_iv) for r in rows) / len(rows)


def test_irregular_grid_disables_normality_stats():
    summary = run_experiment(small_cfg(jitter=0.4, n_paths=4))
    assert summary.normality_supported is False
    assert summary.ks_statistic is None
    assert summary.moments is None
    assert summary.histogram is None
    assert summary.excluded_paths == 0
    assert all(np.isnan(r.normalized_bias) for r in summary.records)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_bias_that_overflows_is_an_error_not_an_excluded_path(parallelism):
    # At sigma = 1e154 and t = 3 most squared increments are kept, and their
    # sum overflows, as does the true IV, so the normalized bias is computed
    # but not finite; only an undefined bias excludes a path.
    cfg = small_cfg(model=CustomModel(spot_vol="constant:1e154"), t_end=3.0, n=50,
                    threshold=ThresholdSpec(0.05, 1e308), n_paths=4, base_seed=1,
                    parallelism=parallelism)
    with pytest.raises(InvalidArgumentError, match="^samples must be finite$"):
        run_experiment(cfg)


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


def test_jump_size_clt_checks_come_before_any_path(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "_simulate_path", lambda *a: calls.append(a))
    with pytest.raises(UnsupportedError, match="uniform grid"):
        jump_size_clt_experiment(small_cfg(jitter=0.3, n_paths=2))
    with pytest.raises(UnsupportedError, match="compound Poisson"):
        jump_size_clt_experiment(small_cfg(model=Model2(), n_paths=2))
    with pytest.raises(InvalidArgumentError, match="lam_t must be at most 1e7"):
        jump_size_clt_experiment(small_cfg(model=Model1(jump_intensity=2e7), n_paths=2))
    assert calls == []


JUMP_COUNT_ERROR = ("jump intensity 1e+300 over horizon t = 1.0 expects 1e+300 jump"
                    " times, more doubles than numpy can allocate")
SCALE_ERROR = "threshold scale must be positive to evaluate r, got 0.0"


@pytest.mark.parametrize("entry,changes,message", [
    (run_experiment, dict(threshold=ThresholdSpec(0.9, 0.0)), SCALE_ERROR),
    (run_experiment, dict(model=CustomModel(spot_vol="constant:1e200")),
     "spot variance must be positive and finite"),
    (run_experiment, dict(model=CustomModel(spot_vol="constant:1e-200")),
     "spot variance must be positive and finite"),
    (run_experiment, dict(model=CustomModel(jumps="compound-poisson:1e300,0.5")),
     JUMP_COUNT_ERROR),
    (efficiency_comparison, dict(model=CustomModel(), threshold=ThresholdSpec(0.9, 0.0)),
     SCALE_ERROR),
    # sigma^2 = 1e200 is finite, but sigma^4, and so sqrt(h * IQ), is not.
    (efficiency_comparison, dict(model=CustomModel(spot_vol="constant:1e100")),
     "compare needs a finite error scale sqrt(h * IQ), got inf"),
], ids=["mc scale 0", "mc sigma 1e200", "mc sigma 1e-200", "mc lam 1e300", "compare scale 0",
        "compare sigma 1e100"])
def test_run_level_failures_come_before_any_path_or_fork(monkeypatch, entry, changes,
                                                         message):
    def no_path(*args):
        raise AssertionError("a path was simulated or a worker forked")

    monkeypatch.setattr(montecarlo, "_simulate_path", no_path)
    monkeypatch.setattr(montecarlo, "_fork_slice", no_path)
    with pytest.raises(InvalidArgumentError) as err:
        entry(small_cfg(n_paths=4, parallelism=2, **changes))
    assert str(err.value) == message


@pytest.mark.parametrize("kw", [
    {},
    {"model": CustomModel(drift="constant:0.2", spot_vol="constant:0.2",
                          jumps="compound-poisson:40,0.5"), "substeps": 3},
    {"model": CustomModel()},
    {"jitter": 1e-13},
], ids=["model1", "custom substeps 3", "jump-free", "jitter below the uniform tolerance"])
def test_jump_size_samples_match_standalone_pipeline(kw):
    cfg = small_cfg(n_paths=16, **kw)
    samples = jump_size_clt_experiment(cfg).samples
    grid = cfg.build_grid()
    for i, got in enumerate(samples.tolist()):
        path = simulate(cfg.model, grid, cfg.substeps, path_seed(cfg.base_seed, i))
        truth = path.ground_truth.jumps
        want = jump_size_error_stat(path, detect_jumps(path, cfg.threshold), truth)
        assert got == want, i


def test_jump_size_clt_inadmissible_threshold_warns_once():
    cfg = small_cfg(threshold=ThresholdSpec(1.0, 1.0), n_paths=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jump_size_clt_experiment(cfg)
    assert [w.category for w in caught] == [AdmissibilityWarning]


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
    assert small_jump_bias_bound(Model3(), ThresholdSpec(2.0), 1e300) == math.inf


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
    with pytest.raises(InvalidArgumentError, match="^t_end / n "):
        small_cfg(t_end=1e-320, n=5000)
    small_cfg(t_end=sys.float_info.min * 200, n=200)
    for name in ("n", "substeps", "n_paths", "parallelism"):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer, got 2.5$"):
            small_cfg(**{name: 2.5})
    small_cfg(n=np.int64(200), substeps=np.int32(2), n_paths=np.int64(4))


@pytest.mark.parametrize("field,value,build", [
    ("n", 0, lambda: build_uniform_grid(0, 1.0)),
    ("n", 0, lambda: build_irregular_grid(0, 1.0, 0.3, seed=1)),
    ("substeps", 0, lambda: refine(build_uniform_grid(4, 1.0), 0)),
    ("t_end", math.inf, lambda: build_uniform_grid(4, math.inf)),
    ("t_end", math.inf, lambda: build_irregular_grid(4, math.inf, 0.3, seed=1)),
    ("jitter", 1.0, lambda: build_irregular_grid(4, 1.0, 1.0, seed=1)),
], ids=["n uniform", "n irregular", "substeps", "t_end uniform", "t_end irregular", "jitter"])
def test_grid_builders_and_experiment_config_give_one_message(field, value, build):
    with pytest.raises(InvalidArgumentError) as grid_err:
        build()
    with pytest.raises(InvalidArgumentError) as cfg_err:
        small_cfg(**{field: value})
    assert str(grid_err.value) == str(cfg_err.value)
    assert str(cfg_err.value).startswith(f"{field} must ")
    assert str(cfg_err.value).endswith(f", got {value!r}")


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


def test_inadmissible_threshold_warns_once_per_run():
    cfg = small_cfg(threshold=ThresholdSpec(1.0, 1.0), n_paths=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    assert [w.category for w in caught] == [AdmissibilityWarning]


# CI runs each sweep at full size; a tiny run here fails offline when a
# private harness name a sweep imports is renamed.
@pytest.mark.parametrize("module,argv", [
    ("sweep_exact_sums", ["--rows", "40"]),
    ("sweep_float_text", ["--values", "3000"]),
    ("sweep_path_rows", ["--paths", "2"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_ci_sweep_passes_at_a_tiny_size(module, argv, capsys):
    assert importlib.import_module(module).main(argv) == 0
    capsys.readouterr()
