"""End-to-end acceptance checks.

Every numbered criterion below is evaluated at its stated tolerance against
a fixed seed; outcomes are recorded and the terminal summary prints one
PASS/FAIL line per criterion. Distributional checks reuse frozen
configurations, so reruns are exact repeats, not fresh draws.
"""

import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import jumpsift as js
from jumpsift.cli import main as cli_main

import _acceptance_log as log

log.EXPECTED.update(range(1, 11))

SEED = 42


def _cfg(model, n, n_paths, beta=0.9, substeps=1, parallelism=1):
    return js.ExperimentConfig(
        model, js.ThresholdSpec(beta), n=n, substeps=substeps,
        n_paths=n_paths, base_seed=SEED, parallelism=parallelism)


def finish(criterion, checks):
    log.record(criterion, checks)
    bad = [detail for ok, detail in checks if not ok]
    assert not bad, "; ".join(bad)


@pytest.fixture(scope="module")
def model1_sweep():
    """Model 1 desk ensembles over n in {500, 2000, 6000}, N=500 each.

    The n=2000 leg runs single-worker and is timed; it doubles as the
    desk-scale normality run.
    """
    runs, timing = {}, {}
    for n, workers in ((500, 1), (2000, 1), (6000, 4)):
        t0 = time.perf_counter()
        runs[n] = js.run_experiment(_cfg(js.Model1(), n, 500, parallelism=workers))
        timing[n] = time.perf_counter() - t0
    return runs, timing


def test_criterion_1_normality_compound_poisson(model1_sweep):
    runs, timing = model1_sweep
    desk = runs[2000]
    m = desk.moments
    full = js.run_experiment(_cfg(js.Model1(), 6000, 5000, parallelism=4))
    checks = [
        (desk.ks_statistic < 0.08,
         f"desk ks={desk.ks_statistic:.4f} (<0.08)"),
        (abs(m.mean) <= 0.15, f"desk |mean|={abs(m.mean):.4f} (<=0.15)"),
        (0.7 <= m.variance <= 1.3,
         f"desk var={m.variance:.4f} (in [0.7,1.3])"),
        (desk.excluded_paths == 0, f"excluded={desk.excluded_paths}"),
        (timing[2000] < 30.0,
         f"desk single-worker runtime {timing[2000]:.2f}s (<30s)"),
        (full.ks_statistic < 0.04,
         f"N=5000/n=6000 ks={full.ks_statistic:.4f} (<0.04)"),
    ]
    finish(1, checks)


def test_criterion_2_normality_stochastic_volatility():
    summary = js.run_experiment(
        _cfg(js.Model2(), 2000, 500, substeps=5, parallelism=4))
    m = summary.moments
    checks = [
        (summary.ks_statistic < 0.08,
         f"ks={summary.ks_statistic:.4f} (<0.08)"),
        (abs(m.mean) <= 0.15, f"|mean|={abs(m.mean):.4f} (<=0.15)"),
        (0.7 <= m.variance <= 1.3, f"var={m.variance:.4f} (in [0.7,1.3])"),
        (summary.excluded_paths == 0, f"excluded={summary.excluded_paths}"),
    ]
    finish(2, checks)


def test_criterion_3_infinite_activity_bias_bound():
    spec = js.ThresholdSpec(0.99)
    stats = {}
    for n in (2000, 6000):
        summary = js.run_experiment(
            _cfg(js.Model3(), n, 800, beta=0.99, parallelism=4))
        m = js.sample_moments([r.iv_hat for r in summary.records])
        se = math.sqrt(m.variance / summary.n_paths)
        bound = js.small_jump_bias_bound(js.Model3(), spec, 1.0 / n)
        stats[n] = (m.mean, se, bound)
    mean6, se6, bound6 = stats[6000]
    gap2, gap6 = abs(stats[2000][0] - 0.09), abs(mean6 - 0.09)
    checks = [
        (gap6 <= bound6 + 3.0 * se6,
         f"|mean-0.09|={gap6:.3e} <= bound+3se={bound6 + 3 * se6:.3e} at n=6000"),
        (gap6 < gap2, f"bias shrinks 2000->6000: {gap2:.3e} -> {gap6:.3e}"),
    ]
    finish(3, checks)


def test_criterion_4_consistency_sweep(model1_sweep):
    runs, _ = model1_sweep
    mae = {n: runs[n].estimates.mean_abs_error for n in (500, 2000, 6000)}
    band = 3.0 * math.sqrt(2.0 * (1.0 / 6000.0) * 0.0081)
    errs = [abs(r.iv_hat - 0.09) for r in runs[6000].records]
    frac = sum(1 for e in errs if e <= band) / len(errs)
    checks = [
        (mae[500] > mae[2000] > mae[6000],
         f"mean |err| decreasing: {mae[500]:.2e} > {mae[2000]:.2e} > {mae[6000]:.2e}"),
        (frac >= 0.95,
         f"fraction inside 3*sqrt(2h*IQ)={band:.2e} band: {frac:.4f} (>=0.95)"),
    ]
    finish(4, checks)


def test_criterion_5_detection_rates(model1_sweep):
    runs, _ = model1_sweep
    det = runs[6000].detection
    checks = [
        (det.mean_recall >= 0.9, f"mean recall={det.mean_recall:.4f} (>=0.9)"),
        (det.mean_false_flags < 0.01,
         f"mean false flags={det.mean_false_flags:.4f} (<0.01)"),
    ]
    finish(5, checks)


def test_criterion_6_efficiency_vs_bipower():
    diffusion = js.CustomModel(drift="zero", spot_vol="constant:0.3",
                               jumps="none")
    table = js.efficiency_comparison(_cfg(diffusion, 2000, 500, parallelism=4))
    bpv_target = math.pi ** 2 / 4.0 + math.pi - 3.0
    ratio_target = bpv_target / 2.0
    checks = [
        (abs(table.threshold_variance - 2.0) <= 0.15 * 2.0,
         f"threshold var={table.threshold_variance:.4f} (2.0 +-15%)"),
        (abs(table.bipower_variance - bpv_target) <= 0.15 * bpv_target,
         f"bipower var={table.bipower_variance:.4f} ({bpv_target:.4f} +-15%)"),
        (abs(table.ratio - ratio_target) <= 0.15 * ratio_target,
         f"ratio={table.ratio:.4f} ({ratio_target:.4f} +-15%)"),
    ]
    finish(6, checks)


def test_criterion_7_jump_size_mixture_law():
    result = js.jump_size_clt_experiment(_cfg(js.Model1(), 2000, 500))
    checks = [
        (result.ks_statistic < 0.09,
         f"mixture ks={result.ks_statistic:.4f} (<0.09)"),
    ]
    finish(7, checks)


def test_criterion_8_admissibility_classification():
    betas = (-0.5, 0.0, 0.3, 0.5, 0.9, 0.99, 1.0, 1.1, 1.5)
    scales = (-1.0, 0.0, 0.5, 1.0, 2.0)
    wrong = []
    for beta in betas:
        for c in scales:
            got, _ = js.threshold_admissible(js.ThresholdSpec(beta, c))
            want = (0.0 < beta < 1.0) and (c > 0.0)
            if got != want:
                wrong.append((beta, c))
    checks = [
        (not wrong,
         f"admissible iff 0<beta<1 and c>0 on all {len(betas) * len(scales)} "
         f"combos{'' if not wrong else ' (wrong: ' + repr(wrong) + ')'}"),
    ]
    finish(8, checks)


def test_criterion_8_boundary_exponent_bias_direction():
    """Checks that the mean estimate at beta=1.0 exceeds the beta=0.9 mean
    (an upward shift attributed to losing admissibility at the boundary).

    Note: r(h)=h lies below r(h)=h^0.9 for every h<1, so the beta=1.0
    threshold keeps a subset of the increments kept at beta=0.9 on any
    fixed path, and the mean estimate can only move down, never up. The
    check encodes the upward direction as stated and is expected to fail.
    """
    means = {}
    for beta in (0.9, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", js.AdmissibilityWarning)
            summary = js.run_experiment(_cfg(js.Model1(), 500, 500, beta=beta))
        means[beta] = summary.estimates.mean_iv_hat
    checks = [
        (means[1.0] > means[0.9],
         f"upward-bias direction mean(beta=1.0)={means[1.0]:.8f} > "
         f"mean(beta=0.9)={means[0.9]:.8f}"),
    ]
    finish(8, checks)


def test_criterion_9_oracle_equivalence():
    """1000 short random paths: estimators vs naive direct-summation
    oracles at 1e-12 relative, and exact kept/flagged complementarity."""
    rng = np.random.Generator(np.random.Philox(key=SEED))
    worst_iv = worst_other = 0.0
    comp_fails = 0
    zero_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        dx = rng.standard_normal(n) * 0.1
        if rng.random() < 0.3:
            dx[int(rng.integers(0, n))] += (float(rng.choice([-1.0, 1.0]))
                                            * float(rng.uniform(0.5, 3.0)))
        x = np.concatenate(([0.0], np.cumsum(dx)))
        times = np.linspace(0.0, 1.0, n + 1)
        path = js.SamplePath(js.TimeGrid(times), x)
        spec = js.ThresholdSpec(float(rng.uniform(0.3, 1.1)),
                                float(rng.choice([0.5, 1.0, 2.0])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rv = js.realized_variance(path)
            iv_hat = js.threshold_realized_variance(path, spec)
            iq_hat = js.threshold_quarticity(path, spec)
            bpv = js.bipower_variation(path)

        d = np.diff(x)
        w = np.diff(times)
        h = w.max()
        keep = d * d <= spec.r_at(w)
        o_rv = 0.0
        for v in d:
            o_rv += v * v
        o_iv = o_iq = 0.0
        for v, k in zip(d, keep):
            if k:
                o_iv += v * v
                o_iq += (v * v) * (v * v)
        o_iq /= 3.0 * h
        o_bpv = 0.0
        for a, b in zip(abs(d[1:]), abs(d[:-1])):
            o_bpv += a * b
        o_bpv *= math.pi / 2.0

        if o_iv != 0.0:
            worst_iv = max(worst_iv, abs(iv_hat - o_iv) / abs(o_iv))
        else:
            zero_ok = zero_ok and iv_hat == 0.0
        for got, want in ((rv, o_rv), (iq_hat, o_iq), (bpv, o_bpv)):
            if want != 0.0:
                worst_other = max(worst_other, abs(got - want) / abs(want))
            else:
                zero_ok = zero_ok and got == 0.0

        flagged_mass = math.fsum((d[~keep] * d[~keep]).tolist())
        if iv_hat != rv - flagged_mass:
            comp_fails += 1

    checks = [
        (worst_iv <= 1e-12,
         f"threshold estimate vs oracle: worst rel {worst_iv:.3e} (<=1e-12)"),
        (worst_other <= 1e-12,
         f"rv/quarticity/bipower vs oracles: worst rel {worst_other:.3e} (<=1e-12)"),
        (zero_ok, "exact zero whenever the oracle is zero"),
        (comp_fails == 0,
         f"complementarity exact on every path ({comp_fails} failures/1000)"),
    ]
    finish(9, checks)


def test_criterion_10_parallel_determinism(tmp_path):
    args = ["mc", "--n", "300", "--paths", "64", "--seed", str(SEED)]
    blobs, manifests = {}, {}
    for workers in (1, 4, 8):
        out = str(tmp_path / f"p{workers}")
        assert cli_main(args + ["--parallelism", str(workers),
                                "--out", out]) == 0
        blobs[workers] = {
            name: Path(out, name).read_bytes()
            for name in ("summary.json", "hist.csv")
        }
        manifests[workers] = json.loads(Path(out, "manifest.json").read_text("utf-8"))

    identical = all(blobs[w] == blobs[1] for w in (4, 8))
    normalized = []
    for w in (1, 4, 8):
        m = dict(manifests[w])
        m.pop("created_utc")
        m["config"] = {k: v for k, v in m["config"].items()
                       if k != "parallelism"}
        normalized.append(m)
    checks = [
        (identical,
         "summary.json and hist.csv byte-identical across workers {1,4,8}"),
        (normalized[0] == normalized[1] == normalized[2],
         "manifests agree up to worker count and timestamp"),
    ]
    finish(10, checks)
