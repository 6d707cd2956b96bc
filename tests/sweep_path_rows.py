"""Fixed-seed sweep of the per-path kernel rows of montecarlo against the
public single-path pipeline, bit for bit.

Too long for the tier-1 suite; CI runs it as its own step:

    PYTHONPATH=src python tests/sweep_path_rows.py --paths 2000 --seed 2006

For each model (Model1, Model2, Model3, a custom model with drift and
compound Poisson jumps, and a jump-free custom diffusion), each substeps in
{1, 3, 5} and each jitter in {0, 0.3}, it draws n, the base seed and the
threshold scale, and compares --paths paths. Each path's mc record
(montecarlo._single_record) must equal the record built from simulate,
true_integrated_variance, threshold_realized_variance, realized_variance,
bipower_variation, normalized_bias and detect_jumps; on the diffusion its
compare pair (_efficiency_pair) must equal the one built from the same
functions; on a uniform grid with compound Poisson jumps its jump-size
statistic (_jump_stat) must equal jump_size_error_stat. NaN marks an
undefined value on both sides.

Prints the paths compared per configuration and exits 1 on any bit
difference.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from jumpsift import (
    CustomModel,
    DegenerateStatisticError,
    ExperimentConfig,
    Model1,
    Model2,
    Model3,
    ThresholdSpec,
    bipower_variation,
    compound_poisson_law,
    detect_jumps,
    finite_activity,
    has_jumps,
    jump_size_error_stat,
    normalized_bias,
    path_seed,
    realized_variance,
    simulate,
    threshold_realized_variance,
    true_integrated_variance,
)
from jumpsift import montecarlo

MODELS = {
    "model1": (Model1(), 0.9),
    "model2": (Model2(), 0.9),
    "model3": (Model3(), 0.99),
    "custom": (CustomModel(drift="constant:0.2", spot_vol="constant:0.2",
                           jumps="compound-poisson:40,0.5"), 0.9),
    "diffusion": (CustomModel(), 0.9),
}


def public_rows(cfg: ExperimentConfig, path, jump_stat: bool) -> dict:
    """The rows of the mc, compare and jump-size kernels, from public calls."""
    spec = cfg.threshold
    iv = true_integrated_variance(path, 2)
    trv, rv = threshold_realized_variance(path, spec), realized_variance(path)
    bpv = bipower_variation(path)
    bias = math.nan
    if cfg.jitter == 0.0:
        try:
            bias = normalized_bias(path, spec, iv)
        except DegenerateStatisticError:
            pass
    truth = path.ground_truth.jumps
    det = detect_jumps(path, spec, truth if finite_activity(cfg.model) else None)
    m = det.match
    counts = ((math.nan,) * 3 if m is None
              else (m.true_positives, m.false_positives, m.false_negatives))
    rows = {"record": (trv, iv, bias, rv, bpv, np.count_nonzero(det.indicators), *counts)}
    if not has_jumps(cfg.model):
        denom = math.sqrt(path.grid.h * true_integrated_variance(path, 4))
        rows["pair"] = ((trv - iv) / denom, (bpv - iv) / denom)
    if jump_stat:
        rows["jump_stat"] = (jump_size_error_stat(path, det, truth),)
    return rows


def kernel_rows(plan, index: int, jump_stat: bool) -> dict:
    rows = {"record": montecarlo._single_record(plan, index)}
    if not has_jumps(plan.cfg.model):
        rows["pair"] = montecarlo._efficiency_pair(plan, index)
    if jump_stat:
        rows["jump_stat"] = (montecarlo._jump_stat(plan, index),)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paths", type=int, default=2000,
                        help="paths compared per configuration")
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    compared = bad = 0
    for name, (model, beta) in MODELS.items():
        for substeps in (1, 3, 5):
            for jitter in (0.0, 0.3):
                n = int(rng.integers(2, 300))
                scale = 1e-30 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-2, 1))
                cfg = ExperimentConfig(model, ThresholdSpec(beta, scale), n=n,
                                       jitter=jitter, substeps=substeps, n_paths=args.paths,
                                       base_seed=int(rng.integers(2 ** 63)))
                plan = montecarlo._plan(cfg, min_paths=1)
                grid = cfg.build_grid()
                jump_stat = jitter == 0.0 and compound_poisson_law(model) is not None
                for i in range(args.paths):
                    path = simulate(model, grid, substeps, path_seed(cfg.base_seed, i))
                    want = public_rows(cfg, path, jump_stat)
                    got = kernel_rows(plan, i, jump_stat)
                    for key, row in want.items():
                        w, g = (np.array(v, dtype=float).tobytes() for v in (row, got[key]))
                        if w != g:
                            bad += 1
                            print(f"{name} substeps {substeps} jitter {jitter} n {n}"
                                  f" path {i} {key}: kernel {got[key]!r}, public {row!r}")
                compared += args.paths
                print(f"{name:>9} substeps {substeps} jitter {jitter}: n = {n},"
                      f" scale_c = {scale:.3g}, {args.paths} paths")
    print(f"{compared} paths, {bad} rows differ from the public pipeline")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
