"""Path simulation engines.

Every engine runs on a subgrid ``substeps`` times finer than the observation
grid and subsamples; ground-truth integrated variance uses the fine grid.
The generator is counter-based (numpy Philox keyed directly with the 64-bit
seed), so identical (config, grid, substeps, seed) give bit-identical paths
regardless of what else has been sampled in the process.

Draw order is part of the determinism contract and is fixed per model:

* Model1 / CustomModel: diffusion normals (one bulk draw), Poisson event
  times (sequential exponentials), jump sizes (one bulk draw).
* Model2: W1 normals, W2 normals, Poisson event times, then per-event jump
  sizes (each resampled until 1 + Z > 0, at most 100 tries).
* Model3: subordinator Gamma increments, jump normals, diffusion normals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidArgumentError, SimulationError, UnsupportedError
from .grids import TimeGrid, refine
from .models import (
    CODE_FINITE_ACTIVITY,
    CODE_IA_SMALL,
    CustomModel,
    GroundTruth,
    JumpTable,
    Model1,
    Model2,
    Model3,
    ModelConfig,
    SamplePath,
    SpotVariancePath,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
RNG_ALGORITHM = "numpy.random.Philox, raw 64-bit key, numpy Generator draws"

# Resampling budget for Model2 jump sizes with 1 + Z <= 0 (a ~7 sigma event
# at the default parameters).
_MAX_JUMP_RESAMPLES = 100

# exp(k*t) factors in the closed-form OU scan stay representable up to here;
# beyond it the engine falls back to the stepwise recursion.
_OU_SCAN_MAX_EXPONENT = 600.0

_NO_JUMPS = JumpTable((), (), ())


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def path_seed(base_seed: int, path_index: int) -> int:
    """Per-path key: base_seed XOR path_index, reduced to 64 bits."""
    return (int(base_seed) ^ int(path_index)) & _MASK64


def simulate(cfg: ModelConfig, grid: TimeGrid, substeps: int = 1, seed: int = 0) -> SamplePath:
    """Simulate one path of the configured model on the grid.

    Parameters
    ----------
    cfg : ModelConfig
        Model1, Model2, Model3 or CustomModel.
    grid : TimeGrid
        Observation times; the engine runs `substeps` times finer.
    substeps : int
        Subgrid refinement factor, >= 1.
    seed : int
        Philox key for this path.

    Returns
    -------
    SamplePath
        Observations starting at X(0) = 0 with full ground truth attached.
    """
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise InvalidArgumentError(f"substeps must be a positive integer, got {substeps!r}")
    rng = rng_from_seed(seed)
    fine_times, fine_widths = _subgrid(grid, substeps)
    if isinstance(cfg, Model1):
        return _simulate_constant_vol(
            cfg.drift, cfg.sigma, (cfg.jump_intensity, cfg.jump_size_std),
            grid, substeps, fine_times, fine_widths, rng)
    if isinstance(cfg, CustomModel):
        return _simulate_constant_vol(
            cfg.drift_value(), cfg.sigma_value(), cfg.jump_params(),
            grid, substeps, fine_times, fine_widths, rng)
    if isinstance(cfg, Model2):
        return _simulate_model2(cfg, grid, substeps, fine_times, fine_widths, rng)
    if isinstance(cfg, Model3):
        return _simulate_model3(cfg, grid, substeps, fine_times, fine_widths, rng)
    raise InvalidArgumentError(f"unknown model config {type(cfg).__name__}")


def true_integrated_variance(path: SamplePath, power: int) -> float:
    """Left-endpoint Riemann sum of sigma^power over the simulation subgrid."""
    if power not in (2, 4):
        raise InvalidArgumentError(f"power must be 2 or 4, got {power!r}")
    if path.ground_truth is None:
        raise UnsupportedError("path has no ground truth")
    spot = path.ground_truth.spot_variance
    _, fine_widths = _subgrid(path.grid, spot.refinement)
    left = spot.values[:-1]
    integrand = left if power == 2 else left * left
    return float(np.sum(integrand * fine_widths))


@functools.lru_cache(maxsize=4)
def _subgrid(grid: TimeGrid, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """refine(grid, substeps) as read-only arrays, computed once per grid.

    TimeGrid hashes by identity, so every path of a run on one grid object
    shares a single subgrid.
    """
    fine_times, fine_widths = (arr.view() for arr in refine(grid, substeps))
    fine_times.flags.writeable = False
    fine_widths.flags.writeable = False
    return fine_times, fine_widths


def _simulate_constant_vol(drift, sigma, jump_params, grid, substeps,
                           fine_times, fine_widths, rng):
    """Shared engine for Model1 and CustomModel (constant sigma, optional
    compound Poisson jumps with zero-mean normal sizes)."""
    nf = fine_widths.size
    z = rng.standard_normal(nf)
    cont_incr = drift * fine_widths + sigma * np.sqrt(fine_widths) * z

    events = _NO_JUMPS
    jump_incr = np.zeros(nf)
    if jump_params is not None:
        lam, size_std = jump_params
        times = _poisson_times(rng, grid.t_end, lam)
        if times:
            sizes = rng.normal(0.0, size_std, len(times))
            events = _finite_activity_table(times, sizes)
            _bin_jumps(jump_incr, fine_times, times, sizes)

    return _assemble(grid, substeps, cont_incr, jump_incr, events,
                     spot=np.full(nf + 1, sigma * sigma))


def _simulate_model2(cfg, grid, substeps, fine_times, fine_widths, rng):
    nf = fine_widths.size
    z1 = rng.standard_normal(nf)
    z2 = rng.standard_normal(nf)

    sqrt_widths, alpha, c21, c22, ekt = _ou_coefficients(cfg, grid, substeps)
    shocks = c21 * z1 + c22 * z2
    h_path = _ou_path(cfg.h0, cfg.h_bar, alpha, ekt, shocks)

    sigma_left = np.exp(h_path[:-1])
    drift_incr = (cfg.mu - 0.5 * sigma_left * sigma_left) * fine_widths
    cont_incr = drift_incr + sigma_left * sqrt_widths * z1

    times = _poisson_times(rng, grid.t_end, cfg.jump_intensity)
    events = _NO_JUMPS
    jump_incr = np.zeros(nf)
    if times:
        jump_sd = math.sqrt(cfg.jump_var)
        sizes = np.array([_draw_log_jump(rng, cfg.jump_mean, jump_sd) for _ in times])
        events = _finite_activity_table(times, sizes)
        _bin_jumps(jump_incr, fine_times, times, sizes)

    return _assemble(grid, substeps, cont_incr, jump_incr, events,
                     spot=np.exp(2.0 * h_path))


def _simulate_model3(cfg, grid, substeps, fine_times, fine_widths, rng):
    nf = fine_widths.size
    b = cfg.gamma_var
    dg = rng.gamma(fine_widths / b, b)
    z_jump = rng.standard_normal(nf)
    z_diff = rng.standard_normal(nf)

    # Subordinator increments whose mass sits below the double denormal range
    # come back as exactly 0.0; the corresponding substep then carries no
    # jump increment and no event is recorded.
    jump_incr = cfg.vg_drift * dg + cfg.vg_vol * np.sqrt(dg) * z_jump
    cont_incr = cfg.sigma * np.sqrt(fine_widths) * z_diff

    nonzero = np.flatnonzero(jump_incr)
    events = JumpTable(fine_times[nonzero + 1], jump_incr[nonzero],
                       np.full(nonzero.size, CODE_IA_SMALL, dtype=np.int8))

    return _assemble(grid, substeps, cont_incr, jump_incr, events,
                     spot=np.full(nf + 1, cfg.sigma * cfg.sigma))


def _assemble(grid, substeps, cont_incr, jump_incr, events, spot):
    x_fine = np.concatenate(([0.0], np.cumsum(cont_incr + jump_incr)))
    cont_fine = np.concatenate(([0.0], np.cumsum(cont_incr)))
    truth = GroundTruth(
        spot_variance=SpotVariancePath(spot, substeps),
        jumps=events,
        continuous_part=cont_fine[::substeps],
    )
    return SamplePath(grid, x_fine[::substeps], truth)


def _finite_activity_table(times, sizes) -> JumpTable:
    return JumpTable(times, sizes, np.full(len(times), CODE_FINITE_ACTIVITY, dtype=np.int8))


def _poisson_times(rng, t_end, lam) -> list[float]:
    """Event times in (0, t_end] from exponential waiting times with rate lam."""
    if lam == 0.0:
        return []
    times = []
    t = 0.0
    scale = 1.0 / lam
    while True:
        t += rng.exponential(scale)
        if t > t_end:
            return times
        times.append(t)


def _bin_jumps(jump_incr, fine_times, times, sizes):
    """Add each jump to the subgrid increment whose interval (t_j, t_{j+1}]
    contains its event time."""
    idx = np.searchsorted(fine_times, np.asarray(times), side="left") - 1
    idx = np.clip(idx, 0, jump_incr.size - 1)
    np.add.at(jump_incr, idx, sizes)


def _draw_log_jump(rng, mean, sd) -> float:
    """ln(1 + Z) with Z ~ N(mean, sd^2), resampling while 1 + Z <= 0."""
    for _ in range(_MAX_JUMP_RESAMPLES):
        z = rng.normal(mean, sd)
        if 1.0 + z > 0.0:
            return math.log1p(z)
    raise SimulationError(
        f"failed to draw a jump with 1 + Z > 0 in {_MAX_JUMP_RESAMPLES} tries "
        f"(mean={mean}, sd={sd})")


@functools.lru_cache(maxsize=4)
def _ou_coefficients(cfg: Model2, grid: TimeGrid, substeps: int):
    """Per-substep constants of the Model2 volatility scan, computed once per
    (model, grid, substeps) as read-only arrays: sqrt of the widths, the OU
    decay alpha, the shock loadings (c21, c22) on (z1, z2), and the exp(k*t)
    weights of the closed-form scan (None where they would overflow).

    The shock V = c21*z1 + c22*z2 makes Cov(dW1, V) = rho*eta*(1 - alpha)/k
    hold exactly, so each substep is an exact OU transition.
    """
    fine_times, fine_widths = _subgrid(grid, substeps)
    k = cfg.mean_reversion
    eta = cfg.vol_of_vol
    sqrt_widths = np.sqrt(fine_widths)
    alpha = np.exp(-k * fine_widths)
    var_v = eta * eta * (1.0 - alpha * alpha) / (2.0 * k)
    c21 = cfg.rho * eta * (1.0 - alpha) / (k * sqrt_widths)
    c22 = np.sqrt(np.maximum(var_v - c21 * c21, 0.0))
    ekt = None
    if k * float(fine_times[-1]) <= _OU_SCAN_MAX_EXPONENT:
        ekt = np.exp(k * fine_times[1:])
    constants = (sqrt_widths, alpha, c21, c22, ekt)
    for arr in constants:
        if arr is not None:
            arr.flags.writeable = False
    return constants


def _ou_path(h0, h_bar, alpha, ekt, shocks):
    """Mean-reverting path H with exact Gaussian transitions.

    H_{j+1} = h_bar + alpha_j*(H_j - h_bar) + shocks_j. Given the exp(k*t_j)
    weights ekt, the recursion unrolls into a cumulative sum; without them
    (exponents that would overflow) the stepwise loop runs.
    """
    nf = shocks.size
    h_path = np.empty(nf + 1)
    h_path[0] = h0
    d0 = h0 - h_bar
    if ekt is not None:
        # D_j = exp(-k*t_j) * (D_0 + sum_{i<j} exp(k*t_{i+1}) * shocks_i)
        inner = np.cumsum(ekt * shocks)
        h_path[1:] = h_bar + (d0 + inner) / ekt
    else:
        d = d0
        for j in range(nf):
            d = alpha[j] * d + shocks[j]
            h_path[j + 1] = h_bar + d
    return h_path
