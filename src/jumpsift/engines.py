"""Path simulation engines.

Every engine runs on a subgrid ``substeps`` times finer than the observation
grid and subsamples; ground-truth integrated variance uses the fine grid.
The generator is counter-based (numpy Philox keyed directly with the 64-bit
seed), so identical (config, grid, substeps, seed) give bit-identical paths
regardless of what else has been sampled in the process.

Each thread keeps one Philox generator and re-keys it for every path:
setting the key to the path's seed, the counter to 0 and the buffer to
empty gives, bit for bit, the stream a newly built generator would.

Draw order is part of the determinism contract and is fixed per model:

* Model1 / CustomModel: diffusion normals (one bulk draw), Poisson event
  times (sequential exponentials), jump sizes (one bulk draw).
* Model2: W1 normals, W2 normals, Poisson event times, then per-event jump
  sizes (each resampled until 1 + Z > 0, at most 100 tries).
* Model3: subordinator Gamma increments, jump normals, diffusion normals.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SimulationError, UnsupportedError
from .grids import (_MASK64, _MAX_ARRAY_BYTES, INTEGER, TimeGrid, _check_number,
                    containing_intervals, refine, rng_from_seed)
from .models import (
    CustomModel,
    GroundTruth,
    JumpTable,
    Model1,
    Model2,
    Model3,
    ModelConfig,
    SamplePath,
    compound_poisson_law,
)

RNG_ALGORITHM = "numpy.random.Philox, raw 64-bit key, numpy Generator draws"

# Resampling budget for Model2 jump sizes with 1 + Z <= 0 (a ~7 sigma event
# at the default parameters).
_MAX_JUMP_RESAMPLES = 100

# exp(k*t) factors in the closed-form OU scan stay representable up to here;
# beyond it the engine falls back to the stepwise recursion.
_OU_SCAN_MAX_EXPONENT = 600.0

_NO_EVENTS = ((), np.empty(0), np.empty(0, dtype=np.intp))


_thread = threading.local()


def _path_rng(seed: int) -> np.random.Generator:
    """This thread's generator, with its whole state reset to that of
    rng_from_seed(seed): key (seed, 0), counter 0, empty buffers. Building a
    new Philox also draws OS entropy for an unused SeedSequence and costs
    several times as much."""
    try:
        rng = _thread.rng
    except AttributeError:
        rng = _thread.rng = rng_from_seed(0)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & _MASK64, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def path_seed(base_seed: int, path_index: int) -> int:
    """Per-path key: base_seed XOR path_index, reduced to 64 bits."""
    return (_check_number("base_seed", base_seed, INTEGER)
            ^ _check_number("path_index", path_index, INTEGER)) & _MASK64


@dataclass(frozen=True, eq=False)
class SimulationPlan:
    """What every path of a run on one grid shares, its arrays read-only:
    the subgrid refine(grid, substeps), the model's per-substep constants,
    the sigma^2 spot array of a constant-volatility model (None for Model2)
    and the model's engine. A constant-volatility model's constants are
    sigma*sqrt(h), drift*h (the Gamma shape h/b for Model3) and the jump
    parameters (None for Model3); Model2's are those of _ou_coefficients."""

    model: ModelConfig
    grid: TimeGrid
    substeps: int
    fine_times: np.ndarray
    fine_widths: np.ndarray
    spot: np.ndarray | None
    constants: tuple
    engine: Callable

    # A path that overflows is one error, not a numpy warning and an error.
    @np.errstate(over="ignore", invalid="ignore")
    def arrays(self, seed: int) -> tuple:
        """One path's observations (every substeps-th fine value), its
        continuous increments and spot sigma^2 on the subgrid, and its jumps:
        (times, sizes, observation interval of each) for finite-activity
        models, the jump part of each substep for Model3. A non-finite last
        fine value raises, since a cumulative sum that goes non-finite stays so."""
        x_fine, cont_incr, spot, jumps = self.engine(self, _path_rng(seed))
        if not math.isfinite(x_fine[-1]):
            raise InvalidArgumentError("observations must be finite")
        return x_fine[::self.substeps], cont_incr, spot, jumps

    def simulate(self, seed: int) -> SamplePath:
        observations, cont_incr, spot, jumps = self.arrays(seed)
        if isinstance(jumps, np.ndarray):
            nonzero = np.flatnonzero(jumps)
            table = JumpTable(self.fine_times[nonzero + 1], jumps[nonzero])
        else:
            table = JumpTable(*jumps[:2])
        truth = GroundTruth(spot_variance=spot, refinement=self.substeps, jumps=table,
                            continuous_increments=cont_incr)
        return SamplePath(self.grid, observations, truth)


def simulation_plan(cfg: ModelConfig, grid: TimeGrid, substeps: int) -> SimulationPlan:
    """The plan for the model on the grid; the grid's own arrays stay writable.
    Rejects what no path could run with: more expected jump times than numpy
    can allocate, or a constant sigma^2 that is not positive and finite."""
    fine_times, fine_widths = (arr.view() for arr in refine(grid, substeps))
    if isinstance(cfg, Model2):
        engine, spot = _simulate_model2, None
        _require_jump_count(cfg.jump_intensity, grid.t_end)
        constants = _ou_coefficients(cfg, fine_times, fine_widths)
    else:
        if isinstance(cfg, Model3):
            engine, sigma, jump_params = _simulate_model3, cfg.sigma, None
            per_step = fine_widths / cfg.gamma_var
        elif isinstance(cfg, (Model1, CustomModel)):
            engine = _simulate_constant_vol
            drift, sigma, jump_params = compound_poisson_law(cfg)
            per_step = drift * fine_widths
            if jump_params is not None:
                _require_jump_count(jump_params[0], grid.t_end)
        else:
            raise InvalidArgumentError(f"unknown model config {type(cfg).__name__}")
        constants = (sigma * np.sqrt(fine_widths), per_step, jump_params)
        spot = _require_spot_variance(np.full(fine_widths.size + 1, sigma * sigma))
    for arr in (fine_times, fine_widths, spot, *constants):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return SimulationPlan(cfg, grid, substeps, fine_times, fine_widths, spot, constants, engine)


def simulate(cfg: ModelConfig, grid: TimeGrid, substeps: int = 1, seed: int = 0) -> SamplePath:
    """One path of the model on the grid, simulated `substeps` times finer
    from the Philox key `seed`: observations from X(0) = 0, with full ground
    truth attached."""
    seed = _check_number("seed", seed, INTEGER)
    return simulation_plan(cfg, grid, substeps).simulate(seed)


def true_integrated_variance(path: SamplePath, power: int) -> float:
    """Left-endpoint Riemann sum of sigma^power over the simulation subgrid."""
    if power not in (2, 4):
        raise InvalidArgumentError(f"power must be 2 or 4, got {power!r}")
    if path.ground_truth is None:
        raise UnsupportedError("path has no ground truth")
    truth = path.ground_truth
    return spot_integral(truth.spot_variance, refine(path.grid, truth.refinement)[1], power)


def spot_integral(spot: np.ndarray, fine_widths: np.ndarray, power: int) -> float:
    """sum_j spot_j^(power/2) * fine_widths_j over the left endpoints."""
    left = spot[:-1]
    integrand = left if power == 2 else left * left
    return float((integrand * fine_widths).sum())


def _simulate_constant_vol(plan, rng):
    """Shared engine for Model1 and CustomModel (constant sigma, optional
    compound Poisson jumps with zero-mean normal sizes)."""
    sigma_root_h, drift_h, jump_params = plan.constants
    cont_incr = rng.standard_normal(sigma_root_h.size)
    cont_incr *= sigma_root_h
    cont_incr += drift_h

    events, jump_incr = _NO_EVENTS, 0.0
    if jump_params is not None:
        lam, size_std = jump_params
        times = _poisson_times(rng, plan.grid.t_end, lam)
        if times:
            events, jump_incr = _events(plan, times, rng.normal(0.0, size_std, len(times)))

    return _assemble(cont_incr, jump_incr, plan.spot, events)


def _simulate_model2(plan, rng):
    cfg, fine_widths = plan.model, plan.fine_widths
    nf = fine_widths.size
    z1 = rng.standard_normal(nf)
    z2 = rng.standard_normal(nf)

    # Each step below works in place, in the operation order of
    # shocks = c21*z1 + c22*z2, sigma_left = exp(H[:-1]),
    # cont = (mu - 0.5*sigma_left*sigma_left)*h + sigma_left*sqrt(h)*z1
    # and spot = exp(2*H).
    sqrt_widths, alpha, c21, c22, ekt = plan.constants
    h_path = np.empty(nf + 1)
    shocks = np.multiply(c21, z1, out=h_path[1:])
    z2 *= c22
    shocks += z2
    _ou_scan(cfg.h0, cfg.h_bar, alpha, ekt, h_path)

    sigma_left = np.exp(h_path[:-1], out=z2)
    drift_incr = np.multiply(0.5, sigma_left)
    drift_incr *= sigma_left
    np.subtract(cfg.mu, drift_incr, out=drift_incr)
    drift_incr *= fine_widths
    sigma_left *= sqrt_widths
    cont_incr = z1
    cont_incr *= sigma_left
    cont_incr += drift_incr

    times = _poisson_times(rng, plan.grid.t_end, cfg.jump_intensity)
    events, jump_incr = _NO_EVENTS, 0.0
    if times:
        jump_sd = math.sqrt(cfg.jump_var)
        sizes = np.array([_draw_log_jump(rng, cfg.jump_mean, jump_sd) for _ in times])
        events, jump_incr = _events(plan, times, sizes)

    h_path *= 2.0
    spot = _require_spot_variance(np.exp(h_path, out=h_path))
    return _assemble(cont_incr, jump_incr, spot, events)


def _simulate_model3(plan, rng):
    cfg = plan.model
    sigma_root_h, gamma_shape, _ = plan.constants
    nf = gamma_shape.size
    dg = rng.standard_gamma(gamma_shape)
    dg *= cfg.gamma_var
    z_jump = rng.standard_normal(nf)
    cont_incr = rng.standard_normal(nf)
    cont_incr *= sigma_root_h

    # Subordinator increments whose mass sits below the double denormal range
    # come back as exactly 0.0; the corresponding substep then carries no
    # jump increment and no event is recorded.
    # jump_incr = vg_drift*dg + vg_vol*sqrt(dg)*z_jump, in place.
    vol_part = np.sqrt(dg)
    vol_part *= cfg.vg_vol
    vol_part *= z_jump
    jump_incr = dg
    jump_incr *= cfg.vg_drift
    jump_incr += vol_part

    return _assemble(cont_incr, jump_incr, plan.spot, jump_incr)


def _events(plan, times, sizes) -> tuple:
    """(times, sizes, observation interval of each) and the sum of the jump
    sizes in each substep, added in event order."""
    substep = containing_intervals(plan.fine_times, times)
    return ((times, sizes, substep // plan.substeps),
            np.bincount(substep, weights=sizes, minlength=plan.fine_widths.size))


def _assemble(cont_incr, jump_incr, spot, jumps):
    """The fine path and the other arrays SimulationPlan.arrays hands out;
    jump_incr is an array of per-substep sums, or 0.0 without jumps."""
    x_fine = np.empty(cont_incr.size + 1)
    x_fine[0] = 0.0
    np.add(cont_incr, jump_incr, out=x_fine[1:])
    np.cumsum(x_fine[1:], out=x_fine[1:])
    return x_fine, cont_incr, spot, jumps


def _poisson_times(rng, t_end, lam) -> list[float]:
    """Event times in (0, t_end] from exponential waiting times with rate lam > 0."""
    times = []
    t = 0.0
    scale = 1.0 / lam
    while True:
        t += rng.exponential(scale)
        if t > t_end:
            return times
        times.append(t)


def _require_jump_count(lam, t_end):
    if lam * t_end * 8 > _MAX_ARRAY_BYTES:
        raise InvalidArgumentError(
            f"jump intensity {lam!r} over horizon t = {t_end!r} expects"
            f" {lam * t_end!r} jump times, more doubles than numpy can allocate")


def _require_spot_variance(spot: np.ndarray) -> np.ndarray:
    # A NaN fails the first comparison.
    if not (spot.min() > 0.0 and spot.max() < math.inf):
        raise InvalidArgumentError("spot variance must be positive and finite")
    return spot


def _draw_log_jump(rng, mean, sd) -> float:
    """ln(1 + Z) with Z ~ N(mean, sd^2), resampling while 1 + Z <= 0."""
    for _ in range(_MAX_JUMP_RESAMPLES):
        z = rng.normal(mean, sd)
        if 1.0 + z > 0.0:
            return math.log1p(z)
    raise SimulationError(
        f"failed to draw a jump with 1 + Z > 0 in {_MAX_JUMP_RESAMPLES} tries "
        f"(mean={mean}, sd={sd})")


def _ou_coefficients(cfg: Model2, fine_times, fine_widths):
    """Per-substep constants of the Model2 volatility scan: sqrt of the
    widths, the OU decay alpha, the shock loadings (c21, c22) on (z1, z2),
    and the exp(k*t) weights of the closed-form scan (None where they would
    overflow).

    The shock V = c21*z1 + c22*z2 makes Cov(dW1, V) = rho*eta*(1 - alpha)/k
    hold exactly, so each substep is an exact OU transition.
    """
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
    return sqrt_widths, alpha, c21, c22, ekt


def _ou_scan(h0, h_bar, alpha, ekt, h_path):
    """Fills h_path with the mean-reverting path H, exact Gaussian
    transitions; h_path[1:] holds the shocks on entry.

    H_{j+1} = h_bar + alpha_j*(H_j - h_bar) + shocks_j. Given the exp(k*t_j)
    weights ekt, the recursion unrolls into a cumulative sum; without them
    (exponents that would overflow) the stepwise loop runs.
    """
    shocks = h_path[1:]
    h_path[0] = h0
    d0 = h0 - h_bar
    if ekt is not None:
        # D_j = exp(-k*t_j) * (D_0 + sum_{i<j} exp(k*t_{i+1}) * shocks_i)
        shocks *= ekt
        np.cumsum(shocks, out=shocks)
        shocks += d0
        shocks /= ekt
        shocks += h_bar
    else:
        d = d0
        for j in range(shocks.size):
            d = alpha[j] * d + shocks[j]
            shocks[j] = h_bar + d
