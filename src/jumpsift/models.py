"""Model configurations and path ground-truth containers.

The three numbered models are the stock jump-diffusion setups this package
simulates; ``CustomModel`` assembles a process from small registries of
drift, spot-volatility and jump components (enough to express, e.g., a
jump-free diffusion or a compound-Poisson process with zero drift).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .grids import TimeGrid, _check_number


@dataclass(frozen=True, slots=True)
class Model1:
    """Constant-volatility diffusion plus compound Poisson jumps.

    dX = drift*dt + sigma*dW + dJ, where J has Poisson event times with
    rate ``jump_intensity`` and i.i.d. N(0, jump_size_std^2) sizes.
    """

    sigma: float = 0.3
    jump_intensity: float = 5.0
    jump_size_std: float = 0.6
    drift: float = 0.0

    def __post_init__(self):
        for name in ("sigma", "jump_intensity", "jump_size_std"):
            _check_number(name, getattr(self, name))


@dataclass(frozen=True, slots=True)
class Model2:
    """Log-price with exponential-OU stochastic volatility and leverage.

    sigma = exp(H), dH = -mean_reversion*(H - h_bar)*dt + vol_of_vol*dW2,
    Corr(dW1, dW2) = rho, dX = (mu - sigma^2/2)*dt + sigma*dW1 + dJ where
    jumps add ln(1 + Z), Z ~ N(jump_mean, jump_var), at Poisson times.
    """

    mu: float = 0.0
    jump_intensity: float = 4.0
    jump_mean: float = 0.001
    jump_var: float = 0.02
    rho: float = -0.7
    h0: float = math.log(0.3)
    mean_reversion: float = 1.0
    h_bar: float = math.log(0.25)
    vol_of_vol: float = 0.01

    def __post_init__(self):
        for name in ("jump_intensity", "jump_var", "mean_reversion", "vol_of_vol"):
            _check_number(name, getattr(self, name))
        _check_number("rho", self.rho, ("lie in [-1, 1]", lambda r: -1.0 <= r <= 1.0))


@dataclass(frozen=True, slots=True)
class Model3:
    """Diffusion plus Variance Gamma jumps.

    X = sigma*B + vg_drift*G + vg_vol*W_G with G a Gamma subordinator
    normalized to E[G_t] = t and Var(G_1) = gamma_var.
    """

    sigma: float = 0.3
    gamma_var: float = 0.23
    vg_drift: float = -0.2
    vg_vol: float = 0.2

    def __post_init__(self):
        for name in ("sigma", "gamma_var", "vg_vol"):
            _check_number(name, getattr(self, name))


@dataclass(frozen=True, slots=True)
class CustomModel:
    """Process assembled from component ids.

    drift: 'zero' or 'constant:<a>'
    spot_vol: 'constant:<sigma>' with sigma > 0
    jumps: 'none' or 'compound-poisson:<lam>,<size_std>' (zero-mean normal
    sizes; lam >= 0, so lam=0 expresses a jump-free diffusion as well)
    """

    drift: str = "zero"
    spot_vol: str = "constant:0.3"
    jumps: str = "none"

    def __post_init__(self):
        # Parse eagerly so a bad id fails at construction, not mid-simulation.
        self.drift_value()
        self.sigma_value()
        self.jump_params()

    def drift_value(self) -> float:
        if self.drift == "zero":
            return 0.0
        if self.drift.startswith("constant:"):
            return _parse_float(self.drift, "drift")
        raise InvalidArgumentError(f"unknown drift id {self.drift!r}")

    def sigma_value(self) -> float:
        if self.spot_vol.startswith("constant:"):
            sigma = _parse_float(self.spot_vol, "spot_vol")
            if sigma <= 0.0:
                raise InvalidArgumentError("spot_vol sigma must be positive")
            return sigma
        raise InvalidArgumentError(f"unknown spot_vol id {self.spot_vol!r}")

    def jump_params(self) -> tuple[float, float] | None:
        """(intensity, size_std) for compound Poisson, None when jump-free."""
        if self.jumps == "none":
            return None
        if self.jumps.startswith("compound-poisson:"):
            body = self.jumps.split(":", 1)[1]
            parts = body.split(",")
            if len(parts) != 2:
                raise InvalidArgumentError(
                    f"jumps id needs '<lam>,<size_std>', got {self.jumps!r}")
            try:
                lam, size_std = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise InvalidArgumentError(f"bad jumps id {self.jumps!r}") from exc
            if not (math.isfinite(lam) and math.isfinite(size_std)):
                raise InvalidArgumentError(f"jumps id {self.jumps!r} must hold finite numbers")
            if lam < 0.0:
                raise InvalidArgumentError("jump intensity must be >= 0")
            if lam > 0.0 and size_std <= 0.0:
                raise InvalidArgumentError("jump size_std must be positive")
            return None if lam == 0.0 else (lam, size_std)
        raise InvalidArgumentError(f"unknown jumps id {self.jumps!r}")


ModelConfig = Model1 | Model2 | Model3 | CustomModel

# Format version of config files, manifests, reports and summaries.
SCHEMA_VERSION = 1

# The name of each model in config files, presets, manifests and summaries.
MODEL_CLASSES: dict[str, type] = {
    "model1": Model1, "model2": Model2, "model3": Model3, "custom": CustomModel}


def model_name(model: ModelConfig) -> str:
    """The MODEL_CLASSES name of a model's class; any other class raises."""
    for name, cls in MODEL_CLASSES.items():
        if type(model) is cls:
            return name
    raise InvalidArgumentError(f"unknown model config {type(model).__name__}")


def compound_poisson_law(model: ModelConfig) -> tuple | None:
    """(drift, sigma, (intensity, size_std) or None without jumps) for the
    constant-volatility compound-Poisson models, Model1 and CustomModel;
    None for Model2 (stochastic volatility) and Model3 (Variance Gamma)."""
    if isinstance(model, Model1):
        return model.drift, model.sigma, (model.jump_intensity, model.jump_size_std)
    if isinstance(model, CustomModel):
        return model.drift_value(), model.sigma_value(), model.jump_params()
    return None


def has_jumps(model: ModelConfig) -> bool:
    law = compound_poisson_law(model)
    return law is None or law[2] is not None


def finite_activity(model: ModelConfig) -> bool:
    """True for compound-Poisson jumps; Model3's Variance Gamma jumps have
    infinite activity."""
    return has_jumps(model) and not isinstance(model, Model3)


class JumpTable:
    """Jumps of one path as two read-only arrays, times in (0, T] and sizes.

    Whether they are finite-activity events or Model3's aggregated small
    jumps is a property of the model; finite_activity(model) tells which.
    """

    __slots__ = ("times", "sizes")

    def __init__(self, times, sizes):
        times = np.array(times, dtype=float)
        sizes = np.array(sizes, dtype=float)
        if not (times.ndim == sizes.ndim == 1 and times.size == sizes.size):
            raise InvalidArgumentError("jump times and sizes must be 1-D of equal length")
        times.flags.writeable = False
        sizes.flags.writeable = False
        self.times, self.sizes = times, sizes

    def __len__(self) -> int:
        return self.times.size

    def __repr__(self) -> str:
        return f"JumpTable({len(self)} events)"


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Simulator-side truth retained for oracle checks: sigma^2 at every
    simulation subgrid point (n*refinement + 1 values), and the increment of
    X0 = int a dt + int sigma dW over each substep (n*refinement values).
    """

    spot_variance: np.ndarray
    refinement: int
    jumps: JumpTable
    continuous_increments: np.ndarray

    @functools.cached_property
    def continuous_part(self) -> np.ndarray:
        """X0(t_i) at observation times, derived on first read."""
        incr = self.continuous_increments
        cont_fine = np.empty(incr.size + 1)
        cont_fine[0] = 0.0
        np.cumsum(incr, out=cont_fine[1:])
        return cont_fine[::self.refinement]


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Observed values X(t_i) on a grid, with optional ground truth."""

    grid: TimeGrid
    observations: np.ndarray
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.shape != self.grid.times.shape:
            raise InvalidArgumentError("observations must match the grid length")
        if not np.isfinite(obs).all():
            raise InvalidArgumentError("observations must be finite")
        object.__setattr__(self, "observations", obs)

    @property
    def increments(self) -> np.ndarray:
        """obs[i + 1] - obs[i]; a difference past the largest double is +-inf."""
        obs = self.observations
        with np.errstate(over="ignore"):
            return obs[1:] - obs[:-1]


def _parse_float(spec_id: str, what: str) -> float:
    try:
        value = float(spec_id.split(":", 1)[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad {what} id {spec_id!r}") from exc
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{what} id {spec_id!r} must hold a finite number")
    return value
