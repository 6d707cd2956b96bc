"""Model configurations and path ground-truth containers.

The three numbered models are the stock jump-diffusion setups this package
simulates; ``CustomModel`` assembles a process from small registries of
drift, spot-volatility and jump components (enough to express, e.g., a
jump-free diffusion or a compound-Poisson process with zero drift).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .grids import (CORRELATION, COUNT, FINITE, NONNEGATIVE, POSITIVE, TimeGrid, _check_fields,
                    _check_number)


@dataclass(frozen=True, slots=True)
class Model1:
    """Constant-volatility diffusion plus compound Poisson jumps.

    dX = drift*dt + sigma*dW + dJ, where J has Poisson event times with
    rate ``jump_intensity`` and i.i.d. N(0, jump_size_std^2) sizes.
    """

    sigma: float = field(default=0.3, metadata={"rule": POSITIVE})
    jump_intensity: float = field(default=5.0, metadata={"rule": POSITIVE})
    jump_size_std: float = field(default=0.6, metadata={"rule": POSITIVE})
    drift: float = field(default=0.0, metadata={"rule": FINITE})

    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class Model2:
    """Log-price with exponential-OU stochastic volatility and leverage.

    sigma = exp(H), dH = -mean_reversion*(H - h_bar)*dt + vol_of_vol*dW2,
    Corr(dW1, dW2) = rho, dX = (mu - sigma^2/2)*dt + sigma*dW1 + dJ where
    jumps add ln(1 + Z), Z ~ N(jump_mean, jump_var), at Poisson times.
    """

    mu: float = field(default=0.0, metadata={"rule": FINITE})
    jump_intensity: float = field(default=4.0, metadata={"rule": POSITIVE})
    jump_mean: float = field(default=0.001, metadata={"rule": FINITE})
    jump_var: float = field(default=0.02, metadata={"rule": POSITIVE})
    rho: float = field(default=-0.7, metadata={"rule": CORRELATION})
    h0: float = field(default=math.log(0.3), metadata={"rule": FINITE})
    mean_reversion: float = field(default=1.0, metadata={"rule": POSITIVE})
    h_bar: float = field(default=math.log(0.25), metadata={"rule": FINITE})
    vol_of_vol: float = field(default=0.01, metadata={"rule": POSITIVE})

    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True)
class Model3:
    """Diffusion plus Variance Gamma jumps.

    X = sigma*B + vg_drift*G + vg_vol*W_G with G a Gamma subordinator
    normalized to E[G_t] = t and Var(G_1) = gamma_var.
    """

    sigma: float = field(default=0.3, metadata={"rule": POSITIVE})
    gamma_var: float = field(default=0.23, metadata={"rule": POSITIVE})
    vg_drift: float = field(default=-0.2, metadata={"rule": FINITE})
    vg_vol: float = field(default=0.2, metadata={"rule": POSITIVE})

    __post_init__ = _check_fields


# CustomModel's id grammar: each field's kinds of id, each with the name and
# grids rule of the comma-separated numbers after its colon. A jump size_std
# must also be positive once the intensity is above 0; an intensity of 0
# means no jumps.
_ID_KINDS: dict[str, dict[str, tuple]] = {
    "drift": {"zero": (), "constant:<a>": (("drift", FINITE),)},
    "spot_vol": {"constant:<sigma>": (("spot_vol sigma", POSITIVE),)},
    "jumps": {"none": (), "compound-poisson:<lam>,<size_std>": (
        ("jump intensity", NONNEGATIVE), ("jump size_std", FINITE))},
}


def _id_numbers(field: str, spec) -> tuple[float, ...]:
    """The numbers of a CustomModel field's id, each checked by its rule."""
    if not isinstance(spec, str):
        raise InvalidArgumentError(f"{field} id must be a string, got {spec!r}")
    for kind, slots in _ID_KINDS[field].items():
        if spec == kind and not slots:
            return ()
        head, _, form = kind.partition(":")
        if not (slots and spec.startswith(head + ":")):
            continue
        body = spec[len(head) + 1:]
        texts = body.split(",") if len(slots) > 1 else [body]
        if len(texts) != len(slots):
            raise InvalidArgumentError(f"{field} id needs '{form}', got {spec!r}")
        try:
            values = [float(text) for text in texts]
        except ValueError:
            raise InvalidArgumentError(f"bad {field} id {spec!r}") from None
        return tuple(_check_number(name, value, rule)
                     for (name, rule), value in zip(slots, values))
    raise InvalidArgumentError(f"unknown {field} id {spec!r}")


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
        compound_poisson_law(self)


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
        (drift,) = _id_numbers("drift", model.drift) or (0.0,)  # 'zero'
        (sigma,) = _id_numbers("spot_vol", model.spot_vol)
        jumps = _id_numbers("jumps", model.jumps)
        if not jumps or jumps[0] == 0.0:  # 'none', or intensity 0
            return drift, sigma, None
        _check_number("jump size_std", jumps[1], POSITIVE)
        return drift, sigma, jumps
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
        if not (np.isfinite(times).all() and np.isfinite(sizes).all()):
            raise InvalidArgumentError("jump times and sizes must be finite")
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
    refinement: int = field(metadata={"rule": COUNT})
    jumps: JumpTable
    continuous_increments: np.ndarray

    __post_init__ = _check_fields

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
