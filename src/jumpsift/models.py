"""Model configurations and path ground-truth containers.

The three numbered models are the stock jump-diffusion setups this package
simulates; ``CustomModel`` assembles a process from small registries of
drift, spot-volatility and jump components (enough to express, e.g., a
jump-free diffusion or a compound-Poisson process with zero drift).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .grids import TimeGrid

SOURCE_FINITE_ACTIVITY = "finite-activity"
SOURCE_IA_SMALL = "ia-small-aggregate"
_SOURCES = (SOURCE_FINITE_ACTIVITY, SOURCE_IA_SMALL)
# JumpTable.codes entries: indices into _SOURCES.
CODE_FINITE_ACTIVITY = _SOURCES.index(SOURCE_FINITE_ACTIVITY)
CODE_IA_SMALL = _SOURCES.index(SOURCE_IA_SMALL)


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
        _require_positive(sigma=self.sigma, jump_intensity=self.jump_intensity,
                          jump_size_std=self.jump_size_std)


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
        _require_positive(jump_intensity=self.jump_intensity, jump_var=self.jump_var,
                          mean_reversion=self.mean_reversion, vol_of_vol=self.vol_of_vol)
        if not (-1.0 <= self.rho <= 1.0):
            raise InvalidArgumentError(f"rho must lie in [-1, 1], got {self.rho}")


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
        _require_positive(sigma=self.sigma, gamma_var=self.gamma_var, vg_vol=self.vg_vol)


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

# The name of each model in config files, presets, manifests and summaries.
MODEL_CLASSES: dict[str, type] = {
    "model1": Model1, "model2": Model2, "model3": Model3, "custom": CustomModel}


def model_name(model: ModelConfig) -> str:
    """The MODEL_CLASSES name of a model's class."""
    return {cls: name for name, cls in MODEL_CLASSES.items()}[type(model)]


def has_jumps(model: ModelConfig) -> bool:
    if isinstance(model, CustomModel):
        return model.jump_params() is not None
    return True


def constant_sigma(model: ModelConfig) -> float | None:
    """Spot volatility when it is constant over the path, else None.

    Model3 qualifies: its continuous martingale part is sigma*B; the VG
    component is pure-jump.
    """
    if isinstance(model, Model1):
        return model.sigma
    if isinstance(model, Model3):
        return model.sigma
    if isinstance(model, CustomModel):
        return model.sigma_value()
    return None


def finite_activity(model: ModelConfig) -> bool:
    if isinstance(model, (Model1, Model2)):
        return True
    if isinstance(model, CustomModel):
        return model.jump_params() is not None
    return False


@dataclass(frozen=True, slots=True)
class JumpEvent:
    """One jump of X: time in (0, T], size, and a source tag."""

    time: float
    size: float
    source: str = SOURCE_FINITE_ACTIVITY

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise InvalidArgumentError(f"unknown jump source {self.source!r}")
        if self.source == SOURCE_FINITE_ACTIVITY and self.size == 0.0:
            raise InvalidArgumentError("finite-activity jumps must have nonzero size")


class JumpTable(Sequence):
    """Jump events of one path held as parallel read-only arrays: times,
    sizes, and codes (int8 indices into the source tags).

    The table reads as a sequence of JumpEvent: len(), indexing and iteration
    build the events on demand, and == compares against another table or a
    sequence of events.
    """

    __slots__ = ("times", "sizes", "codes")

    def __init__(self, times, sizes, codes):
        times = np.array(times, dtype=float)
        sizes = np.array(sizes, dtype=float)
        codes = np.array(codes, dtype=np.int8)
        if not (times.ndim == sizes.ndim == codes.ndim == 1
                and times.size == sizes.size == codes.size):
            raise InvalidArgumentError("jump times, sizes and codes must be 1-D of equal length")
        # Viewed as uint8, negative codes land above every valid index.
        if np.count_nonzero(codes.view(np.uint8) >= len(_SOURCES)):
            raise InvalidArgumentError(f"unknown jump source code in {np.unique(codes).tolist()}")
        if np.count_nonzero((sizes == 0.0) & (codes == CODE_FINITE_ACTIVITY)):
            raise InvalidArgumentError("finite-activity jumps must have nonzero size")
        for arr in (times, sizes, codes):
            arr.flags.writeable = False
        self.times, self.sizes, self.codes = times, sizes, codes

    @classmethod
    def from_events(cls, events) -> JumpTable:
        """Table holding the given JumpEvents in order; a table is returned as is."""
        if isinstance(events, JumpTable):
            return events
        events = tuple(events)
        return cls([ev.time for ev in events], [ev.size for ev in events],
                   [_SOURCES.index(ev.source) for ev in events])

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, index: int) -> JumpEvent:
        return JumpEvent(float(self.times[index]), float(self.sizes[index]),
                         _SOURCES[self.codes[index]])

    def __iter__(self):
        for t, s, c in zip(self.times.tolist(), self.sizes.tolist(), self.codes.tolist()):
            yield JumpEvent(t, s, _SOURCES[c])

    def __eq__(self, other):
        if isinstance(other, JumpTable):
            return (np.array_equal(self.times, other.times)
                    and np.array_equal(self.sizes, other.sizes)
                    and np.array_equal(self.codes, other.codes))
        if isinstance(other, Sequence):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"JumpTable({len(self)} events)"


@dataclass(frozen=True, eq=False)
class SpotVariancePath:
    """sigma^2 at every simulation subgrid point (n*refinement + 1 values)."""

    values: np.ndarray
    refinement: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        # A NaN fails the first comparison; an empty array passes, as with np.all.
        if values.size and not (values.min() > 0.0 and values.max() < math.inf):
            raise InvalidArgumentError("spot variance must be positive and finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Simulator-side truth retained for oracle checks.

    continuous_part holds X0(t_i) = int a dt + int sigma dW at observation
    times.
    """

    spot_variance: SpotVariancePath
    jumps: JumpTable
    continuous_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jumps", JumpTable.from_events(self.jumps))


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
        if not np.all(np.isfinite(obs)):
            raise InvalidArgumentError("observations must be finite")
        object.__setattr__(self, "observations", obs)

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.observations)


def _require_positive(**named):
    for name, value in named.items():
        if not (value > 0.0) or not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be positive, got {value!r}")


def _parse_float(spec_id: str, what: str) -> float:
    try:
        value = float(spec_id.split(":", 1)[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad {what} id {spec_id!r}") from exc
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{what} id {spec_id!r} must hold a finite number")
    return value
