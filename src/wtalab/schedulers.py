"""Annealing schedules that drive the loss variants across training.

The step counter t is the epoch index, starting at 0. Each schedule is a pure
function of its state, so logged values can be recomputed exactly.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigurationError, InputError
from .losses import max_dac_depth

KINDS = ("exponential", "linear", "ewta-topn", "dac-depth", "constant")

LINEAR_HORIZON = 100


@dataclasses.dataclass(frozen=True)
class ScheduleState:
    """One schedule evaluated at one step.

    kind: which schedule family.
    step: epoch index t >= 0.
    t0: initial temperature (exponential, linear, constant).
    rho: per-epoch decay factor (exponential).
    t_floor: lowest temperature ever returned.
    total_steps: length of the run; segments the ewta-topn and dac-depth
        ladders.
    """

    kind: str
    step: int = dataclasses.field(default=0, metadata={"json": False})
    t0: float = 10.0
    rho: float = 0.834
    t_floor: float = 1e-8
    total_steps: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}, expected one of {KINDS}"
            )
        if self.step < 0:
            raise InputError(f"step must be >= 0, got {self.step}")
        if self.kind in ("exponential", "linear", "constant") and not self.t0 > 0.0:
            raise ConfigurationError(f"t0 must be positive, got {self.t0}")
        if self.kind == "exponential" and not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must be in (0, 1), got {self.rho}")
        if not self.t_floor > 0.0:
            raise ConfigurationError(f"t_floor must be positive, got {self.t_floor}")
        if self.total_steps < 1:
            raise ConfigurationError(
                f"total_steps must be >= 1, got {self.total_steps}"
            )

    def at(self, step: int) -> "ScheduleState":
        """The same schedule evaluated at another step."""
        return dataclasses.replace(self, step=step)


def exp_temperature(state: ScheduleState) -> float:
    """Geometric decay t0 * rho^t, clamped below at t_floor."""
    if state.kind != "exponential":
        raise ConfigurationError(f"expected an exponential schedule, got {state.kind!r}")
    return max(state.t0 * state.rho**state.step, state.t_floor)


def linear_temperature(state: ScheduleState) -> float:
    """Linear ramp t0 * (1 - t / 100), then held at t_floor."""
    if state.kind != "linear":
        raise ConfigurationError(f"expected a linear schedule, got {state.kind!r}")
    if state.step >= LINEAR_HORIZON:
        return state.t_floor
    return max(state.t0 * (1.0 - state.step / LINEAR_HORIZON), state.t_floor)


def ewta_topn(state: ScheduleState, n_heads: int) -> int:
    """Piecewise-constant ladder from K heads down to 1.

    The run is cut into K equal segments; the i-th segment keeps the K - i
    lowest-cost heads. Steps at or past total_steps stay at 1.
    """
    if state.kind != "ewta-topn":
        raise ConfigurationError(f"expected an ewta-topn schedule, got {state.kind!r}")
    if n_heads < 1:
        raise InputError(f"need at least one head, got {n_heads}")
    return max(1, n_heads - (state.step * n_heads) // state.total_steps)


def dac_depth(state: ScheduleState, n_heads: int) -> int:
    """Piecewise-constant ladder from depth 0 up to max_dac_depth(K).

    The run is cut into max_dac_depth(K) + 1 equal segments, one per depth.
    Steps at or past total_steps stay at the deepest level.
    """
    if state.kind != "dac-depth":
        raise ConfigurationError(f"expected a dac-depth schedule, got {state.kind!r}")
    deepest = max_dac_depth(n_heads)
    return min(deepest, (state.step * (deepest + 1)) // state.total_steps)


def constant_temperature(state: ScheduleState) -> float:
    """A flat schedule; useful for fixed-temperature runs and baselines."""
    if state.kind != "constant":
        raise ConfigurationError(f"expected a constant schedule, got {state.kind!r}")
    return state.t0


def temperature(state: ScheduleState) -> float:
    """Temperature at the state's step for any temperature-valued kind."""
    if state.kind == "exponential":
        return exp_temperature(state)
    if state.kind == "linear":
        return linear_temperature(state)
    if state.kind == "constant":
        return constant_temperature(state)
    raise ConfigurationError(f"schedule kind {state.kind!r} has no temperature")
