"""Annealing schedules, and which loss variant each one drives.

The step counter t is the epoch index, starting at 0. A schedule's value is
a pure function of the schedule, the step and the head count, so logged
values can be recomputed exactly.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigurationError, InputError
from .losses import max_dac_depth

# The ScheduleState fields that each kind's value reads.
KIND_FIELDS = {
    "exponential": ("t0", "rho"),
    "ewta-topn": ("total_steps",),
    "dac-depth": ("total_steps",),
    "constant": ("t0",),
}
KINDS = tuple(KIND_FIELDS)

# The lowest temperature an exponential schedule returns.
T_FLOOR = 1e-8

# The scheduled variants and the schedule kinds that may drive each. Each
# epoch the schedule's value is the variant's knob: awta's temperature,
# ewta's top_n, dac's depth. wta and rwta have no schedule.
CONTROLS = {
    "awta": ("exponential", "constant"),
    "ewta": ("ewta-topn",),
    "dac": ("dac-depth",),
}


@dataclasses.dataclass(frozen=True)
class ScheduleState:
    """One schedule: the scheduler block of a config.

    kind: which schedule family.
    t0: initial temperature (exponential, constant).
    rho: per-epoch decay factor (exponential).
    total_steps: length of the run; segments the ewta-topn and dac-depth
        ladders.
    """

    kind: str
    t0: float = 10.0
    rho: float = 0.834
    total_steps: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}, expected one of {KINDS}"
            )
        read = KIND_FIELDS[self.kind]
        if "t0" in read and not self.t0 > 0.0:
            raise ConfigurationError(f"t0 must be positive, got {self.t0}")
        if "rho" in read and not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must be in (0, 1), got {self.rho}")
        if self.total_steps < 1:
            raise ConfigurationError(
                f"total_steps must be >= 1, got {self.total_steps}"
            )


def value(schedule: ScheduleState, step: int, n_heads: int) -> float:
    """The schedule's value at epoch step for a model of n_heads heads.

    exponential: t0 * rho^t, clamped below at T_FLOOR.
    constant: t0.
    ewta-topn: a ladder from K heads down to 1. The run is cut into K equal
        segments; the i-th keeps the K - i lowest-cost heads.
    dac-depth: a ladder from depth 0 up to max_dac_depth(K), one equal
        segment per depth.
    A ladder holds its last rung at and past total_steps. A temperature is
    returned as the expression gives it, so a constant schedule's integer
    t0 comes back as an int.
    """
    if step < 0:
        raise InputError(f"step must be >= 0, got {step}")
    kind = schedule.kind
    if kind == "exponential":
        return max(schedule.t0 * schedule.rho**step, T_FLOOR)
    if kind == "constant":
        return schedule.t0
    if kind == "ewta-topn":
        if n_heads < 1:
            raise InputError(f"need at least one head, got {n_heads}")
        return max(1, n_heads - (step * n_heads) // schedule.total_steps)
    deepest = max_dac_depth(n_heads)
    return min(deepest, (step * (deepest + 1)) // schedule.total_steps)


def fields_read(variant: str, schedule: ScheduleState) -> tuple[str, ...]:
    """The ScheduleState fields that a run of this loss variant reads.

    A variant outside CONTROLS has no schedule and reads none. Otherwise the
    run reads what its kind's value reads (KIND_FIELDS).
    """
    return KIND_FIELDS[schedule.kind] if variant in CONTROLS else ()
