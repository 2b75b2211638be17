"""Unit tests for the annealing and ladder schedules."""

import dataclasses

import numpy as np
import pytest

from wtalab import ConfigurationError, InputError, ScheduleState
from wtalab.losses import KERNELS, VARIANTS, max_dac_depth
from wtalab.schedulers import CONTROLS, KINDS, T_FLOOR, fields_read, value


def test_exponential_matches_closed_form():
    s = ScheduleState(kind="exponential", t0=10.0, rho=0.834)
    for t in (0, 1, 7, 42):
        assert value(s, t, 6) == 10.0 * 0.834**t


def test_exponential_clamps_at_floor():
    s = ScheduleState(kind="exponential", t0=10.0, rho=0.5)
    assert T_FLOOR == 1e-8
    assert value(s, 500, 6) == T_FLOOR
    assert value(s, 29, 6) == 10.0 * 0.5**29 > T_FLOOR


def test_constant_is_flat():
    s = ScheduleState(kind="constant", t0=3.5)
    assert value(s, 0, 6) == 3.5
    assert value(s, 10_000, 6) == 3.5


def test_temperature_dispatch():
    assert value(ScheduleState(kind="constant", t0=2.0), 0, 6) == 2.0
    assert value(ScheduleState(kind="exponential", t0=8.0, rho=0.5), 1, 6) == 4.0


def test_integer_temperatures_keep_their_type():
    # Only a constant schedule returns t0 itself; an exponential one
    # multiplies it by a float power of rho.
    assert type(value(ScheduleState(kind="constant", t0=2), 3, 6)) is int
    s = ScheduleState(kind="exponential", t0=2, rho=0.4)
    assert [value(s, t, 6) for t in range(3)] == [2.0, 0.8, 2 * 0.4**2]
    assert [type(value(s, t, 6)) for t in range(3)] == [float, float, float]


def test_ewta_ladder_descends_from_k_to_one():
    s = ScheduleState(kind="ewta-topn", total_steps=100)
    values = [value(s, t, 6) for t in range(100)]
    assert values[0] == 6
    assert values[-1] == 1
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert set(values) == {1, 2, 3, 4, 5, 6}


def test_ewta_ladder_stays_at_one_past_the_end():
    s = ScheduleState(kind="ewta-topn", total_steps=10)
    assert value(s, 10, 4) == 1
    assert value(s, 999, 4) == 1


def test_ewta_segments_are_equal_length():
    s = ScheduleState(kind="ewta-topn", total_steps=12)
    values = [value(s, t, 4) for t in range(12)]
    assert values == [4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1]


def test_dac_ladder_climbs_to_max_depth():
    s = ScheduleState(kind="dac-depth", total_steps=100)
    for k in (2, 3, 6, 8):
        values = [value(s, t, k) for t in range(100)]
        assert values[0] == 0
        assert values[-1] == max_dac_depth(k)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert set(values) == set(range(max_dac_depth(k) + 1))


def test_dac_ladder_holds_deepest_past_the_end():
    s = ScheduleState(kind="dac-depth", total_steps=10)
    assert value(s, 10, 6) == max_dac_depth(6)
    assert value(s, 999, 6) == max_dac_depth(6)


@pytest.mark.parametrize("kind", ["ewta-topn", "dac-depth"])
def test_ladders_need_a_head(kind):
    with pytest.raises(InputError, match="head"):
        value(ScheduleState(kind=kind), 0, 0)


@pytest.mark.parametrize("kind", ["cosine", "linear"])
def test_kind_validation(kind):
    with pytest.raises(ConfigurationError, match=f"unknown schedule kind '{kind}'"):
        ScheduleState(kind=kind)


def test_four_kinds_and_one_kind_per_ladder():
    assert KINDS == ("exponential", "ewta-topn", "dac-depth", "constant")
    assert CONTROLS == {
        "awta": ("exponential", "constant"),
        "ewta": ("ewta-topn",),
        "dac": ("dac-depth",),
    }


def test_rho_validation():
    with pytest.raises(ConfigurationError):
        ScheduleState(kind="exponential", rho=1.0)
    with pytest.raises(ConfigurationError):
        ScheduleState(kind="exponential", rho=0.0)


def test_t0_validation():
    with pytest.raises(ConfigurationError):
        ScheduleState(kind="constant", t0=0.0)


def test_negative_step_rejected():
    with pytest.raises(InputError):
        value(ScheduleState(kind="constant"), -1, 6)


PERTURBED = {"t0": 13.0, "rho": 0.5, "total_steps": 37}


# Every variant with every schedule kind the config check lets it take.
ACCEPTED_PAIRS = [
    (variant, kind)
    for variant in VARIANTS
    for kind in KINDS
    if variant not in CONTROLS or kind in CONTROLS[variant]
]


def knobs(variant, schedule):
    """The knob that each of 150 epochs of a 6-head run passes to the
    variant's kernel: the schedule's value, or None without a schedule."""
    if variant not in CONTROLS:
        return [None] * 150
    return [value(schedule, step, 6) for step in range(150)]


@pytest.mark.parametrize("variant,kind", ACCEPTED_PAIRS)
def test_fields_read_are_the_fields_that_move_the_run(variant, kind):
    # The knobs are the oracle: changing a field outside fields_read leaves
    # the knob of every epoch as it was, and changing a field inside it
    # moves at least one epoch.
    base = ScheduleState(kind=kind)
    read = fields_read(variant, base)
    assert set(read) <= set(PERTURBED)
    unmoved = knobs(variant, base)
    for name, moved in PERTURBED.items():
        changed = dataclasses.replace(base, **{name: moved})
        assert (knobs(variant, changed) != unmoved) == (name in read), name


def test_fields_read_examples():
    assert fields_read("awta", ScheduleState("exponential")) == ("t0", "rho")
    assert fields_read("awta", ScheduleState("constant")) == ("t0",)
    assert fields_read("wta", ScheduleState("constant")) == ()
    assert fields_read("ewta", ScheduleState("ewta-topn")) == ("total_steps",)


# Temperature schedules for the kernel property below: the smallest and the
# largest positive t0, and decays from none to total. 5e-324 and a rho of
# 5e-324 put the exponential at T_FLOOR from step 0 and step 1.
TEMPERATURE_SCHEDULES = [
    ScheduleState(kind="constant", t0=t0) for t0 in (5e-324, 1e-8, 2, 150.0, 1e308)
] + [
    ScheduleState(kind="exponential", t0=t0, rho=rho)
    for t0 in (5e-324, 1e-8, 10.0, 150.0, 1e308)
    for rho in (5e-324, 0.5, 0.834, 0.92, 1.0 - 2.0**-53)
]


def scheduled_knobs(variant, kind, n_heads):
    """Every value that value returns for a kind on n_heads heads: over
    total_steps 1 to 64 and steps up to twice past the end for a ladder,
    over 300 steps of each TEMPERATURE_SCHEDULES entry for a temperature."""
    if kind in ("ewta-topn", "dac-depth"):
        schedules = [ScheduleState(kind=kind, total_steps=n) for n in range(1, 65)]
        return [
            value(s, step, n_heads) for s in schedules for step in range(3 * s.total_steps)
        ]
    return [
        value(s, step, n_heads)
        for s in TEMPERATURE_SCHEDULES
        if s.kind == kind
        for step in range(300)
    ]


@pytest.mark.parametrize(
    "variant,kind", [(v, kind) for v, kinds in CONTROLS.items() for kind in kinds]
)
def test_every_scheduled_value_passes_the_kernel_check(variant, kind):
    # LossConfig.validate checks no knob: each kernel checks the value it
    # is given, so every value a schedule can hand it must pass. The check
    # depends only on the value and the head count, so each distinct value
    # is run through the kernel once per head count.
    kernel = KERNELS[variant]
    seen = set()
    with np.errstate(over="ignore"):
        for n_heads in range(1, 17):
            values = scheduled_knobs(variant, kind, n_heads)
            costs = np.linspace(0.0, 3.0, n_heads)
            for knob in set(values):
                weights = kernel(costs, knob)
                assert np.add.reduce(weights) == pytest.approx(1.0), knob
            seen.update(values)
    if kind == "exponential":
        assert T_FLOOR in seen and min(seen) == T_FLOOR
    if kind == "constant":
        assert min(seen) == 5e-324
