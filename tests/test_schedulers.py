"""Unit tests for the annealing and ladder schedules."""

import dataclasses

import pytest

from wtalab import ConfigurationError, InputError, ScheduleState
from wtalab.losses import VARIANTS, LossConfig, max_dac_depth
from wtalab.schedulers import CONTROLS, KINDS, T_FLOOR, control, fields_read, value


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
        "awta": ("temperature", ("exponential", "constant")),
        "ewta": ("top_n", ("ewta-topn",)),
        "dac": ("depth", ("dac-depth",)),
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
    if variant not in CONTROLS or kind in CONTROLS[variant][1]
]


@pytest.mark.parametrize("variant,kind", ACCEPTED_PAIRS)
def test_fields_read_are_the_fields_that_move_the_run(variant, kind):
    # control is the oracle: changing a field outside fields_read leaves the
    # logged value and the loss config of every epoch as they were, and
    # changing a field inside it moves at least one epoch.
    loss = LossConfig(variant=variant)
    base = ScheduleState(kind=kind)
    read = fields_read(loss, base)
    assert set(read) <= set(PERTURBED)
    unmoved = [control(loss, base, step, 6) for step in range(150)]
    for name, moved in PERTURBED.items():
        changed = dataclasses.replace(base, **{name: moved})
        epochs = [control(loss, changed, step, 6) for step in range(150)]
        assert (epochs != unmoved) == (name in read), name


def test_fields_read_examples():
    assert fields_read(LossConfig(variant="awta"), ScheduleState("exponential")) == (
        "t0",
        "rho",
    )
    assert fields_read(LossConfig(variant="awta"), ScheduleState("constant")) == ("t0",)
    assert fields_read(LossConfig(variant="wta"), ScheduleState("constant")) == ()
    assert fields_read(LossConfig(variant="ewta"), ScheduleState("ewta-topn")) == (
        "total_steps",
    )
