"""Tests for the multi-hypothesis MLP: init, forward, backward, Adam and
checkpoints, with the oracles they are checked against: the forward and
backward passes as first written, and central finite differences."""

import base64
import copy
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from wtalab import (
    ConfigurationError,
    GradientBuffer,
    ModelConfig,
    ModelParams,
    NonFiniteError,
    adam_step,
    init_adam,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from wtalab.losses import batch_objective, stable_softmax
from wtalab import network
from wtalab.network import backward_batch, forward_batch


def b64(values) -> str:
    """Checkpoint data for values, built with struct and base64 alone: the
    base64 of their little-endian float64 bytes."""
    values = list(values)
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def small_config(**overrides) -> ModelConfig:
    base = dict(input_dim=6, n_heads=3, horizon=4, hidden=(8,))
    base.update(overrides)
    return ModelConfig(**base)


def reference_init_params(config: ModelConfig, seed: int) -> ModelParams:
    """init_params as first written: each tensor drawn by rng.uniform into
    its own array, then copied into the flat vector."""
    rng = np.random.default_rng(seed)
    dims = [config.input_dim, *config.hidden, config.output_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    if config.init == "clustered":
        bound = np.sqrt(6.0 / (dims[-2] + dims[-1]))
        traj_template = rng.uniform(-bound, bound, size=config.horizon * 2)
        logit_value = rng.uniform(-bound, bound)
        biases[-1] = np.concatenate(
            [np.tile(traj_template, config.n_heads), np.full(config.n_heads, logit_value)]
        )
    return ModelParams(
        weights=weights, biases=biases, n_heads=config.n_heads, horizon=config.horizon
    )


class TestModelConfig:
    def test_output_dim_counts_trajectories_and_logits(self):
        cfg = ModelConfig(input_dim=5, n_heads=3, horizon=4)
        assert cfg.output_dim == 3 * (4 * 2 + 1)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(input_dim=-1),
            dict(n_heads=0),
            dict(horizon=0),
            dict(hidden=(8, 0)),
            dict(init="xavier"),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            small_config(**overrides).validate()


class TestInitParams:
    def test_layer_shapes(self):
        cfg = ModelConfig(input_dim=6, n_heads=3, horizon=4, hidden=(8, 5))
        params = init_params(cfg, seed=0)
        assert [w.shape for w in params.weights] == [
            (8, 6),
            (5, 8),
            (cfg.output_dim, 5),
        ]
        assert [b.shape for b in params.biases] == [(8,), (5,), (cfg.output_dim,)]
        assert params.n_heads == 3 and params.horizon == 4
        assert params.input_dim == 6
        assert params.hidden == (8, 5)
        assert params.n_layers == 3

    def test_uniform_bounds_respected(self):
        cfg = ModelConfig(input_dim=20, n_heads=4, horizon=3, hidden=(30,))
        params = init_params(cfg, seed=7)
        dims = [20, 30, cfg.output_dim]
        for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(params.weights[layer]) <= bound)
            assert np.all(np.abs(params.biases[layer]) <= bound)
            # A degenerate draw stuck near zero would also pass the bound
            # check; make sure the spread actually fills the interval.
            assert params.weights[layer].max() > 0.5 * bound
            assert params.weights[layer].min() < -0.5 * bound

    def test_same_seed_reproduces_exactly(self):
        cfg = small_config()
        a = init_params(cfg, seed=123)
        b = init_params(cfg, seed=123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_params(cfg, seed=1)
        b = init_params(cfg, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_generator_instance_accepted(self):
        cfg = small_config()
        a = init_params(cfg, seed=np.random.default_rng(9))
        b = init_params(cfg, seed=np.random.default_rng(9))
        assert np.array_equal(a.weights[-1], b.weights[-1])

    def test_clustered_init_shares_one_output_template(self):
        cfg = ModelConfig(
            input_dim=6, n_heads=5, horizon=4, hidden=(8,), init="clustered"
        )
        params = init_params(cfg, seed=3)
        span = cfg.horizon * 2
        traj_bias = params.biases[-1][: cfg.n_heads * span].reshape(cfg.n_heads, span)
        for head in range(1, cfg.n_heads):
            assert np.array_equal(traj_bias[head], traj_bias[0])
        logit_bias = params.biases[-1][cfg.n_heads * span :]
        assert np.all(logit_bias == logit_bias[0])
        # The weight rows stay independent; only the bias template is shared.
        traj_rows = params.weights[-1][: cfg.n_heads * span].reshape(
            cfg.n_heads, span, -1
        )
        assert not np.array_equal(traj_rows[1], traj_rows[0])

    def test_glorot_init_heads_differ(self):
        cfg = ModelConfig(input_dim=6, n_heads=5, horizon=4, hidden=(8,))
        params = init_params(cfg, seed=3)
        span = cfg.horizon * 2
        traj_bias = params.biases[-1][: cfg.n_heads * span].reshape(cfg.n_heads, span)
        assert not np.array_equal(traj_bias[1], traj_bias[0])

    @pytest.mark.parametrize("init", ["glorot", "clustered"])
    @pytest.mark.parametrize("hidden", [(), (8,), (7, 3, 5)])
    def test_same_bits_as_per_layer_uniform_draws(self, init, hidden):
        cfg = ModelConfig(input_dim=6, n_heads=3, horizon=4, hidden=hidden, init=init)
        for seed in range(3):
            got = init_params(cfg, seed=seed)
            want = reference_init_params(cfg, seed)
            assert got.vector.tobytes() == want.vector.tobytes()

    @pytest.mark.parametrize("hidden", [(2048,), (512, 512)])
    def test_holds_one_copy_of_the_parameters(self, hidden):
        cfg = ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=hidden)
        tracemalloc.start()
        try:
            params = init_params(cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * params.vector.nbytes

    @pytest.mark.parametrize("make", [GradientBuffer.zeros_like, ModelParams.copy])
    def test_zeros_like_and_copy_hold_one_vector(self, make):
        cfg = ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=(2048,))
        params = init_params(cfg, seed=0)
        tracemalloc.start()
        try:
            made = make(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * made.vector.nbytes
        want = params.vector if make is ModelParams.copy else np.zeros_like(params.vector)
        assert made.vector.tobytes() == want.tobytes()
        assert [w.shape for w in made.weights] == [w.shape for w in params.weights]

    def test_copy_is_independent(self):
        params = init_params(small_config(), seed=0)
        dup = params.copy()
        dup.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != dup.weights[0][0, 0]


class TestForward:
    def test_batch_shapes(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        contexts = np.random.default_rng(0).normal(size=(7, 6))
        traj, logits, activations = forward_batch(params, contexts)
        assert traj.shape == (7, 3, 4, 2)
        assert logits.shape == (7, 3)
        assert len(activations) == 2
        assert activations[0] is not None and activations[1].shape == (7, 8)

    def test_single_context_batch(self):
        params = init_params(small_config(), seed=0)
        traj, logits, _ = forward_batch(params, np.zeros((1, 6)))
        assert traj.shape == (1, 3, 4, 2) and logits.shape == (1, 3)
        assert stable_softmax(logits[0]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zeroed_parameters_give_uniform_scores(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        for w in params.weights:
            w[:] = 0.0
        for b in params.biases:
            b[:] = 0.0
        traj, logits, _ = forward_batch(params, np.ones((1, 6)))
        scores = stable_softmax(logits[0])
        assert np.allclose(scores, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)
        assert np.all(traj == 0.0)

    def test_no_hidden_layers_is_affine(self):
        cfg = ModelConfig(input_dim=2, n_heads=2, horizon=1, hidden=())
        params = init_params(cfg, seed=0)
        traj, logits, _ = forward_batch(params, np.zeros((1, 2)))
        flat = np.concatenate([traj[0].reshape(-1), logits[0]])
        expected = np.concatenate(
            [
                params.biases[-1][:4],
                params.biases[-1][4:],
            ]
        )
        assert np.array_equal(flat, expected)

    def test_relu_blocks_negative_preactivations(self):
        cfg = ModelConfig(input_dim=1, n_heads=1, horizon=1, hidden=(2,))
        params = init_params(cfg, seed=0)
        params.weights[0][:] = [[1.0], [-1.0]]
        params.biases[0][:] = 0.0
        _, _, activations = forward_batch(params, np.array([[3.0]]))
        assert np.array_equal(activations[1], [[3.0, 0.0]])

    def test_bad_context_shapes_rejected(self):
        params = init_params(small_config(), seed=0)
        with pytest.raises(ConfigurationError):
            forward_batch(params, np.zeros((1, 2, 6)))
        with pytest.raises(ConfigurationError):
            forward_batch(params, np.zeros(6))
        with pytest.raises(ConfigurationError):
            forward_batch(params, np.zeros((4, 5)))


def join(d_traj, d_logits):
    """(B, K, L, 2) and (B, K) gradients as one (B, K*L*2 + K) output gradient."""
    return np.concatenate([d_traj.reshape(len(d_traj), -1), d_logits], axis=1)


def backward_one(params, context, d_traj, d_logits):
    """backward_batch for a batch holding one context."""
    _, _, activations = forward_batch(params, np.asarray(context)[None, :])
    return backward_batch(params, activations, join(d_traj[None], d_logits[None]))


class TestBackward:
    def test_single_linear_layer_matches_hand_outer_product(self):
        cfg = ModelConfig(input_dim=3, n_heads=2, horizon=1, hidden=())
        params = init_params(cfg, seed=5)
        context = np.array([0.5, -1.0, 2.0])
        d_traj = np.arange(4.0).reshape(2, 1, 2) + 1.0
        d_logits = np.array([0.25, -0.75])
        grads = backward_one(params, context, d_traj, d_logits)
        d_out = np.concatenate([d_traj.reshape(-1), d_logits])
        assert np.allclose(grads.weights[0], np.outer(d_out, context), atol=1e-15)
        assert np.allclose(grads.biases[0], d_out, atol=1e-15)

    def test_batch_gradients_sum_over_samples(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        rng = np.random.default_rng(2)
        contexts = rng.normal(size=(4, 6))
        d_traj = rng.normal(size=(4, 3, 4, 2))
        d_logits = rng.normal(size=(4, 3))
        _, _, activations = forward_batch(params, contexts)
        whole = backward_batch(params, activations, join(d_traj, d_logits))
        parts = [
            backward_one(params, contexts[i], d_traj[i], d_logits[i]) for i in range(4)
        ]
        for layer in range(params.n_layers):
            summed_w = sum(p.weights[layer] for p in parts)
            summed_b = sum(p.biases[layer] for p in parts)
            assert np.allclose(whole.weights[layer], summed_w, atol=1e-12)
            assert np.allclose(whole.biases[layer], summed_b, atol=1e-12)

    def test_gradient_shape_mismatches_rejected(self):
        params = init_params(small_config(), seed=0)
        _, _, activations = forward_batch(params, np.zeros((1, 6)))
        # The output is 3 heads x (4 steps x 2 + 1 logit) = 27 wide.
        for d_outputs in (np.zeros((1, 26)), np.zeros((1, 28)), np.zeros(27)):
            with pytest.raises(ConfigurationError, match="must be"):
                backward_batch(params, activations, d_outputs)
        # Two-array form; the last pair has the right total width but the
        # wrong head split.
        for d_traj, d_logits in (
            (np.zeros((3, 4, 2)), np.zeros(2)),
            (np.zeros((2, 4, 2)), np.zeros(3)),
            (np.zeros((2, 4, 2)), np.zeros(11)),
        ):
            with pytest.raises(ConfigurationError, match="must be"):
                backward_batch(params, activations, d_traj[None], d_logits[None])

    def test_two_array_form_equals_the_joined_gradient(self):
        params = init_params(deep_config(), seed=3)
        rng = np.random.default_rng(3)
        _, _, activations = forward_batch(params, rng.normal(size=(5, 5)))
        d_traj, d_logits = rng.normal(size=(5, 2, 3, 2)), rng.normal(size=(5, 2))
        joined = backward_batch(params, activations, join(d_traj, d_logits))
        split = backward_batch(params, activations, d_traj, d_logits)
        assert split.vector.tobytes() == joined.vector.tobytes()


class TestAdam:
    def make_grads(self, params, fill):
        return GradientBuffer(
            weights=[np.full_like(w, fill) for w in params.weights],
            biases=[np.full_like(b, fill) for b in params.biases],
        )

    def test_first_step_closed_form(self):
        params = init_params(small_config(), seed=0)
        before = params.copy()
        rng = np.random.default_rng(3)
        grads = GradientBuffer(
            weights=[rng.normal(size=w.shape) for w in params.weights],
            biases=[rng.normal(size=b.shape) for b in params.biases],
        )
        state = init_adam(params)
        lr = 0.01
        adam_step(params, grads, state, lr=lr)
        # After one bias-corrected step the moments reduce to g and g*g, so
        # the update is lr * g / (|g| + eps).
        for layer in range(params.n_layers):
            g = grads.weights[layer]
            expected = before.weights[layer] - lr * g / (np.abs(g) + 1e-8)
            assert np.allclose(params.weights[layer], expected, rtol=1e-12, atol=0)
        assert state.step == 1

    def test_steps_accumulate_moments(self):
        params = init_params(small_config(), seed=0)
        state = init_adam(params)
        grads = self.make_grads(params, 0.5)
        adam_step(params, grads, state, lr=0.001)
        adam_step(params, grads, state, lr=0.001)
        assert state.step == 2
        m_expected = 0.9 * (0.1 * 0.5) + 0.1 * 0.5
        assert np.allclose(state.m.weights[0], m_expected, rtol=1e-12)

    def test_non_finite_gradient_rejected_and_names_tensor(self):
        params = init_params(small_config(), seed=0)
        before = params.copy()
        state = init_adam(params)
        grads = self.make_grads(params, 0.1)
        grads.weights[1][0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="layer 1 weights"):
            adam_step(params, grads, state, lr=1e-3)
        for layer in range(params.n_layers):
            assert np.array_equal(params.weights[layer], before.weights[layer])
            assert np.array_equal(params.biases[layer], before.biases[layer])
        assert state.step == 0

    def test_infinite_bias_gradient_rejected(self):
        params = init_params(small_config(), seed=0)
        state = init_adam(params)
        grads = self.make_grads(params, 0.1)
        grads.biases[0][2] = np.inf
        with pytest.raises(NonFiniteError, match="layer 0 biases"):
            adam_step(params, grads, state, lr=1e-3)

    def test_parameters_stay_finite(self):
        params = init_params(small_config(), seed=0)
        state = init_adam(params)
        for _ in range(50):
            grads = self.make_grads(params, 10.0)
            adam_step(params, grads, state, lr=0.1)
        for w in params.weights:
            assert np.all(np.isfinite(w))


def reference_adam_update(tensor, grad, m, v, step, lr, beta1, beta2, eps):
    """The Adam update as first written, with full-size temporaries: an oracle."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad**2
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    tensor -= lr * (m / correction1) / (np.sqrt(v / correction2) + eps)


def reference_adam_step(params, grads, moments, step, lr, beta1, beta2, eps):
    """reference_adam_update applied tensor by tensor to params and the m
    and v of moments, an AdamState used only for its buffers."""
    for group in ("weights", "biases"):
        for tensor, grad, m, v in zip(
            getattr(params, group),
            getattr(grads, group),
            getattr(moments.m, group),
            getattr(moments.v, group),
        ):
            reference_adam_update(tensor, grad, m, v, step, lr, beta1, beta2, eps)


def assert_same_bytes(params, state, expected, moments):
    assert params.vector.tobytes() == expected.vector.tobytes()
    assert state.m.vector.tobytes() == moments.m.vector.tobytes()
    assert state.v.vector.tobytes() == moments.v.vector.tobytes()


class TestAdamOracle:
    @pytest.mark.parametrize(
        "cfg",
        [small_config(), ModelConfig(input_dim=2, n_heads=2, horizon=1, hidden=())],
        ids=["hidden", "linear"],
    )
    def test_matches_reference_bit_for_bit_past_the_bias_correction(self, cfg):
        # At beta1 = 0.9, 1 - beta1**step rounds to 1.0 from step 356 on,
        # so the last steps skip the division by the first correction.
        params = init_params(cfg, seed=7)
        params.vector[::5] = -0.0
        expected = params.copy()
        state = init_adam(params)
        moments = init_adam(expected)
        rng = np.random.default_rng(8)
        lr, beta1, beta2, eps = 0.02, 0.9, 0.999, 1e-8
        constants = (network.ADAM_BETA1, network.ADAM_BETA2, network.ADAM_EPS)
        assert constants == (beta1, beta2, eps)
        assert 1.0 - beta1**355 != 1.0 and 1.0 - beta1**356 == 1.0
        for step in range(1, 366):
            scale = 10.0 ** rng.uniform(-6, 1)
            grads = GradientBuffer(
                weights=[rng.normal(size=w.shape) * scale for w in params.weights],
                biases=[rng.normal(size=b.shape) * scale for b in params.biases],
            )
            grads.vector[step % 3 :: 7] = -0.0
            adam_step(params, grads, state, lr=lr)
            reference_adam_step(expected, grads, moments, step, lr, beta1, beta2, eps)
            assert_same_bytes(params, state, expected, moments)

    def test_gradient_whose_squares_overflow_gets_the_reference_update(self):
        # Every entry is finite, but g . g overflows, so only the exact
        # element check can accept the gradient.
        params = init_params(small_config(), seed=9)
        expected = params.copy()
        state, moments = init_adam(params), init_adam(expected)
        grads = GradientBuffer.zeros_like(params)
        grads.vector[:] = np.random.default_rng(9).normal(size=grads.vector.size)
        grads.vector[::4] *= 1e200
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(grads.vector, grads.vector))
            for step in (1, 2):
                adam_step(params, grads, state, lr=1e-3)
                reference_adam_step(expected, grads, moments, step, 1e-3, 0.9, 0.999, 1e-8)
        assert state.step == 2
        assert_same_bytes(params, state, expected, moments)

    def test_parameters_whose_squares_overflow_are_accepted(self):
        params = init_params(small_config(), seed=10)
        params.vector[::3] = 1e200
        expected = params.copy()
        state, moments = init_adam(params), init_adam(expected)
        grads = GradientBuffer.zeros_like(params)
        grads.vector[:] = 0.25
        with np.errstate(over="ignore"):
            adam_step(params, grads, state, lr=1e-3)
        reference_adam_step(expected, grads, moments, 1, 1e-3, 0.9, 0.999, 1e-8)
        assert_same_bytes(params, state, expected, moments)

    def test_update_that_overflows_the_parameters_is_rejected(self):
        params = init_params(small_config(), seed=11)
        params.vector[-1] = -1.7e308
        state = init_adam(params)
        grads = GradientBuffer.zeros_like(params)
        grads.vector[:] = 1.0
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="parameters became non-finite"):
                adam_step(params, grads, state, lr=1e308)


@pytest.mark.parametrize(
    "entries",
    [[], [0.0, -0.0, 5e-324], [1e200, -1e200, 1.0], [1.7e308, 1.7e308],
     [np.nan], [1.0, np.inf], [-np.inf, 2.0], [1e200, np.nan], [1e200, -np.inf]],
)
def test_all_finite_agrees_with_the_element_check(entries):
    vector = np.array(entries, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        assert network._all_finite(vector) is bool(np.isfinite(vector).all())


class TestGradientCheck:
    def test_random_model_matches_finite_differences(self):
        cfg = ModelConfig(input_dim=4, n_heads=3, horizon=2, hidden=(6,))
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        context = rng.normal(size=4)
        target = rng.normal(size=(2, 2))
        result = gradient_check(params, context, target, "awta", 1.0)
        assert result.max_rel_error < 1e-4
        assert result.n_checked == params.vector.size
        assert not result.tie_case

    def test_hard_wta_also_checks_out(self):
        cfg = ModelConfig(input_dim=3, n_heads=4, horizon=2, hidden=(5,))
        params = init_params(cfg, seed=21)
        rng = np.random.default_rng(21)
        result = gradient_check(
            params,
            rng.normal(size=3),
            rng.normal(size=(2, 2)),
            "wta",
        )
        assert result.max_rel_error < 1e-4

    def test_identical_heads_flagged_as_tie(self):
        cfg = ModelConfig(
            input_dim=2, n_heads=3, horizon=1, hidden=(), init="clustered"
        )
        params = init_params(cfg, seed=0)
        for w in params.weights:
            w[:] = 0.0
        result = gradient_check(
            params,
            np.array([0.3, -0.2]),
            np.array([[1.0, 1.0]]),
            "wta",
        )
        assert result.tie_case
        # The tied heads' output coordinates are excluded, everything else
        # still has to agree with the numeric gradient.
        assert result.n_checked < params.vector.size
        assert result.max_rel_error < 1e-4


class TestGradientCheckSkipMask:
    def test_tied_heads_skip_exactly_their_output_rows(self):
        # Heads 0 and 2 share a trajectory and logit; head 1 sits elsewhere.
        cfg = ModelConfig(input_dim=2, n_heads=3, horizon=2, hidden=(3,))
        params = init_params(cfg, seed=0)
        params.weights[-1][:] = 0.0
        out_bias = params.biases[-1]
        trajectories = out_bias[:12].reshape(3, 4)
        trajectories[0] = trajectories[2] = [1.0, 1.0, 2.0, 2.0]
        trajectories[1] = [-3.0, 0.0, -6.0, 0.0]
        out_bias[12:] = [0.2, -0.1, 0.2]
        result = gradient_check(
            params,
            np.array([0.3, -0.2]),
            np.array([[1.0, 1.0], [2.0, 2.0]]),
            "wta",
        )
        assert result.tie_case
        rows_per_head = 2 * cfg.horizon + 1
        fan_in = cfg.hidden[-1] + 1
        assert result.n_checked == params.vector.size - 2 * rows_per_head * fan_in
        assert result.max_rel_error < 1e-4


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = ModelConfig(input_dim=5, n_heads=3, horizon=4, hidden=(7, 6))
        params = init_params(cfg, seed=42)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.n_heads == params.n_heads
        assert loaded.horizon == params.horizon
        for a, b in zip(loaded.weights, params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, params.biases):
            assert np.array_equal(a, b)

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, seed=8)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        context = np.random.default_rng(8).normal(size=6)
        a = forward_batch(params, context[None])
        b = forward_batch(loaded, context[None])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_version_mismatch_rejected(self, tmp_path):
        params = init_params(small_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="format_version"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_missing_key_rejected(self, tmp_path):
        params = init_params(small_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        del payload["weights"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="malformed"):
            load_checkpoint(path)

    def test_output_width_mismatch_rejected(self, tmp_path):
        params = init_params(small_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["n_heads"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="output width"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (lambda payload: [1], "must hold a JSON object"),
            (
                lambda payload: {**payload, "weights": [], "biases": []},
                "at least one layer, got 0 and 0",
            ),
            (
                lambda payload: {**payload, "biases": payload["biases"][:-1]},
                "one bias vector per weight matrix",
            ),
            (
                lambda payload: {
                    **payload,
                    "biases": [{"shape": [7], "data": b64([0.0] * 7)}, *payload["biases"][1:]],
                },
                r"layer 0 has weights \(8, 6\) and biases \(7,\)",
            ),
            (
                lambda payload: {
                    **payload,
                    "weights": [
                        {"shape": [8, 6], "data": b64([float("nan")] + [0.0] * 47)},
                        *payload["weights"][1:],
                    ],
                },
                "layer 0 weights is not finite",
            ),
        ],
        ids=["not-an-object", "no-layers", "missing-bias", "bias-width", "nan-weight"],
    )
    def test_unusable_payload_rejected(self, tmp_path, corrupt, problem):
        # small_config: 6 inputs, one hidden layer of 8, 3 heads of 4 steps.
        params = init_params(small_config(), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        with pytest.raises(ConfigurationError, match=problem):
            load_checkpoint(path)

    def test_mismatched_layer_shapes_rejected(self, tmp_path):
        cfg = ModelConfig(input_dim=4, n_heads=2, horizon=2, hidden=(6, 5))
        params = init_params(cfg, seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        entry = payload["weights"][1]
        entry["shape"] = [5, 7]
        entry["data"] = b64([0.0] * 35)
        path.write_text(json.dumps(payload))
        # The message, not the file name, which holds the test's name.
        with pytest.raises(ConfigurationError, match="has mismatched layer shapes"):
            load_checkpoint(path)


def deep_config() -> ModelConfig:
    # Three layers, so six tensors: weights 0-2, then biases 0-2.
    return ModelConfig(input_dim=5, n_heads=2, horizon=3, hidden=(7, 4))


TENSORS = [(kind, layer) for kind in ("weights", "biases") for layer in range(3)]


class TestFlatLayout:
    def test_every_view_shares_the_one_vector(self):
        params = init_params(deep_config(), seed=0)
        state = init_adam(params)
        for flat in (params, GradientBuffer.zeros_like(params), state.m, state.v):
            assert flat.vector.dtype == np.float64
            assert flat.vector.flags.c_contiguous
            views = [*flat.weights, *flat.biases]
            assert sum(view.size for view in views) == flat.vector.size
            for view in views:
                assert np.shares_memory(view, flat.vector)
        for views, owner in (
            (state.m.weights, state.m),
            (state.m.biases, state.m),
            (state.v.weights, state.v),
            (state.v.biases, state.v),
        ):
            for view in views:
                assert np.shares_memory(view, owner.vector)
        assert not np.shares_memory(state.m.vector, state.v.vector)

    def test_layout_is_weights_then_biases_in_layer_order(self):
        params = init_params(deep_config(), seed=1)
        expected = np.concatenate(
            [t.reshape(-1) for t in (*params.weights, *params.biases)]
        )
        assert np.array_equal(params.vector, expected)

    def test_write_through_a_view_reaches_the_vector(self):
        params = init_params(deep_config(), seed=2)
        params.biases[1][3] = 123.0
        params.weights[2][0, 0] = -7.0
        assert params.vector[params.weights[0].size + params.weights[1].size] == -7.0
        assert params.vector[-params.biases[2].size - 1] == 123.0
        params.vector[0] = 5.0
        assert params.weights[0][0, 0] == 5.0

    def test_copy_is_one_independent_vector(self):
        params = init_params(deep_config(), seed=3)
        dup = params.copy()
        assert not np.shares_memory(dup.vector, params.vector)
        assert np.array_equal(dup.vector, params.vector)
        assert (dup.n_heads, dup.horizon) == (params.n_heads, params.horizon)
        for view in (*dup.weights, *dup.biases):
            assert np.shares_memory(view, dup.vector)
        before = params.vector.copy()
        dup.weights[1][2, 3] += 1.0
        dup.biases[2][:] = 0.0
        assert np.array_equal(params.vector, before)
        params.weights[0][0, 0] = 9.0
        assert dup.weights[0][0, 0] == before[0]

    def test_gradient_buffer_from_separate_lists_is_packed(self):
        weights = [np.ones((2, 3)), np.full((1, 2), 2.0)]
        biases = [np.zeros(2), np.array([3], dtype=np.int64)]
        grads = GradientBuffer(weights=weights, biases=biases)
        assert grads.vector.tolist() == [1.0] * 6 + [2.0, 2.0, 0.0, 0.0, 3.0]
        assert grads.vector.dtype == np.float64
        for view, original in zip((*grads.weights, *grads.biases), (*weights, *biases)):
            assert view.shape == original.shape
            assert np.shares_memory(view, grads.vector)
            assert not np.shares_memory(view, original)
        weights[0][0, 0] = 99.0
        assert grads.weights[0][0, 0] == 1.0

    def test_backward_writes_into_the_buffer_it_is_given(self):
        params = init_params(deep_config(), seed=4)
        rng = np.random.default_rng(4)
        _, _, activations = forward_batch(params, rng.normal(size=(9, 5)))
        d_outputs = rng.normal(size=(9, 2 * (3 * 2 + 1)))
        fresh = backward_batch(params, activations, d_outputs)
        buffer = GradientBuffer.zeros_like(params)
        buffer.vector[:] = np.nan
        vector = buffer.vector
        assert backward_batch(params, activations, d_outputs, out=buffer) is buffer
        assert buffer.vector is vector
        assert np.array_equal(buffer.vector, fresh.vector)

    def test_adam_keeps_its_scratch_vectors(self):
        params = init_params(deep_config(), seed=5)
        state = init_adam(params)
        def buffers():
            return (state.update, state.denom, state.m.vector, state.v.vector)

        before = buffers()
        grads = GradientBuffer.zeros_like(params)
        grads.vector[:] = 0.5
        for _ in range(3):
            adam_step(params, grads, state, lr=1e-3)
        assert all(a is b for a, b in zip(before, buffers()))


def rejection_setup():
    """Params and Adam state after one good step, so moments are non-zero."""
    params = init_params(deep_config(), seed=6)
    state = init_adam(params)
    grads = GradientBuffer.zeros_like(params)
    grads.vector[:] = np.random.default_rng(6).normal(size=grads.vector.size)
    adam_step(params, grads, state, lr=0.01)
    vectors = (params.vector, state.m.vector, state.v.vector)
    snapshot = (*(vector.copy() for vector in vectors), state.step)
    grads.vector[:] = 0.1
    return params, state, grads, snapshot


def assert_untouched(params, state, snapshot):
    vector, m, v, step = snapshot
    assert np.array_equal(params.vector, vector)
    assert np.array_equal(state.m.vector, m)
    assert np.array_equal(state.v.vector, v)
    assert state.step == step


class TestAdamRejection:
    @pytest.mark.parametrize("kind, layer", TENSORS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_its_tensor(self, kind, layer, bad):
        params, state, grads, snapshot = rejection_setup()
        getattr(grads, kind)[layer].reshape(-1)[-1] = bad
        message = f"in layer {layer} {kind}; step rejected"
        with pytest.raises(NonFiniteError, match=message):
            adam_step(params, grads, state, lr=1e-3)
        assert_untouched(params, state, snapshot)

    @pytest.mark.parametrize(
        "first, second",
        [(a, b) for i, a in enumerate(TENSORS) for b in TENSORS[i + 1 :]],
    )
    def test_first_bad_tensor_in_weights_then_biases_order_is_named(self, first, second):
        params, state, grads, snapshot = rejection_setup()
        for kind, layer in (second, first):
            getattr(grads, kind)[layer].reshape(-1)[0] = np.nan
        kind, layer = first
        with pytest.raises(NonFiniteError, match=f"in layer {layer} {kind};"):
            adam_step(params, grads, state, lr=1e-3)
        assert_untouched(params, state, snapshot)


    def test_non_finite_entry_beside_overflowing_squares_is_named(self):
        # g . g overflows on the huge entries; the element check that
        # follows still finds the NaN and names its tensor.
        params, state, grads, snapshot = rejection_setup()
        grads.vector[:] = 1e200
        grads.biases[0][1] = np.nan
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="in layer 0 biases;"):
                adam_step(params, grads, state, lr=1e-3)
        assert_untouched(params, state, snapshot)


def separate_copy(params: ModelParams) -> ModelParams:
    """params with every tensor in its own freshly allocated array."""
    dup = copy.copy(params)
    dup.weights = [np.array(w) for w in params.weights]
    dup.biases = [np.array(b) for b in params.biases]
    return dup


def on_unaligned_vector(flat, offset: int = 1):
    """flat with its tensors moved to views into a buffer at an odd offset."""
    buffer = np.empty(flat.vector.size + offset)
    dup = copy.copy(flat)
    dup.vector = buffer[offset:]
    dup.vector[:] = flat.vector
    dup.weights, dup.biases = network._views(dup.vector, flat.weights, flat.biases)
    return dup


def reference_forward(params, contexts):
    """The forward pass as first written, with fresh temporaries: an oracle."""
    activations = [contexts]
    hidden = contexts
    for weight, bias in zip(params.weights[:-1], params.biases[:-1]):
        hidden = np.maximum(hidden @ weight.T + bias, 0.0)
        activations.append(hidden)
    out = hidden @ params.weights[-1].T + params.biases[-1]
    n_traj = params.n_heads * params.horizon * 2
    trajectories = out[:, :n_traj].reshape(len(out), params.n_heads, params.horizon, 2)
    return trajectories, out[:, n_traj:], activations


def reference_backward(params, activations, d_trajectories, d_score_logits):
    """Backpropagation into freshly allocated arrays, as first written: an oracle.

    The two output gradients are concatenated into one, then backpropagated.
    """
    batch = d_trajectories.shape[0]
    delta = np.concatenate([d_trajectories.reshape(batch, -1), d_score_logits], axis=1)
    grad_w = [None] * params.n_layers
    grad_b = [None] * params.n_layers
    for layer in reversed(range(params.n_layers)):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (activations[layer] > 0.0)
    return grad_w, grad_b


@dataclasses.dataclass
class GradientCheckResult:
    max_rel_error: float
    n_checked: int
    tie_case: bool


def gradient_check(params, context, target, variant, knob=None, step=1e-5):
    """Compare the analytic gradient of the composite loss for one scene
    against central finite differences: an oracle.

    The analytic gradient is backward_batch of batch_objective's d_outputs.
    The numeric one perturbs each parameter in turn and re-evaluates the
    loss through reference_forward, with the assignment weights and the
    score-loss winner held at their values from the unperturbed parameters,
    matching the stop-gradient contract of the training objective. If
    several heads tie for the lowest cost the result is flagged and the
    output-layer coordinates of the tied heads are excluded from the check.
    """
    context = np.asarray(context, dtype=float)
    target = np.asarray(target, dtype=float)
    preds, logits, activations = forward_batch(params, context[None, :])
    objective = batch_objective(preds, logits, target[None], variant, knob)
    analytic = backward_batch(params, activations, objective.d_outputs)

    frozen_weights = objective.weights[0]
    frozen_winner = int(objective.winners[0])
    costs = objective.costs[0]
    tied = costs <= costs.min() + 1e-12
    tie_case = int(tied.sum()) > 1

    def frozen_loss() -> float:
        p, lg, _ = reference_forward(params, context[None, :])
        head_costs = np.mean(np.sum((p[0] - target) ** 2, axis=-1), axis=1)
        shifted = lg[0] - lg[0].max()
        score = np.log(np.exp(shifted).sum()) - shifted[frozen_winner]
        return float(frozen_weights @ head_costs + score)

    # Entries to leave out, in the layout of params: the tied heads' rows of
    # the output layer (trajectory rows head-major, then one logit row each).
    skip = np.zeros(params.vector.size, dtype=bool)
    if tie_case:
        tied_rows = np.concatenate([np.repeat(tied, params.horizon * 2), tied])
        skip_weights, skip_biases = network._views(skip, params.weights, params.biases)
        skip_weights[-1][tied_rows] = True
        skip_biases[-1][tied_rows] = True

    max_err = 0.0
    n_checked = 0
    flat = params.vector
    for i in np.flatnonzero(~skip):
        original = flat[i]
        flat[i] = original + step
        loss_plus = frozen_loss()
        flat[i] = original - step
        loss_minus = frozen_loss()
        flat[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        grad = analytic.vector[i]
        scale = max(abs(grad), abs(numeric), 1e-6)
        max_err = max(max_err, abs(grad - numeric) / scale)
        n_checked += 1
    return GradientCheckResult(max_rel_error=max_err, n_checked=n_checked, tie_case=tie_case)


class TestUnalignedViews:
    @pytest.mark.parametrize("batch", [1, 7, 64, 400])
    def test_forward_and_backward_match_separate_arrays_bit_for_bit(self, batch):
        # The train-branch3 shape: 40 inputs, 64x64 hidden, 6 heads of 30 steps.
        cfg = ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=(64, 64))
        params = init_params(cfg, seed=batch)
        separate = separate_copy(params)
        shifted = on_unaligned_vector(params)
        assert shifted.vector.ctypes.data % 16 != params.vector.ctypes.data % 16
        rng = np.random.default_rng(batch)
        contexts = rng.normal(size=(batch, 40))
        traj_a, logits_a, acts_a = forward_batch(separate, contexts)
        traj_b, logits_b, acts_b = forward_batch(shifted, contexts)
        assert np.array_equal(traj_a, traj_b)
        assert np.array_equal(logits_a, logits_b)
        for a, b in zip(acts_a, acts_b):
            assert np.array_equal(a, b)

        d_traj = rng.normal(size=traj_a.shape)
        d_logits = rng.normal(size=logits_a.shape)
        want_w, want_b = reference_backward(separate, acts_a, d_traj, d_logits)
        out = on_unaligned_vector(GradientBuffer.zeros_like(params), offset=3)
        backward_batch(shifted, acts_b, join(d_traj, d_logits), out=out)
        for got, want in zip((*out.weights, *out.biases), (*want_w, *want_b)):
            assert np.array_equal(got, want)
        fresh = backward_batch(params, acts_a, join(d_traj, d_logits))
        assert np.array_equal(fresh.vector, out.vector)



class TestStepOracle:
    """forward_batch and backward_batch against the first-written forms, byte for byte."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(input_dim=4, n_heads=2, horizon=3, hidden=()),
            ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=(64, 64)),
        ],
        ids=["linear", "hidden"],
    )
    @pytest.mark.parametrize("batch", [1, 13, 64])
    def test_forward_and_backward_match_reference(self, cfg, batch):
        params = init_params(cfg, seed=batch)
        rng = np.random.default_rng(batch)
        contexts = rng.normal(size=(batch, cfg.input_dim))
        got = forward_batch(params, contexts)
        want = reference_forward(params, contexts)
        for a, b in zip((*got[:2], *got[2]), (*want[:2], *want[2])):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        d_traj, d_logits = rng.normal(size=got[0].shape), rng.normal(size=got[1].shape)
        grads = backward_batch(params, got[2], join(d_traj, d_logits))
        want_w, want_b = reference_backward(params, want[2], d_traj, d_logits)
        for a, b in zip((*grads.weights, *grads.biases), (*want_w, *want_b)):
            assert a.tobytes() == b.tobytes()


# small_config's weights[1] (27 x 8) as a signalling NaN bit pattern, which
# neither numpy nor Python arithmetic produces.
SIGNALLING_NANS = base64.b64encode(struct.pack("<216Q", *[0x7FF0_0000_0000_0001] * 216)).decode()


def corrupt_entry(kind, index, **fields):
    def corrupt(payload):
        entries = list(payload[kind])
        entries[index] = {**entries[index], **fields}
        return {**payload, kind: entries}

    return corrupt


class TestCheckpointTypes:
    """small_config checkpoints: 6 inputs, one hidden layer of 8, 3 heads of 4 steps."""

    def write(self, tmp_path, corrupt):
        path = tmp_path / "model.json"
        save_checkpoint(init_params(small_config(), seed=0), path)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        return path

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (lambda p: {**p, "n_heads": "3"}, "n_heads must be a positive integer"),
            (lambda p: {**p, "n_heads": 3.0}, "n_heads must be a positive integer"),
            (lambda p: {**p, "n_heads": 0}, "n_heads must be a positive integer"),
            (lambda p: {**p, "horizon": True}, "horizon must be a positive integer"),
            (lambda p: {k: v for k, v in p.items() if k != "horizon"}, "malformed"),
            (lambda p: {**p, "weights": {"shape": [8, 6]}}, "weights must be a list"),
            (lambda p: {**p, "biases": [1.0, *p["biases"][1:]]}, r"biases\[0\] must be"),
            (corrupt_entry("weights", 0, shape=["8", 6]), r"weights\[0\] shape"),
            (corrupt_entry("weights", 0, shape=[8.0, 6]), r"weights\[0\] shape"),
            (corrupt_entry("weights", 1, shape=[True, 8]), r"weights\[1\] shape"),
            (corrupt_entry("weights", 0, shape=[-8, -6]), r"weights\[0\] shape"),
            (corrupt_entry("weights", 0, shape=48), r"weights\[0\] shape"),
            (
                corrupt_entry("weights", 0, shape=[8, 5]),
                r"weights\[0\] data holds 384 bytes, but shape \[8, 5\] needs 320",
            ),
            (corrupt_entry("weights", 0, shape=[10**30, 0], data=""), "is too large"),
            (corrupt_entry("biases", 0, data=["0.5"] * 8), r"biases\[0\] data must be a base64"),
            (
                corrupt_entry("biases", 0, data=[True] + [0.0] * 7),
                r"biases\[0\] data must be a base64",
            ),
            (corrupt_entry("biases", 1, data=[None] * 27), r"biases\[1\] data must be a base64"),
            (corrupt_entry("biases", 1, data=27), r"biases\[1\] data must be a base64"),
            (corrupt_entry("weights", 1, data=SIGNALLING_NANS), "layer 1 weights is not"),
            (corrupt_entry("biases", 1, data=b64([math.inf] * 27)), "layer 1 biases is not"),
            (lambda p: {**p, "model": "other"}, "model is 'other'"),
            (lambda p: {**p, "model": None}, "model is None"),
            (lambda p: {**p, "input_dim": 99}, "input_dim is 99, but the tensors describe 6"),
            (lambda p: {**p, "input_dim": 6.0}, "input_dim is 6.0"),
            (lambda p: {**p, "hidden": [1]}, r"hidden is \[1\], but the tensors describe \[8\]"),
            (lambda p: {**p, "hidden": [8.0]}, r"hidden is \[8.0\]"),
            (lambda p: {**p, "hidden": [True] * 8}, "hidden is"),
            (lambda p: {**p, "hidden": 8}, "hidden is 8"),
            (lambda p: {k: v for k, v in p.items() if k != "hidden"}, r"missing keys \['hidden'\]"),
        ],
        ids=[
            "string-count",
            "float-count",
            "zero-count",
            "bool-count",
            "missing-count",
            "weights-not-list",
            "entry-not-object",
            "string-dim",
            "float-dim",
            "bool-dim",
            "negative-dims",
            "shape-not-list",
            "size-mismatch",
            "huge-empty-dim",
            "string-values",
            "bool-value",
            "null-values",
            "data-not-string",
            "nan-bits",
            "infinite",
            "other-model",
            "null-model",
            "wrong-input-dim",
            "float-input-dim",
            "wrong-hidden",
            "float-hidden",
            "bool-hidden",
            "hidden-not-list",
            "missing-hidden",
        ],
    )
    def test_wrong_types_rejected_naming_path(self, tmp_path, corrupt, problem):
        path = self.write(tmp_path, corrupt)
        with pytest.raises(ConfigurationError, match=problem) as excinfo:
            load_checkpoint(path)
        assert f"checkpoint {path}" in str(excinfo.value)

    def test_metadata_disagreeing_with_the_tensors_names_the_key(self, tmp_path):
        # A payload once seen to load as the (8,)-hidden, 6-input network.
        payload = {"hidden": [1], "input_dim": 99, "model": "other"}
        path = self.write(tmp_path, lambda p: {**p, **payload})
        with pytest.raises(ConfigurationError, match="model is 'other'"):
            load_checkpoint(path)
        payload["model"] = "multihead-mlp"
        path = self.write(tmp_path, lambda p: {**p, **payload})
        with pytest.raises(ConfigurationError, match="input_dim is 99"):
            load_checkpoint(path)
        payload["input_dim"] = 6
        path = self.write(tmp_path, lambda p: {**p, **payload})
        with pytest.raises(ConfigurationError, match=r"hidden is \[1\]"):
            load_checkpoint(path)

    def test_number_list_data_refused(self, tmp_path):
        # Format 1's data, JSON numbers, under format_version 2.
        path = self.write(tmp_path, corrupt_entry("biases", 0, data=list(range(8))))
        with pytest.raises(ConfigurationError, match=r"biases\[0\] data must be a base64"):
            load_checkpoint(path)

    def test_format_1_file_refused_naming_both_versions(self, tmp_path):
        params = init_params(small_config(), seed=0)
        payload = {
            "format_version": 1,
            "model": "multihead-mlp",
            "input_dim": 6,
            "n_heads": 3,
            "horizon": 4,
            "hidden": [8],
            "weights": [
                {"shape": list(w.shape), "data": w.ravel().tolist()} for w in params.weights
            ],
            "biases": [{"shape": list(b.shape), "data": b.tolist()} for b in params.biases],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="format_version 1, expected 2"):
            load_checkpoint(path)

    # biases[0] holds 8 values: 64 bytes, so 88 base64 characters ending "==".
    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda data: None, "must be a base64 string"),
            (lambda data: {"data": data}, "must be a base64 string"),
            (lambda data: [data], "must be a base64 string"),
            (lambda data: data[:10] + "!" + data[11:], "is not base64: Only base64 data"),
            (lambda data: data[:10] + "-" + data[11:], "is not base64: Only base64 data"),
            (lambda data: data[:10] + "é" + data[11:], "is not base64: string argument"),
            (lambda data: data[:-1], "is not base64: Incorrect padding"),
            (lambda data: data[:-2], "is not base64: Incorrect padding"),
            (lambda data: data + "=", "is not base64: Excess data after padding"),
            (lambda data: data + "AAAA", "is not base64: Excess data after padding"),
            (lambda data: data[:44] + "\n" + data[44:], "is not base64: Only base64 data"),
            (lambda data: data + "\n", "is not base64: Excess data after padding"),
            (lambda data: data[:44] + " " + data[44:], "is not base64: Only base64 data"),
            (lambda data: " " + data, "is not base64: Only base64 data"),
        ],
        ids=[
            "null",
            "object",
            "list",
            "bang",
            "url-safe-minus",
            "non-ascii",
            "one-pad-short",
            "no-padding",
            "pad-after-padding",
            "data-after-padding",
            "newline",
            "trailing-newline",
            "space",
            "leading-space",
        ],
    )
    def test_malformed_data_rejected(self, tmp_path, edit, problem):
        def corrupt(payload):
            return corrupt_entry("biases", 0, data=edit(payload["biases"][0]["data"]))(payload)

        path = self.write(tmp_path, corrupt)
        with pytest.raises(ConfigurationError, match=r"biases\[0\] data " + problem):
            load_checkpoint(path)

    @pytest.mark.parametrize("padding", ["=", "=="])
    @pytest.mark.parametrize("kind", ["weights", "biases"])
    def test_stray_padding_after_whole_groups_rejected(self, tmp_path, kind, padding):
        # weights[1] and biases[1] hold 216 and 27 values, whole 3-byte
        # groups, so their data ends without padding; strict decoding alone
        # reads a surplus "=" or "==" after it as nothing.
        def corrupt(payload):
            data = payload[kind][1]["data"]
            assert not data.endswith("=")
            return corrupt_entry(kind, 1, data=data + padding)(payload)

        path = self.write(tmp_path, corrupt)
        problem = rf"{kind}\[1\] data is not base64: \d+ characters are not whole 4-character"
        with pytest.raises(ConfigurationError, match=problem):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "missing", [*range(1, 8), 8], ids=[*map(str, range(1, 8)), "one-value"]
    )
    def test_short_data_rejected(self, tmp_path, missing):
        raw = struct.pack("<8d", *range(8))[:-missing]
        data = base64.b64encode(raw).decode("ascii")
        path = self.write(tmp_path, corrupt_entry("biases", 0, data=data))
        problem = rf"biases\[0\] data holds {64 - missing} bytes, but shape \[8\] needs 64"
        with pytest.raises(ConfigurationError, match=problem):
            load_checkpoint(path)

    def test_long_data_rejected(self, tmp_path):
        path = self.write(tmp_path, corrupt_entry("biases", 0, data=b64(range(9))))
        problem = r"biases\[0\] data holds 72 bytes, but shape \[8\] needs 64"
        with pytest.raises(ConfigurationError, match=problem):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(input_dim=2, n_heads=2, horizon=1, hidden=()),
            ModelConfig(input_dim=64, n_heads=1, horizon=1, hidden=(64,)),
            ModelConfig(input_dim=4097, n_heads=1, horizon=1, hidden=(1,)),
            ModelConfig(input_dim=40, n_heads=6, horizon=30, hidden=(64, 64)),
        ],
        # A 4096-value weight matrix encodes with one "=" of padding, and a
        # 4097-value one with two.
        ids=["linear", "chunk-sized", "chunk-plus-one", "branch3"],
    )
    @pytest.mark.parametrize("special", [False, True], ids=["plain", "special-values"])
    def test_text_is_json_dumps_of_the_payload(self, tmp_path, cfg, special):
        params = init_params(cfg, seed=2)
        if special:
            values = [-0.0, 5e-324, 1e300, -2.5e-310, np.nan, np.inf, -np.inf, 1 / 3]
            params.vector[: len(values)] = values[: params.vector.size]

        # The payload built from Python floats with struct and base64, no wtalab code.
        def entry(tensor):
            return {"shape": list(tensor.shape), "data": b64(tensor.reshape(-1).tolist())}

        payload = {
            "format_version": 2,
            "model": "multihead-mlp",
            "input_dim": params.input_dim,
            "n_heads": params.n_heads,
            "horizon": params.horizon,
            "hidden": list(params.hidden),
            "weights": [entry(w) for w in params.weights],
            "biases": [entry(b) for b in params.biases],
        }
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        assert path.read_bytes() == json.dumps(payload).encode()
        if special:
            with pytest.raises(ConfigurationError, match="layer 0 weights is not finite"):
                load_checkpoint(path)
            # The finite special values must survive a round trip.
            params.vector[~np.isfinite(params.vector)] = 0.5
            save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.vector.dtype == np.float64
        assert np.array_equal(loaded.vector.view(np.uint64), params.vector.view(np.uint64))

    def test_loaded_params_are_packed_and_save_the_same_bytes(self, tmp_path):
        cfg = ModelConfig(input_dim=5, n_heads=3, horizon=4, hidden=(7, 6))
        params = init_params(cfg, seed=1)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(params, first)
        loaded = load_checkpoint(first)
        assert np.array_equal(loaded.vector, params.vector)
        for view in (*loaded.weights, *loaded.biases):
            assert np.shares_memory(view, loaded.vector)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="not UTF-8") as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
