"""A small multi-hypothesis MLP with hand-written backpropagation.

The network maps a flat context vector through ReLU hidden layers to a single
wide output holding K trajectories of L steps plus one confidence logit per
head. Layout of the output vector: the first K*L*2 entries are the
trajectories in head-major order, the last K entries are the logits.
"""

from __future__ import annotations

import binascii
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ._files import read_json_object, write_text_atomic
from .errors import ConfigurationError, NonFiniteError

CHECKPOINT_VERSION = 2

CHECKPOINT_MODEL = "multihead-mlp"

INIT_MODES = ("glorot", "clustered")


@dataclasses.dataclass
class ModelConfig:
    """Architecture description for init_params and experiment configs.

    input_dim and horizon come from the data: an experiment config leaves
    them unset, they are not JSON keys, and training fills them from the
    split shapes. init_params needs them set.
    """

    n_heads: int = 6
    hidden: tuple[int, ...] = (64, 64)
    init: str = "glorot"
    input_dim: int | None = dataclasses.field(default=None, metadata={"json": False})
    horizon: int | None = dataclasses.field(default=None, metadata={"json": False})

    def validate(self) -> None:
        if self.input_dim is not None and self.input_dim < 0:
            raise ConfigurationError(f"input_dim must be >= 0, got {self.input_dim}")
        if self.n_heads < 1:
            raise ConfigurationError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if any(h < 1 for h in self.hidden):
            raise ConfigurationError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.init not in INIT_MODES:
            raise ConfigurationError(
                f"unknown init mode {self.init!r}, expected one of {INIT_MODES}"
            )

    @property
    def output_dim(self) -> int:
        return self.n_heads * (self.horizon * 2 + 1)


def _views(vector: np.ndarray, weights: list, biases: list) -> tuple[list, list]:
    """Views into vector shaped like weights then biases: every weight
    matrix in layer order, then every bias vector in layer order."""
    views = []
    offset = 0
    for tensor in (*weights, *biases):
        size = np.size(tensor)
        views.append(vector[offset : offset + size].reshape(np.shape(tensor)))
        offset += size
    return views[: len(weights)], views[len(weights) :]


@dataclasses.dataclass
class _FlatTensors:
    """Per-layer weights and biases stored as views into one float64 vector.

    The layout is every weight matrix in layer order, then every bias vector
    in layer order. Tensors passed to the constructor are copied in, so an
    in-place write through weights[i] or biases[i] reaches vector, and an
    operation on vector covers every tensor at once.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    vector: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tensors = (*self.weights, *self.biases)
        self.vector = np.empty(sum(np.size(t) for t in tensors))
        weights, biases = _views(self.vector, self.weights, self.biases)
        for view, tensor in zip((*weights, *biases), tensors):
            view[...] = tensor
        self.weights, self.biases = weights, biases


@dataclasses.dataclass
class ModelParams(_FlatTensors):
    """Dense layer parameters. weights[i] has shape (fan_out, fan_in)."""

    n_heads: int
    horizon: int

    @property
    def input_dim(self) -> int:
        return int(self.weights[0].shape[1])

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(int(w.shape[0]) for w in self.weights[:-1])

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "ModelParams":
        """An independent copy: the constructor copies the tensors into a new vector."""
        return dataclasses.replace(self)


@dataclasses.dataclass
class GradientBuffer(_FlatTensors):
    """Gradients in the layout of ModelParams."""

    @classmethod
    def zeros_like(cls, params: _FlatTensors) -> "GradientBuffer":
        # Zero-stride stand-ins, as in init_params: the vector is the one full-size array.
        return cls(
            weights=[np.broadcast_to(0.0, w.shape) for w in params.weights],
            biases=[np.broadcast_to(0.0, b.shape) for b in params.biases],
        )


def init_params(config: ModelConfig, seed: int | np.random.Generator = 0) -> ModelParams:
    """Build parameters with uniform init in [-a, a], a = sqrt(6 / (fan_in + fan_out)).

    Biases use the same bound as their layer's weights, which leaves every
    head at a slightly different starting point. The "clustered" mode instead
    tiles one shared bias template across all K heads of the output layer, so
    every head starts from the same trajectory and logit; with a hard
    winner-takes-all loss the losing heads then never separate.
    """
    config.validate()
    if config.input_dim is None or config.horizon is None:
        raise ConfigurationError("init_params needs input_dim and horizon set")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dims = [config.input_dim, *config.hidden, config.output_dim]
    layers = list(zip(dims[:-1], dims[1:]))
    n_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out in layers)
    if n_params > np.iinfo(np.intp).max // 8:  # numpy would raise ValueError
        raise MemoryError(
            f"Unable to allocate {n_params} float64 parameters: too many to address"
        )
    # Zero-stride stand-ins give the shapes without memory, so the one
    # vector is the only full-size array, and each layer is drawn into it.
    params = ModelParams(
        weights=[np.broadcast_to(0.0, (fan_out, fan_in)) for fan_in, fan_out in layers],
        biases=[np.broadcast_to(0.0, fan_out) for _, fan_out in layers],
        n_heads=config.n_heads,
        horizon=config.horizon,
    )
    for weight, bias in zip(params.weights, params.biases):
        bound = np.sqrt(6.0 / sum(weight.shape))
        for tensor in (weight, bias):
            # The bits of rng.uniform(-bound, bound), which computes
            # low + (high - low) * u, and high - low is exactly 2 * bound.
            rng.random(out=tensor)
            tensor *= 2.0 * bound
            tensor += -bound
    if config.init == "clustered":
        bound = np.sqrt(6.0 / (dims[-2] + dims[-1]))
        traj_template = rng.uniform(-bound, bound, size=config.horizon * 2)
        logit_value = rng.uniform(-bound, bound)
        params.biases[-1][...] = np.concatenate(
            [np.tile(traj_template, config.n_heads), np.full(config.n_heads, logit_value)]
        )
    return params


def _check_context_batch(params: ModelParams, contexts: np.ndarray) -> np.ndarray:
    contexts = np.asarray(contexts, dtype=float)
    if contexts.ndim != 2 or contexts.shape[1] != params.input_dim:
        raise ConfigurationError(
            f"context batch must be (B, {params.input_dim}), got {contexts.shape}"
        )
    return contexts


def forward_batch(
    params: ModelParams, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Run the network on (B, input_dim) contexts.

    Returns (trajectories (B, K, L, 2), logits (B, K), activations). The
    activations list holds the input and every hidden layer output and is
    consumed by backward_batch.
    """
    contexts = _check_context_batch(params, contexts)
    activations = [contexts]
    hidden = contexts
    for weight, bias in zip(params.weights[:-1], params.biases[:-1]):
        hidden = hidden @ weight.T
        hidden += bias
        np.maximum(hidden, 0.0, out=hidden)
        activations.append(hidden)
    out = hidden @ params.weights[-1].T
    out += params.biases[-1]
    batch = out.shape[0]
    n_traj = params.n_heads * params.horizon * 2
    trajectories = out[:, :n_traj].reshape(batch, params.n_heads, params.horizon, 2)
    logits = out[:, n_traj:]
    return trajectories, logits, activations


def backward_batch(
    params: ModelParams,
    activations: list[np.ndarray],
    d_outputs: np.ndarray,
    d_score_logits: np.ndarray | None = None,
    *,
    out: GradientBuffer | None = None,
) -> GradientBuffer:
    """Backpropagate output gradients through the cached activations.

    d_outputs is the (B, K*L*2 + K) gradient with respect to the network
    output, in its layout: BatchObjective.d_outputs. Each layer's gradient
    is written straight into out, which must have the layout of params; a
    training loop passes the same buffer every step. By default a new
    buffer is allocated.

    The two-array form backward_batch(params, activations, d_trajectories,
    d_score_logits), with (B, K, L, 2) and (B, K) gradients, is still
    accepted and joins the two first; perfbench/test_perfbench.py calls it.
    """
    if d_score_logits is not None:
        batch = d_outputs.shape[0]
        expected = (batch, params.n_heads, params.horizon, 2)
        if d_outputs.shape != expected or d_score_logits.shape != expected[:2]:
            raise ConfigurationError(
                f"upstream gradients must be {expected} and {expected[:2]}, got"
                f" {d_outputs.shape} and {d_score_logits.shape}"
            )
        d_outputs = np.concatenate([d_outputs.reshape(batch, -1), d_score_logits], axis=1)
    width = params.n_heads * (params.horizon * 2 + 1)
    if d_outputs.ndim != 2 or d_outputs.shape[1] != width:
        raise ConfigurationError(
            f"output gradient must be (B, {width}), got {d_outputs.shape}"
        )
    if out is None:
        out = GradientBuffer.zeros_like(params)
    delta = d_outputs
    for layer in reversed(range(params.n_layers)):
        np.matmul(delta.T, activations[layer], out=out.weights[layer])
        np.add.reduce(delta, axis=0, out=out.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer]
            delta *= activations[layer] > 0.0
    return out


# ---------------------------------------------------------------------------
# Adam optimizer.
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator offset, the same in every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclasses.dataclass
class AdamState:
    """First and second moment accumulators plus the step counter.

    m and v have the layout of the parameters, so one update covers every
    tensor; update and denom are adam_step's scratch vectors, kept here so a
    run allocates them once.
    """

    step: int
    m: GradientBuffer
    v: GradientBuffer
    update: np.ndarray = dataclasses.field(repr=False)
    denom: np.ndarray = dataclasses.field(repr=False)


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(
        step=0,
        m=GradientBuffer.zeros_like(params),
        v=GradientBuffer.zeros_like(params),
        update=np.empty_like(params.vector),
        denom=np.empty_like(params.vector),
    )


def _first_non_finite(tensors: _FlatTensors) -> str | None:
    """Name the first non-finite tensor, weights then biases in layer order."""
    for kind, group in (("weights", tensors.weights), ("biases", tensors.biases)):
        for layer, tensor in enumerate(group):
            if not np.isfinite(tensor).all():
                return f"layer {layer} {kind}"
    return None


def _all_finite(vector: np.ndarray) -> bool:
    """Whether every entry of a 1-d float vector is finite.

    One dot product decides the common case: a NaN or infinite entry makes
    its square NaN or +inf, and a sum of nonnegative squares cannot cancel
    an infinity, so a finite v . v proves every entry finite. The converse
    fails only when finite squares or their sum overflow (entries beyond
    about 1e154), so a non-finite dot product falls back to the exact
    element check.
    """
    return math.isfinite(np.dot(vector, vector)) or bool(np.isfinite(vector).all())


def adam_step(
    params: ModelParams,
    grads: GradientBuffer,
    state: AdamState,
    lr: float,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of every tensor at once, in place,
    with step size lr and ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    Rejects the step with NonFiniteError if any gradient entry is NaN or
    infinite, naming the first offending tensor; parameters, moments and
    the step counter are left untouched.

    Once ADAM_BETA1**step is below half an ulp of 1, the first bias
    correction 1 - ADAM_BETA1**step rounds to exactly 1.0, and m / 1.0 is m
    bit for bit; from then on, step 356 and later, the step skips that
    division.
    """
    grad = grads.vector
    if not _all_finite(grad):
        raise NonFiniteError(
            f"non-finite gradient in {_first_non_finite(grads)}; step rejected"
        )
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1**state.step
    correction2 = 1.0 - ADAM_BETA2**state.step
    m, v, update, denom = state.m.vector, state.v.vector, state.update, state.denom
    # Two scratch buffers hold every intermediate; the operations and their
    # order are those of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    #   params -= lr * (m / c1) / (sqrt(v / c2) + eps)
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=denom)
    v += np.multiply(denom, 1.0 - ADAM_BETA2, out=denom)
    if correction1 == 1.0:
        np.multiply(m, lr, out=update)
    else:
        np.divide(m, correction1, out=update)
        update *= lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    params.vector -= update
    if not _all_finite(params.vector):
        raise NonFiniteError("parameters became non-finite after the update")
    return params, state


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


def _encode_tensor(tensor: np.ndarray) -> dict:
    """A tensor as {"shape": [...], "data": base64 of its little-endian
    float64 bytes in C order}."""
    raw = tensor.astype("<f8", copy=False).tobytes()
    data = binascii.b2a_base64(raw, newline=False).decode("ascii")
    return {"shape": list(tensor.shape), "data": data}


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write parameters as versioned JSON with shapes and exact float values.

    The text is json.dumps of {format_version, model, input_dim, n_heads,
    horizon, hidden, weights, biases}, each tensor an entry {"shape": [...],
    "data": "..."} whose data is the base64 of the tensor's little-endian
    float64 bytes, so every value keeps its bits.
    """
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model": CHECKPOINT_MODEL,
        "input_dim": params.input_dim,
        "n_heads": params.n_heads,
        "horizon": params.horizon,
        "hidden": list(params.hidden),
        "weights": [_encode_tensor(w) for w in params.weights],
        "biases": [_encode_tensor(b) for b in params.biases],
    }
    write_text_atomic(path, json.dumps(payload))


def _checkpoint_count(value, where: str) -> int:
    if type(value) is not int or value < 1:
        raise ConfigurationError(f"{where} must be a positive integer, got {value!r}")
    return value


def _checkpoint_tensor(entry, where: str) -> np.ndarray:
    """One {"shape": [...], "data": "<base64>"} entry as an array."""
    if type(entry) is not dict or not {"shape", "data"} <= entry.keys():
        raise ConfigurationError(f"{where} must be an object with shape and data")
    shape, data = entry["shape"], entry["data"]
    counts = type(shape) is list and set(map(type, shape)) <= {int}
    if not counts or min(shape, default=0) < 0:
        raise ConfigurationError(f"{where} shape must be a list of counts, got {shape!r}")
    if type(data) is not str:
        raise ConfigurationError(f"{where} data must be a base64 string")
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise ConfigurationError(f"{where} data is not base64: {exc}") from None
    # Strict decoding accepts a stray "=" or "==" after complete groups.
    if len(data) % 4:
        raise ConfigurationError(
            f"{where} data is not base64: {len(data)} characters are not whole"
            " 4-character groups"
        )
    needed = 8 * math.prod(shape)
    if len(raw) != needed:
        raise ConfigurationError(
            f"{where} data holds {len(raw)} bytes, but shape {shape} needs {needed}"
        )
    try:
        return np.frombuffer(raw, "<f8").reshape(shape)
    except ValueError as exc:  # an empty shape with a dimension numpy cannot hold
        raise ConfigurationError(f"{where} shape {shape} is too large: {exc}") from None


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigurationError unless the payload describes a network that
    forward_batch can run: at least one layer, one bias vector per weight
    matrix, chained shapes, an output width of K*(2L+1), finite values.
    The model, input_dim and hidden keys must agree with the tensors.
    Types are checked, not converted: counts are integers and may not be
    booleans, and each tensor's data is a strict base64 string, in whole
    4-character groups, of exactly 8 bytes per value. A file of another
    format_version, format 1's JSON number lists included, is refused.
    """
    payload = read_json_object(path, "checkpoint", ConfigurationError)
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path} has format_version {version!r},"
            f" expected {CHECKPOINT_VERSION}"
        )
    required = ("model", "input_dim", "hidden", "n_heads", "horizon", "weights", "biases")
    missing = set(required) - payload.keys()
    if missing:
        raise ConfigurationError(
            f"checkpoint {path} is malformed: missing keys {sorted(missing)}"
        )
    n_heads = _checkpoint_count(payload["n_heads"], f"checkpoint {path} n_heads")
    horizon = _checkpoint_count(payload["horizon"], f"checkpoint {path} horizon")
    tensors = {}
    for kind in ("weights", "biases"):
        entries = payload[kind]
        if type(entries) is not list:
            raise ConfigurationError(f"checkpoint {path} {kind} must be a list")
        tensors[kind] = [
            _checkpoint_tensor(entry, f"checkpoint {path} {kind}[{i}]")
            for i, entry in enumerate(entries)
        ]
    weights, biases = tensors["weights"], tensors["biases"]
    if not weights or len(biases) != len(weights):
        raise ConfigurationError(
            f"checkpoint {path} needs one bias vector per weight matrix and at"
            f" least one layer, got {len(weights)} and {len(biases)}"
        )
    for layer, (weight, bias) in enumerate(zip(weights, biases)):
        if weight.ndim != 2 or bias.shape != weight.shape[:1]:
            raise ConfigurationError(
                f"checkpoint {path} layer {layer} has weights {weight.shape}"
                f" and biases {bias.shape}; expected (out, in) and (out,)"
            )
        if layer and weight.shape[1] != weights[layer - 1].shape[0]:
            raise ConfigurationError(f"checkpoint {path} has mismatched layer shapes")
    expected_out = n_heads * (horizon * 2 + 1)
    if weights[-1].shape[0] != expected_out:
        raise ConfigurationError(
            f"checkpoint {path} output width {weights[-1].shape[0]}"
            f" does not match K*(2L+1) = {expected_out}"
        )
    described = {
        "model": CHECKPOINT_MODEL,
        "input_dim": weights[0].shape[1],
        "hidden": [weight.shape[0] for weight in weights[:-1]],
    }
    for key, value in described.items():
        # Exact types, so that 4.0 and true are not the count 4 or 1.
        if type(payload[key]) is not type(value) or payload[key] != value or (
            key == "hidden" and set(map(type, payload[key])) - {int}
        ):
            raise ConfigurationError(
                f"checkpoint {path} {key} is {payload[key]!r}, but the tensors"
                f" describe {value!r}"
            )
    params = ModelParams(weights=weights, biases=biases, n_heads=n_heads, horizon=horizon)
    if not np.isfinite(params.vector).all():
        raise ConfigurationError(
            f"checkpoint {path} {_first_non_finite(params)} is not finite"
        )
    return params
