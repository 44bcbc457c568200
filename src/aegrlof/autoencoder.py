"""Undercomplete tanh autoencoder trained by minibatch SGD with optional
end-of-epoch gradient reversal.

The network has five node layers [n, h, m, h, n] where the bottleneck width
is m = floor(1 + sqrt(n)) and the hidden width h = round(sqrt(n * m))
(geometric taper between input and bottleneck). The loss is smooth-L1
(quadratic below unit error, linear above), minimized by plain SGD.

Gradient reversal: once the epoch counter passes the configured start epoch,
every minibatch is assigned a gradient score, the Frobenius norm of the
bottleneck layer's weight gradient. At the end of the epoch the stored
gradient of the highest-scoring batch, the one that moved the bottleneck
hardest and is therefore most likely anomaly-driven, is applied *inverted*
(theta += lr * g), undoing that batch's pull on the representation. Rows are
reshuffled into new batches between epochs so the same points are not
repeatedly selected together.

Early stopping reads the validation loss after every epoch; that pass
writes into activation and smooth-L1 work arrays allocated once per
:func:`train` call, and its loss is bit-identical to
``smooth_l1_loss(forward(net, x)[1], x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .storage import atomic_write_text

# Index of the weight layer whose output is the bottleneck, in the fixed
# [n, h, m, h, n] architecture.
BOTTLENECK_LAYER = 1

# Per-parameter gradients, one (dW, db) pair per weight layer.
Gradients = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class LayerParams:
    """One weight layer: out x in weights and out bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"inconsistent layer shapes: W {self.weights.shape}, "
                f"b {self.bias.shape}"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.bias.copy())


@dataclass
class Network:
    """Ordered weight layers; adjacent dimensions must chain.

    Every layer applies tanh except the last, the reconstruction layer,
    which is linear so it can reproduce inputs outside [-1, 1].
    """

    layers: list[LayerParams]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"layer width mismatch: {prev.weights.shape} -> "
                    f"{cur.weights.shape}"
                )

    @property
    def widths(self) -> list[int]:
        """Node-layer widths, input first."""
        return [self.layers[0].weights.shape[1]] + [
            layer.weights.shape[0] for layer in self.layers
        ]

    @property
    def n_inputs(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def bottleneck_width(self) -> int:
        return self.layers[BOTTLENECK_LAYER].weights.shape[0]

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    ``gr_start_epoch`` is the epoch count after which reversal activates
    (reversal fires in epochs j > gr_start_epoch, 1-based); setting it at
    or above ``max_epochs`` disables reversal entirely and yields plain
    SGD. ``patience`` <= 0 disables early stopping; otherwise training
    stops once validation loss has failed to improve by at least
    ``min_improvement`` for ``patience`` consecutive epochs.
    """

    max_epochs: int = 100
    batch_size: int = 16
    learning_rate: float = 0.01
    gr_start_epoch: int = 5
    patience: int = 10
    min_improvement: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if not math.isfinite(self.min_improvement):
            raise ValueError(
                f"min_improvement must be finite, got {self.min_improvement}"
            )
        if self.gr_start_epoch < 0:
            raise ValueError(f"gr_start_epoch must be >= 0, got {self.gr_start_epoch}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    max_gs: float = math.nan
    reversal_applied: bool = False


def default_batch_size(n_train_rows: int) -> int:
    """64 for training sets larger than 2000 rows, 16 otherwise."""
    return 64 if n_train_rows > 2000 else 16


def bottleneck_width(n_features: int) -> int:
    """floor(1 + sqrt(n)) bottleneck nodes for an n-feature input."""
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    return int(math.floor(1.0 + math.sqrt(n_features)))


def build_architecture(n_features: int, seed: int = 0) -> Network:
    """Construct the initialized [n, h, m, h, n] network.

    Weights are seeded uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    biases zero.
    """
    m = bottleneck_width(n_features)
    h = max(1, int(round(math.sqrt(n_features * m))))
    widths = [n_features, h, m, h, n_features]
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(LayerParams(weights, np.zeros(fan_out)))
    return Network(layers)


def forward(
    net: Network, batch: np.ndarray, out: Sequence[np.ndarray] | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """Run a batch through the network.

    Returns the list of node-layer activations (input first, output last)
    and the output; every intermediate activation is retained for
    :func:`backward`. ``out`` optionally holds one float64 array per weight
    layer, shaped (rows, layer width), that receives that layer's
    activation instead of a fresh array, so a pass repeated over the same
    rows allocates nothing; the values are the same either way.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.n_inputs:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with {net.n_inputs} inputs"
        )
    activations = [batch]
    for i, layer in enumerate(net.layers):
        buf = None if out is None else out[i]
        act = np.matmul(activations[-1], layer.weights.T, out=buf)
        act += layer.bias
        if i < len(net.layers) - 1:
            np.tanh(act, out=act)
        activations.append(act)
    return activations, activations[-1]


def _smooth_l1(
    output: np.ndarray,
    target: np.ndarray,
    err: np.ndarray | None = None,
    quad: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Element-wise smooth-L1: 0.5*e^2 where |e| < 1, |e| - 0.5 elsewhere.

    ``err``, ``quad`` (float64) and ``mask`` (bool), each of the output's
    shape, are optional work arrays; the result is returned in ``err``.
    """
    err = np.subtract(output, target, out=err)
    np.abs(err, out=err)
    mask = np.less(err, 1.0, out=mask)
    quad = np.multiply(0.5, err, out=quad)
    quad *= err
    err -= 0.5
    np.copyto(err, quad, where=mask)
    return err


def smooth_l1_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean smooth-L1 over every element."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ValueError(f"shape mismatch: {output.shape} vs {target.shape}")
    return float(_smooth_l1(output, target).mean())


def backward(
    net: Network, activations: Sequence[np.ndarray], target: np.ndarray
) -> Gradients:
    """Backpropagate the mean smooth-L1 loss through cached activations.

    Returns one (dW, db) pair per weight layer, shapes matching the
    network's parameters.
    """
    err = activations[-1] - target
    # d/de of mean smooth-L1: e on the quadratic branch, sign(e) on the
    # linear one; the output layer is linear, so this is its delta
    delta = np.clip(err, -1.0, 1.0) / err.size

    grads: Gradients = []
    for i in range(len(net.layers) - 1, -1, -1):
        a_in = activations[i]
        grads.append((delta.T @ a_in, delta.sum(axis=0)))
        if i > 0:
            # a_in is the output of tanh layer i - 1: tanh' = 1 - a^2
            delta = (delta @ net.layers[i].weights) * (1.0 - a_in * a_in)
    grads.reverse()
    return grads


def sgd_step(net: Network, grads: Gradients, lr: float) -> Network:
    """In-place plain SGD update theta <- theta - lr * g; returns ``net``."""
    for layer, (dw, db) in zip(net.layers, grads):
        layer.weights -= lr * dw
        layer.bias -= lr * db
    return net


def gradient_score(bottleneck_weight_grad: np.ndarray) -> float:
    """Frobenius norm of the bottleneck layer's weight gradient."""
    g = np.asarray(bottleneck_weight_grad, dtype=np.float64)
    return float(np.sqrt(np.sum(g * g)))


def train(
    net: Network,
    train_data: Dataset,
    val_data: Dataset,
    cfg: TrainConfig,
) -> tuple[Network, list[EpochStats]]:
    """Train a copy of ``net``; returns the best-validation network.

    Each epoch iterates minibatches with forward/backward/SGD. In epochs
    past ``cfg.gr_start_epoch`` the batch with the highest gradient score
    is tracked (only its gradients are retained, bounding memory to one
    gradient set) and its stored gradient is applied inverted at epoch
    end. Rows are reshuffled into fresh batches between epochs. Training
    stops early on stalled validation loss and returns the parameters
    snapshotted at the best validation loss seen.

    The input network is not modified, so repeated calls with the same
    config and seed produce bitwise-identical results.

    Raises:
        RuntimeError: Non-finite training or validation loss.
    """
    if train_data.n_features != net.n_inputs:
        raise ValueError(
            f"training data width {train_data.n_features} does not match "
            f"network input width {net.n_inputs}"
        )
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    x_train = train_data.features
    x_val = val_data.features
    n = x_train.shape[0]
    order = np.arange(n)
    # the validation pass covers the same rows every epoch, so its
    # activations and smooth-L1 work arrays are allocated once
    val_acts = [np.empty((x_val.shape[0], width)) for width in net.widths[1:]]
    val_work = (np.empty(x_val.shape), np.empty(x_val.shape),
                np.empty(x_val.shape, dtype=bool))

    history: list[EpochStats] = []
    best_val = math.inf
    best_net = net.copy()
    stall = 0

    for epoch in range(1, cfg.max_epochs + 1):
        reversal_active = epoch > cfg.gr_start_epoch
        # highest gradient score this epoch (nan until reversal is active)
        # and the gradients behind it; backward returns fresh arrays and
        # sgd_step does not modify them, so keeping them needs no copy
        best_score = math.nan
        best_grads: Gradients | None = None
        loss_sum = 0.0

        for batch_id, start in enumerate(range(0, n, cfg.batch_size)):
            batch = x_train[order[start : start + cfg.batch_size]]
            activations, output = forward(net, batch)
            loss = smooth_l1_loss(output, batch)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {batch_id} (lr={cfg.learning_rate})"
                )
            loss_sum += loss * batch.shape[0]
            grads = backward(net, activations, batch)
            if reversal_active:
                score = gradient_score(grads[BOTTLENECK_LAYER][0])
                if best_grads is None or score > best_score:
                    best_score, best_grads = score, grads
            sgd_step(net, grads, cfg.learning_rate)

        reversal_applied = best_grads is not None
        if reversal_applied:
            # Invert the highest-scoring batch's stored update. The stored
            # gradient predates later batch updates in this epoch; that
            # staleness is inherent to scoring in-loop and reversing at
            # epoch end.
            sgd_step(net, best_grads, -cfg.learning_rate)

        val_out = forward(net, x_val, val_acts)[1]
        val_loss = float(_smooth_l1(val_out, x_val, *val_work).mean())
        if not math.isfinite(val_loss):
            raise RuntimeError(
                f"training diverged: non-finite validation loss at epoch {epoch}"
            )
        history.append(
            EpochStats(epoch, loss_sum / n, val_loss, best_score, reversal_applied)
        )

        if val_loss < best_val - cfg.min_improvement:
            best_val = val_loss
            best_net = net.copy()
            stall = 0
        else:
            stall += 1
            if cfg.patience > 0 and stall >= cfg.patience:
                break

        order = rng.permutation(n)

    return best_net, history


def encode(net: Network, data: Dataset) -> np.ndarray:
    """Bottleneck activations per row (the latent representation)."""
    activations, _ = forward(net, data.features)
    return activations[BOTTLENECK_LAYER + 1]


def reconstruction_error(net: Network, data: Dataset) -> np.ndarray:
    """Per-row mean smooth-L1 between the reconstruction and the input."""
    _, output = forward(net, data.features)
    return _smooth_l1(output, data.features).mean(axis=1)


def history_to_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    """Export training history as CSV."""
    lines = ["epoch,train_loss,val_loss,max_gs,reversal_applied"]
    for s in history:
        lines.append(
            f"{s.epoch},{s.train_loss!r},{s.val_loss!r},{s.max_gs!r},"
            f"{int(s.reversal_applied)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
