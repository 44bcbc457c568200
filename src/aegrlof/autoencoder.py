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

:func:`train_stack` trains S networks of one architecture in lockstep:
weights are held as (S, out, in) and biases as (S, out), so each numpy
call of a batch step serves every network. numpy computes a stack one
network slice at a time with the single-network arithmetic, so each
network ends bit-identical to training it alone, which :func:`train`
does as a stack of one. The networks may differ in seed and reversal
start, so plain and reversal networks share a stack.

Early stopping reads each network's validation loss after every epoch,
one network at a time; that pass writes into activation and smooth-L1
work arrays allocated once per stack, and its loss is bit-identical to
``smooth_l1_loss(forward(net, x)[1], x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .storage import atomic_write_text

# Index of the weight layer whose output is the bottleneck, in the fixed
# [n, h, m, h, n] architecture.
BOTTLENECK_LAYER = 1

# (weights, bias) per weight layer: (out, in) and (out,) arrays for one
# network, or (S, out, in) and (S, out) for a stack of S networks.
Params = list[tuple[np.ndarray, np.ndarray]]

# Per-parameter gradients, one (dW, db) pair per weight layer, shaped as
# the parameters they belong to.
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
    def params(self) -> Params:
        """Each layer's (weights, bias), the arrays themselves."""
        return [(layer.weights, layer.bias) for layer in self.layers]

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
    ``batch_size`` None steps :func:`default_batch_size` of the training
    rows.
    """

    max_epochs: int = 100
    batch_size: int | None = None
    learning_rate: float = 0.01
    gr_start_epoch: int = 5
    patience: int = 10
    min_improvement: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size is not None and self.batch_size < 1:
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
    # id of the batch whose gradient was inverted, -1 when none was
    reversed_batch: int = -1


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


def forward(net: Network, batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Run a batch through the network.

    Returns the list of node-layer activations (input first, output last)
    and the output; every intermediate activation is retained for
    :func:`backward`.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.n_inputs:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with {net.n_inputs} inputs"
        )
    activations = _forward(net.params, batch)
    return activations, activations[-1]


def _forward(
    params: Params, batch: np.ndarray, out: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Node-layer activations, input first, of one network or a stack;
    a stack's ``batch`` is (S, rows, n), one batch per network. ``out``,
    one (rows, layer width) float64 array per weight layer, optionally
    receives the same values, so a repeated pass allocates nothing."""
    activations = [batch]
    for i, (weights, bias) in enumerate(params):
        buf = None if out is None else out[i]
        act = np.matmul(activations[-1], weights.swapaxes(-1, -2), out=buf)
        act += bias[..., None, :]
        if i < len(params) - 1:
            np.tanh(act, out=act)
        activations.append(act)
    return activations


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
    return _backward(net.params, activations, target)


def _backward(
    params: Params, activations: Sequence[np.ndarray], target: np.ndarray
) -> Gradients:
    """:func:`backward` for one network or a stack; a stack's gradients
    hold each network's mean-loss gradient on the leading axis."""
    err = activations[-1] - target
    # d/de of one network's mean smooth-L1: e on the quadratic branch,
    # sign(e) on the linear one; the output layer is linear, so this is
    # its delta
    delta = np.clip(err, -1.0, 1.0) / (err.shape[-2] * err.shape[-1])

    grads: Gradients = []
    for i in range(len(params) - 1, -1, -1):
        a_in = activations[i]
        grads.append((delta.swapaxes(-1, -2) @ a_in, delta.sum(axis=-2)))
        if i > 0:
            # a_in is the output of tanh layer i - 1: tanh' = 1 - a^2
            delta = (delta @ params[i][0]) * (1.0 - a_in * a_in)
    grads.reverse()
    return grads


def sgd_step(net: Network, grads: Gradients, lr: float) -> Network:
    """In-place plain SGD update theta <- theta - lr * g; returns ``net``."""
    _sgd_step(net.params, grads, lr)
    return net


def _sgd_step(params: Params, grads: Gradients, lr: float,
              where: np.ndarray | None = None) -> None:
    """:func:`sgd_step` for one network or a stack; ``where``, one bool
    per network of a stack, limits the update to the networks it marks."""
    for (weights, bias), (dw, db) in zip(params, grads):
        if where is None:
            weights -= lr * dw
            bias -= lr * db
        else:
            weights[where] -= lr * dw[where]
            bias[where] -= lr * db[where]


def gradient_score(bottleneck_weight_grad: np.ndarray) -> float:
    """Frobenius norm of the bottleneck layer's weight gradient."""
    return float(_gradient_scores(np.asarray(bottleneck_weight_grad,
                                             dtype=np.float64)))


def _gradient_scores(g: np.ndarray) -> np.ndarray:
    """:func:`gradient_score` of each matrix along the leading axes."""
    return np.sqrt(np.sum(g * g, axis=(-2, -1)))


# TrainConfig fields every network of a stack must share: the stack steps
# through the same batches and epochs with one learning rate
_STACK_SHARED = tuple(f.name for f in fields(TrainConfig)
                      if f.name not in ("seed", "gr_start_epoch"))


def _check_stack(nets: Sequence[Network], train_data: Dataset,
                 val_data: Dataset, cfgs: Sequence[TrainConfig]) -> None:
    if not nets:
        raise ValueError("train_stack needs at least one network")
    if len(cfgs) != len(nets):
        raise ValueError(f"{len(nets)} networks but {len(cfgs)} training configs")
    widths = nets[0].widths
    for net in nets[1:]:
        if net.widths != widths:
            raise ValueError(
                f"stacked networks must share one architecture, got widths "
                f"{widths} and {net.widths}"
            )
    for cfg in cfgs[1:]:
        differ = [name for name in _STACK_SHARED
                  if getattr(cfg, name) != getattr(cfgs[0], name)]
        if differ:
            raise ValueError(
                f"stacked networks may differ only in seed and "
                f"gr_start_epoch, not in {differ}"
            )
    for split, data in (("training", train_data), ("validation", val_data)):
        if data.n_features != widths[0]:
            raise ValueError(
                f"{split} data width {data.n_features} does not match "
                f"network input width {widths[0]}"
            )


def train_stack(
    nets: Sequence[Network],
    train_data: Dataset,
    val_data: Dataset,
    cfgs: Sequence[TrainConfig],
) -> list[tuple[Network, list[EpochStats]] | RuntimeError]:
    """Train copies of S networks of one architecture in lockstep.

    Network ``i`` trains with ``cfgs[i]``, which may differ from the other
    configs only in ``seed`` (its batch shuffling) and ``gr_start_epoch``,
    so plain and reversal networks share a stack; anything else, an empty
    stack, networks of different widths or data of another width raises
    ``ValueError`` before the first batch. Weights are held as
    (S, out, in) and biases as (S, out), so each numpy call of a batch
    step serves every network; numpy computes each network's slice as the
    single-network step does, so each result is bit-identical to training
    that network alone.

    Each epoch iterates minibatches with forward/backward/SGD. In epochs
    past a network's ``gr_start_epoch`` the batch with its highest
    gradient score is tracked (only that batch's gradients are retained,
    bounding memory to one gradient set per network) and its stored
    gradient is applied inverted at epoch end. Rows are reshuffled into
    fresh batches between epochs. A network stops early on stalled
    validation loss and returns the parameters snapshotted at its best
    validation loss. A network whose training loss goes non-finite gets
    its error at that batch and trains on in its own slices, unvalidated.
    Networks leave the stack only at the end of an epoch, and the others
    go on.

    The input networks are not modified, so repeated calls with the same
    configs produce bitwise-identical results.

    Returns, per network, its best-validation network and history, or the
    ``RuntimeError`` that ended it on a non-finite training or validation
    loss.
    """
    _check_stack(nets, train_data, val_data, cfgs)
    cfg = cfgs[0]
    x_train = train_data.features
    x_val = val_data.features
    n = x_train.shape[0]
    batch_size = cfg.batch_size or default_batch_size(n)
    n_nets = len(nets)
    # the networks still training, on a leading axis: row k of ``params``
    # and ``orders`` (its row order for the epoch) belongs to network ids[k]
    ids = np.arange(n_nets)
    params = [(np.stack([net.layers[j].weights for net in nets]),
               np.stack([net.layers[j].bias for net in nets]))
              for j in range(len(nets[0].layers))]
    orders = np.tile(np.arange(n), (n_nets, 1))
    gr_start = np.array([c.gr_start_epoch for c in cfgs])
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    # validation runs one network at a time over the same rows every
    # epoch, so its activations and smooth-L1 work arrays are allocated
    # once and shared by the stack
    val_acts = [np.empty((x_val.shape[0], width)) for width in nets[0].widths[1:]]
    val_work = (np.empty(x_val.shape), np.empty(x_val.shape),
                np.empty(x_val.shape, dtype=bool))

    results: list = [None] * n_nets
    histories: list[list[EpochStats]] = [[] for _ in nets]
    best_val = [math.inf] * n_nets
    best_params = [[(w.copy(), b.copy()) for w, b in net.params] for net in nets]
    stall = [0] * n_nets

    for epoch in range(1, cfg.max_epochs + 1):
        if not ids.size:
            break
        reversing = epoch > gr_start[ids]
        # summed training loss; highest gradient score, its batch and grads
        loss_sum = np.zeros(ids.size)
        best_score = np.full(ids.size, math.nan)
        best_batch = np.full(ids.size, -1)
        best_grads: Gradients | None = None

        # a diverged network's later steps overflow or compute on NaN; its
        # error is recorded, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_id, start in enumerate(range(0, n, batch_size)):
                batch = x_train[orders[:, start : start + batch_size]]
                activations = _forward(params, batch)
                losses = _smooth_l1(activations[-1], batch).reshape(
                    ids.size, -1).mean(axis=1)
                finite = np.isfinite(losses)
                if not finite.all():
                    for i in ids[~finite].tolist():
                        if results[i] is None:
                            results[i] = RuntimeError(
                                f"training diverged: non-finite loss at epoch "
                                f"{epoch}, batch {batch_id} (lr={cfg.learning_rate})")
                loss_sum += losses * batch.shape[1]
                grads = _backward(params, activations, batch)
                if reversing.any():
                    scores = _gradient_scores(grads[BOTTLENECK_LAYER][0])
                    better = (reversing if best_grads is None
                              else reversing & (scores > best_score))
                    if better.any():
                        # backward returns fresh arrays the SGD step does
                        # not modify, so the first batch's are kept as is
                        if best_grads is None:
                            best_grads = grads
                        else:
                            for (best_w, best_b), (dw, db) in zip(best_grads, grads):
                                best_w[better] = dw[better]
                                best_b[better] = db[better]
                        best_score[better] = scores[better]
                        best_batch[better] = batch_id
                _sgd_step(params, grads, cfg.learning_rate)

            if reversing.any():
                # Invert each reversing network's highest-scoring batch
                # update. The stored gradient predates later batch updates
                # in this epoch; that staleness is inherent to scoring
                # in-loop and reversing at epoch end.
                _sgd_step(params, best_grads, -cfg.learning_rate,
                          where=None if reversing.all() else reversing)

        leaving = np.zeros(ids.size, dtype=bool)
        for k, i in enumerate(ids.tolist()):
            if results[i] is not None:
                leaving[k] = True
                continue
            net_params = [(w[k], b[k]) for w, b in params]
            val_out = _forward(net_params, x_val, val_acts)[-1]
            val_loss = float(_smooth_l1(val_out, x_val, *val_work).mean())
            if not math.isfinite(val_loss):
                results[i] = RuntimeError(
                    f"training diverged: non-finite validation loss at epoch {epoch}"
                )
                leaving[k] = True
                continue
            histories[i].append(EpochStats(
                epoch, float(loss_sum[k]) / n, val_loss, float(best_score[k]),
                bool(reversing[k]), int(best_batch[k]),
            ))
            if val_loss < best_val[i] - cfg.min_improvement:
                best_val[i] = val_loss
                best_params[i] = [(w.copy(), b.copy()) for w, b in net_params]
                stall[i] = 0
            else:
                stall[i] += 1
                if cfg.patience > 0 and stall[i] >= cfg.patience:
                    leaving[k] = True
                    continue
            orders[k] = rngs[i].permutation(n)
        if leaving.any():
            staying = ~leaving
            ids, orders = ids[staying], orders[staying]
            params = [(w[staying], b[staying]) for w, b in params]

    return [
        result if result is not None
        else (Network([LayerParams(w, b) for w, b in net_params]), history)
        for result, net_params, history in zip(results, best_params, histories)
    ]


def train(
    net: Network,
    train_data: Dataset,
    val_data: Dataset,
    cfg: TrainConfig,
) -> tuple[Network, list[EpochStats]]:
    """Train a copy of ``net``; returns the best-validation network and
    its history.

    This is :func:`train_stack` on a stack of one, which describes the
    training; that network's error is raised here.

    Raises:
        ValueError: Data of another width than the network's input.
        RuntimeError: Non-finite training or validation loss.
    """
    result = train_stack([net], train_data, val_data, [cfg])[0]
    if isinstance(result, RuntimeError):
        raise result
    return result


def encode(net: Network, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the bottleneck activations (the latent representation)
    and the reconstruction error, from one forward pass."""
    activations, output = forward(net, data.features)
    errors = _smooth_l1(output, data.features).mean(axis=1)
    return activations[BOTTLENECK_LAYER + 1], errors


def reconstruction_error(net: Network, data: Dataset) -> np.ndarray:
    """Per-row mean smooth-L1 between the reconstruction and the input."""
    return encode(net, data)[1]


def history_to_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    """Export training history as CSV."""
    lines = ["epoch,train_loss,val_loss,max_gs,reversal_applied,reversed_batch"]
    for s in history:
        lines.append(
            f"{s.epoch},{s.train_loss!r},{s.val_loss!r},{s.max_gs!r},"
            f"{int(s.reversal_applied)},{s.reversed_batch}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
