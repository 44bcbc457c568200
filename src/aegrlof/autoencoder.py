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
does as a stack of one. The networks share one :class:`TrainConfig`, and
each has its own (seed, reversal) key, so plain and reversal networks
share a stack. Each network's training state (shuffle generator,
history, best validation loss and parameters, stall count, error and
shared epochs) is one record. Networks of one seed and bit-identical
initial parameters, such as a seed's plain and reversal twins, are the
same network until the first reversing epoch; a dict keyed on the seed
and the parameters' bytes finds them, they train as one stack slot until
then, and each then takes a deep copy of the slot leader's record.

Early stopping reads each network's validation loss after every epoch,
one pass per network on the calling thread. A pass runs the forward pass
and smooth-L1 over row blocks of at least 512 rows, whose arrays stay in
cache, writes each block's element losses into one full-size array and
takes one mean over it, so its loss is bit-identical to
``smooth_l1_loss(forward(net.params, x)[-1], x)``. :func:`encode` runs
the same blocked pass, writing latents and per-row errors block by block.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset

# Index of the weight layer whose output is the bottleneck, in the fixed
# [n, h, m, h, n] architecture.
BOTTLENECK_LAYER = 1

# (weights, bias) per weight layer: (out, in) and (out,) arrays for one
# network, or (S, out, in) and (S, out) for a stack of S networks. A
# gradient holds one (dW, db) pair per weight layer in the same form.
Params = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class Network:
    """One network's (weights, bias) per weight layer, out x in and out;
    adjacent dimensions must chain.

    Every layer applies tanh except the last, the reconstruction layer,
    which is linear so it can reproduce inputs outside [-1, 1].
    """

    params: Params

    def __post_init__(self) -> None:
        self.params = [(np.asarray(w, dtype=np.float64),
                        np.asarray(b, dtype=np.float64)) for w, b in self.params]
        for weights, bias in self.params:
            if weights.ndim != 2 or bias.shape != (weights.shape[0],):
                raise ValueError(
                    f"inconsistent layer shapes: W {weights.shape}, b {bias.shape}"
                )
            if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
                raise ValueError("layer parameters must be finite")
        for (prev, _), (cur, _) in zip(self.params, self.params[1:]):
            if cur.shape[1] != prev.shape[0]:
                raise ValueError(f"layer width mismatch: {prev.shape} -> {cur.shape}")

    @property
    def widths(self) -> list[int]:
        """Node-layer widths, input first."""
        return [self.params[0][0].shape[1]] + [w.shape[0] for w, _ in self.params]

    @property
    def bottleneck_width(self) -> int:
        return self.params[BOTTLENECK_LAYER][0].shape[0]


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
        if self.min_improvement < 0:
            raise ValueError(
                f"min_improvement must be >= 0, got {self.min_improvement}"
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


def batch_starts(cfg: TrainConfig, n_train_rows: int) -> range:
    """The first row of each minibatch of an epoch: steps of
    ``cfg.batch_size``, or :func:`default_batch_size` when that is None.
    Its length is the epoch's batch count."""
    return range(0, n_train_rows, cfg.batch_size or default_batch_size(n_train_rows))


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
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        params.append((weights, np.zeros(fan_out)))
    return Network(params)


def forward(params: Params, batch: np.ndarray) -> list[np.ndarray]:
    """Node-layer activations, input first and output last, of one network
    or a stack; a stack's ``batch`` is (S, rows, n), one batch per network.
    Every intermediate activation is retained for :func:`backward`."""
    batch = np.asarray(batch, dtype=np.float64)
    first = params[0][0]
    if batch.ndim != first.ndim or batch.shape[-1] != first.shape[-1]:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with {first.shape[-1]} inputs"
        )
    activations = [batch]
    for i, (weights, bias) in enumerate(params):
        act = activations[-1] @ weights.swapaxes(-1, -2)
        act += bias[..., None, :]
        if i < len(params) - 1:
            np.tanh(act, out=act)
        activations.append(act)
    return activations


def _smooth_l1(output: np.ndarray, target: np.ndarray,
               err: np.ndarray | None = None) -> np.ndarray:
    """Element-wise smooth-L1 of e = |output - target|: 0.5*e^2 where
    e < 1, e - 0.5 elsewhere.

    It is computed branch-free as c * (e - 0.5*c) with c = min(e, 1),
    which equals the piecewise form bit for bit, NaN included. ``err``, a
    float64 array of the output's shape, optionally receives the result.
    """
    err = np.subtract(output, target, out=err)
    np.abs(err, out=err)
    clip = np.minimum(err, 1.0)
    err -= 0.5 * clip
    err *= clip
    return err


def smooth_l1_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean smooth-L1 over every element."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ValueError(f"shape mismatch: {output.shape} vs {target.shape}")
    return float(_smooth_l1(output, target).mean())


# Rows per block of a blocked pass (a validation loss or an encode). The
# arrays a block allocates, its activations and loss terms, stay in cache.
# OpenBLAS 0.3.31 computes a product of 1-100 rows at width 122 (1 row at
# width 16) with other kernels, whose output bits differ from a
# whole-split product's, so no block is shorter than this unless the whole
# split is: the remainder joins the last block.
_BLOCK_ROWS = 512


def _row_blocks(n_rows: int) -> list[slice]:
    """Consecutive row slices of ``_BLOCK_ROWS`` rows covering ``n_rows``,
    the last one holding the remainder as well."""
    bounds = [i * _BLOCK_ROWS for i in range(max(n_rows // _BLOCK_ROWS, 1))]
    bounds.append(n_rows)
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _blocked_pass(params: Params, x: np.ndarray, losses: np.ndarray,
                  latents: np.ndarray | None = None) -> None:
    """One network's forward pass and smooth-L1 over ``x``, block by block
    of :func:`_row_blocks`; each block allocates its own arrays.

    ``losses`` of ``x``'s shape receives every element's loss, and a 1-D
    ``losses`` each row's mean loss; ``latents``, one row per row of
    ``x``, optionally receives the bottleneck activations. Every value is
    bit-identical to one unblocked pass over ``x``, so ``losses.mean()``
    of element losses equals ``smooth_l1_loss(forward(params, x)[-1], x)``.
    """
    for block in _row_blocks(x.shape[0]):
        acts = forward(params, x[block])
        if latents is not None:
            latents[block] = acts[BOTTLENECK_LAYER + 1]
        if losses.ndim == 2:
            _smooth_l1(acts[-1], x[block], losses[block])
        else:
            _smooth_l1(acts[-1], x[block]).mean(axis=1, out=losses[block])


def backward(
    params: Params, activations: Sequence[np.ndarray], target: np.ndarray
) -> Params:
    """Backpropagate the mean smooth-L1 loss through cached activations,
    of one network or a stack.

    Returns one (dW, db) pair per weight layer, shaped as the parameters;
    a stack's hold each network's mean-loss gradient on the leading axis.
    """
    err = activations[-1] - target
    # d/de of one network's mean smooth-L1: e on the quadratic branch,
    # sign(e) on the linear one; the output layer is linear, so this is
    # its delta
    delta = np.clip(err, -1.0, 1.0) / (err.shape[-2] * err.shape[-1])

    grads: Params = []
    for i in range(len(params) - 1, -1, -1):
        a_in = activations[i]
        grads.append((delta.swapaxes(-1, -2) @ a_in, delta.sum(axis=-2)))
        if i > 0:
            # a_in is the output of tanh layer i - 1: tanh' = 1 - a^2
            delta = (delta @ params[i][0]) * (1.0 - a_in * a_in)
    grads.reverse()
    return grads


def sgd_step(params: Params, grads: Params, lr: float,
             where: np.ndarray | None = None) -> None:
    """In-place plain SGD update theta <- theta - lr * g, of one network
    or a stack; ``where``, one bool per network of a stack, limits the
    update to the networks it marks."""
    for (weights, bias), (dw, db) in zip(params, grads):
        if where is None:
            weights -= lr * dw
            bias -= lr * db
        else:
            weights[where] -= lr * dw[where]
            bias[where] -= lr * db[where]


def gradient_score(g: np.ndarray) -> np.ndarray:
    """Frobenius norm of a bottleneck weight gradient, for each matrix
    along the leading axes."""
    return np.sqrt(np.sum(g * g, axis=(-2, -1)))


def _check_stack(nets: Sequence[Network], train_data: Dataset,
                 val_data: Dataset, keys: Sequence[tuple[int, bool]]) -> None:
    if not nets:
        raise ValueError("train_stack needs at least one network")
    if len(keys) != len(nets):
        raise ValueError(f"{len(nets)} networks but {len(keys)} keys")
    widths = nets[0].widths
    for net in nets[1:]:
        if net.widths != widths:
            raise ValueError(
                f"stacked networks must share one architecture, got widths "
                f"{widths} and {net.widths}"
            )
    for split, data in (("training", train_data), ("validation", val_data)):
        if data.n_features != widths[0]:
            raise ValueError(
                f"{split} data width {data.n_features} does not match "
                f"network input width {widths[0]}"
            )


@dataclass
class _Training:
    """One network's training state in :func:`train_stack`."""

    rng: np.random.Generator  # its batch shuffles
    history: list[EpochStats] = field(default_factory=list)
    # its best validation loss and its parameters then; every network's
    # first validated epoch sets them
    best_val: float = math.inf
    best_params: Params | None = None
    stall: int = 0  # epochs since its validation loss last improved
    error: RuntimeError | None = None
    shared_epochs: int = 0  # epochs it trained in a shared slot


def train_stack(
    nets: Sequence[Network],
    train_data: Dataset,
    val_data: Dataset,
    cfg: TrainConfig,
    keys: Sequence[tuple[int, bool]],
    *,
    shared_epochs: dict[int, int] | None = None,
) -> list[tuple[Network, list[EpochStats]] | RuntimeError]:
    """Train copies of S networks of one architecture in lockstep.

    Every network trains with ``cfg``. Network ``i`` has the key
    ``keys[i]``, a (seed, reversal) pair: the seed drives its batch
    shuffling, and a network whose reversal is False never reverses, so
    plain and reversal networks share a stack. An empty stack, a key count
    other than the network count, networks of different widths or data of
    another width raises ``ValueError`` before the first batch. Weights
    are held as (S, out, in) and biases as (S, out), so each numpy call of
    a batch step serves every network; numpy computes each network's slice
    as the single-network step does, so each result is bit-identical to
    training that network alone.

    Each epoch iterates minibatches with forward/backward/SGD. In epochs
    past ``cfg.gr_start_epoch`` a reversal network's batch with the highest
    gradient score is tracked (only that batch's gradients are retained,
    bounding memory to one gradient set per network) and its stored
    gradient is applied inverted at epoch end. Rows are reshuffled into
    fresh batches between epochs. A network stops early on stalled
    validation loss and returns the parameters snapshotted at its best
    validation loss. A network whose training loss goes non-finite gets
    its error at that batch and trains on in its own slices, unvalidated.
    Networks leave the stack only at the end of an epoch, and the others
    go on. At each epoch's end each network still training gets one
    validation pass over row blocks of the validation split, each block's
    element losses written into one full-size array whose mean is the
    loss, bit-identical to an unblocked pass.

    Networks with one seed and bit-identical initial parameters (a seed's
    plain and reversal twins, found by a dict keyed on both) take the same
    steps until a reversal, so they train as one stack slot until epoch
    ``cfg.gr_start_epoch + 1`` begins, or until training ends. The slot is
    then repeated along the stack axis, and each of its networks gets a
    deep copy of the slot leader's training record. ``shared_epochs``,
    when given, receives by index each network that shared a slot, with
    the epochs it trained there.

    The input networks are not modified, so repeated calls with the same
    config and keys produce bitwise-identical results.

    Returns, per network, its best-validation network and history, or the
    ``RuntimeError`` that ended it on a non-finite training or validation
    loss.
    """
    _check_stack(nets, train_data, val_data, keys)
    x_train = train_data.features
    x_val = val_data.features
    n = x_train.shape[0]
    starts = batch_starts(cfg, n)
    runs = [_Training(np.random.default_rng(seed)) for seed, _ in keys]
    # the networks of each slot, by seed and initial parameters; the first
    # leads, and its record stands for the whole slot until the fork
    slots: dict[tuple, list[int]] = {}
    for i, (net, (seed, _)) in enumerate(zip(nets, keys)):
        initial = tuple(array.tobytes() for layer in net.params for array in layer)
        slots.setdefault((seed, initial), []).append(i)
    leader = {i: members[0] for members in slots.values() for i in members}
    shared = {members[0]: members[1:] for members in slots.values()
              if len(members) > 1}
    # the slots still training, on a leading axis: row k of ``params`` and
    # ``orders`` (its row order for the epoch) belongs to network ids[k]
    ids = np.array([members[0] for members in slots.values()])
    params = [(np.stack([nets[i].params[j][0] for i in ids]),
               np.stack([nets[i].params[j][1] for i in ids]))
              for j in range(len(nets[0].params))]
    orders = np.tile(np.arange(n), (ids.size, 1))
    reverses = np.array([reversal for _, reversal in keys], dtype=bool)

    def restack(rows: Sequence[int], row_ids: Sequence[int]) -> None:
        # row k of the stack becomes old row rows[k], of network row_ids[k]
        nonlocal ids, orders, params
        ids, orders = np.asarray(row_ids, dtype=int), orders[rows]
        params = [(w[rows], b[rows]) for w, b in params]

    def fork() -> None:
        # every network of a shared slot, also of one that left the stack
        # already, takes a copy of its leader's record, and each slot still
        # training is repeated once per network it holds
        for j, members in shared.items():
            for i in members:
                runs[i] = copy.deepcopy(runs[j])
            if shared_epochs is not None:
                shared_epochs.update(dict.fromkeys([j, *members], runs[j].shared_epochs))
        row = {i: k for k, i in enumerate(ids.tolist())}
        row_ids = [i for i in range(len(nets)) if leader[i] in row]
        restack([row[leader[i]] for i in row_ids], row_ids)
        shared.clear()

    for epoch in range(1, cfg.max_epochs + 1):
        if shared and epoch > cfg.gr_start_epoch:
            fork()
        if not ids.size:
            break
        for j in shared.keys() & set(ids.tolist()):
            runs[j].shared_epochs = epoch
        reversing = reverses[ids] & (epoch > cfg.gr_start_epoch)
        # summed training loss; highest gradient score, its batch and grads
        loss_sum = np.zeros(ids.size)
        best_score = np.full(ids.size, math.nan)
        best_batch = np.full(ids.size, -1)
        best_grads: Params | None = None

        # a diverged network's later steps overflow or compute on NaN; its
        # error is recorded, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_id, start in enumerate(starts):
                batch = x_train[orders[:, start : start + starts.step]]
                activations = forward(params, batch)
                losses = _smooth_l1(activations[-1], batch).reshape(
                    ids.size, -1).mean(axis=1)
                finite = np.isfinite(losses)
                if not finite.all():
                    for i in ids[~finite].tolist():
                        if runs[i].error is None:
                            runs[i].error = RuntimeError(
                                f"training diverged: non-finite loss at epoch "
                                f"{epoch}, batch {batch_id} (lr={cfg.learning_rate})")
                loss_sum += losses * batch.shape[1]
                grads = backward(params, activations, batch)
                if reversing.any():
                    scores = gradient_score(grads[BOTTLENECK_LAYER][0])
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
                sgd_step(params, grads, cfg.learning_rate)

            if reversing.any():
                # Invert each reversing network's highest-scoring batch
                # update. The stored gradient predates later batch updates
                # in this epoch; that staleness is inherent to scoring
                # in-loop and reversing at epoch end.
                sgd_step(params, best_grads, -cfg.learning_rate,
                         where=None if reversing.all() else reversing)

        leaving = np.array([runs[i].error is not None for i in ids.tolist()])
        for k in np.flatnonzero(~leaving).tolist():
            run = runs[int(ids[k])]
            # one mean over every element's loss sums in the order of an
            # unblocked pass
            losses = np.empty(x_val.shape)
            _blocked_pass([(w[k], b[k]) for w, b in params], x_val, losses)
            val_loss = float(losses.mean())
            if not math.isfinite(val_loss):
                run.error = RuntimeError(
                    f"training diverged: non-finite validation loss at epoch {epoch}"
                )
                leaving[k] = True
                continue
            run.history.append(EpochStats(
                epoch, float(loss_sum[k]) / n, val_loss, float(best_score[k]),
                bool(reversing[k]), int(best_batch[k]),
            ))
            if val_loss < run.best_val - cfg.min_improvement:
                run.best_val = val_loss
                run.best_params = [(w[k].copy(), b[k].copy()) for w, b in params]
                run.stall = 0
            else:
                run.stall += 1
                if cfg.patience > 0 and run.stall >= cfg.patience:
                    leaving[k] = True
                    continue
            orders[k] = run.rng.permutation(n)
        if leaving.any():
            staying = np.flatnonzero(~leaving)
            restack(staying, ids[staying])
    if shared:
        fork()

    return [run.error if run.error is not None
            else (Network(run.best_params), run.history) for run in runs]


def train(
    net: Network,
    train_data: Dataset,
    val_data: Dataset,
    cfg: TrainConfig,
    seed: int = 0,
) -> tuple[Network, list[EpochStats]]:
    """Train a copy of ``net``; returns the best-validation network and
    its history.

    This is :func:`train_stack` on a stack of one, keyed ``(seed, True)``,
    which describes the training; that network's error is raised here.

    Raises:
        ValueError: Data of another width than the network's input.
        RuntimeError: Non-finite training or validation loss.
    """
    result = train_stack([net], train_data, val_data, cfg, [(seed, True)])[0]
    if isinstance(result, RuntimeError):
        raise result
    return result


def encode(net: Network, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the bottleneck activations (the latent representation)
    and the reconstruction error, from one forward pass run block by
    block; each value equals the unblocked pass's bit for bit."""
    x = data.features
    latents = np.empty((x.shape[0], net.bottleneck_width))
    errors = np.empty(x.shape[0])
    _blocked_pass(net.params, x, errors, latents)
    return latents, errors


def reconstruction_error(net: Network, data: Dataset) -> np.ndarray:
    """Per-row mean smooth-L1 between the reconstruction and the input."""
    return encode(net, data)[1]
