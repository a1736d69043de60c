"""A small affine+linear classifier and the network-adaptation baselines.

The model standardizes features with running statistics, applies a
per-feature scale/bias pair (the batch-norm affine analog), then a linear
head and softmax. One adaptation step, :func:`adapt_step`, runs one
forward for its loss and analytic gradients, then one plain SGD update
(optional heavy-ball momentum) over the parameters that the chosen
partition's mask in :data:`PARTITIONS` selects. The heavy-ball state is a
tuple of arrays in :data:`PARAM_NAMES` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .streams import Batch

VAR_EPS = 1e-5

PARAM_NAMES = ("scale", "bias", "head_weights", "head_bias")
# partition name -> which of PARAM_NAMES an adaptation step updates
PARTITIONS = {
    "pre_transform_only": (True, True, False, False),
    "head_only": (False, False, True, True),
    "all": (True, True, True, True),
}


@dataclass(frozen=True)
class ToyModel:
    """Per-feature affine pre-transform plus a linear softmax head."""

    scale: np.ndarray        # (d,)
    bias: np.ndarray         # (d,)
    head_weights: np.ndarray  # (K, d)
    head_bias: np.ndarray    # (K,)

    def __post_init__(self):
        for name in PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite parameter {name}")

    @property
    def feature_dim(self) -> int:
        return self.scale.shape[0]

    @property
    def class_count(self) -> int:
        return self.head_bias.shape[0]


def fresh_model(head_weights: np.ndarray, head_bias: np.ndarray) -> ToyModel:
    head_weights = np.asarray(head_weights, dtype=float)
    head_bias = np.asarray(head_bias, dtype=float)
    d = head_weights.shape[1]
    return ToyModel(np.ones(d), np.zeros(d), head_weights, head_bias)


@dataclass(frozen=True)
class RunningStats:
    """Standardization statistics; blended toward batch moments online."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.var) < 0):
            raise ValueError("variances must be nonnegative")


@dataclass(frozen=True)
class AdaptConfig:
    """One adaptation step's knobs. The declared search grids are
    lr in {0.001, 0.01, 0.1}, momentum in {0, 0.9}, stat_momentum in
    {0, 0.1, 1}, partition over the three listed splits; other values are
    accepted for exploratory runs."""

    lr: float
    momentum: float = 0.0
    stat_momentum: float = 0.0
    partition: str = "pre_transform_only"

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.stat_momentum <= 1.0:
            raise ValueError("stat_momentum must be in [0, 1]")
        if self.partition not in PARTITIONS:
            raise ValueError(f"partition must be one of {tuple(PARTITIONS)}")


def blend_stats(stats: RunningStats, X: np.ndarray, stat_momentum: float) -> RunningStats:
    """New running stats after seeing a batch: (1-m)*old + m*batch."""
    if stat_momentum == 0.0:
        return stats
    bm = X.mean(axis=0)
    bv = X.var(axis=0)
    m = stat_momentum
    return RunningStats((1 - m) * stats.mean + m * bm, (1 - m) * stats.var + m * bv)


def _head(model: ToyModel, X: np.ndarray, stats: RunningStats):
    """Head scores plus the standardized and affine-transformed features."""
    xhat = (X - stats.mean) / np.sqrt(stats.var + VAR_EPS)
    h = model.scale * xhat + model.bias
    return h @ model.head_weights.T + model.head_bias, xhat, h


def _forward(model: ToyModel, X: np.ndarray, stats: RunningStats):
    U, xhat, h = _head(model, X, stats)
    U = U - U.max(axis=1, keepdims=True)
    Q = np.exp(U)
    Q /= Q.sum(axis=1, keepdims=True)
    return Q, xhat, h


def toy_scores(model: ToyModel, X: np.ndarray, stats: RunningStats) -> np.ndarray:
    """Raw head scores (pre-softmax) under the given statistics."""
    return _head(model, np.asarray(X, dtype=float), stats)[0]


def toy_predict(
    model: ToyModel, X: np.ndarray, stats: RunningStats, stat_momentum: float = 0.0
) -> tuple[np.ndarray, RunningStats]:
    """Class probabilities for a batch, plus the updated running stats.

    ``stat_momentum`` 0 standardizes with the given stats only, 1 with the
    current batch only, intermediate values blend smoothly. Zero batch
    variance is epsilon-floored, never an error.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"X must be (N, {model.feature_dim})")
    new_stats = blend_stats(stats, X, stat_momentum)
    Q, _, _ = _forward(model, X, new_stats)
    return Q, new_stats


def _safe_log(Q: np.ndarray) -> np.ndarray:
    return np.where(Q > 0, np.log(np.where(Q > 0, Q, 1.0)), 0.0)


def _entropy(Q: np.ndarray):
    """Per-row entropy H of the softmax rows Q, and its gradient w.r.t.
    the pre-softmax scores."""
    logQ = _safe_log(Q)
    H = -(Q * logQ).sum(axis=1)
    return H, -(Q * (logQ + H[:, None]))


def entropy_min_loss(model: ToyModel, X: np.ndarray, stats: RunningStats):
    """Mean prediction entropy and its gradient w.r.t. all parameters."""
    N = X.shape[0]
    Q, xhat, h = _forward(model, X, stats)
    H, dH = _entropy(Q)
    return float(H.mean()), _backprop(dH / N, model, xhat, h)


def pseudo_label_loss(model: ToyModel, X: np.ndarray, stats: RunningStats):
    """Cross-entropy against the model's own argmax labels."""
    N = X.shape[0]
    Q, xhat, h = _forward(model, X, stats)
    y = Q.argmax(axis=1)
    picked = np.clip(Q[np.arange(N), y], 1e-300, None)
    loss = float(-np.log(picked).mean())
    G = Q.copy()
    G[np.arange(N), y] -= 1.0
    G /= N
    return loss, _backprop(G, model, xhat, h)


def shot_im_loss(model: ToyModel, X: np.ndarray, stats: RunningStats):
    """Mean conditional entropy minus the entropy of the marginal."""
    N = X.shape[0]
    Q, xhat, h = _forward(model, X, stats)
    H, dH = _entropy(Q)
    qbar = Q.mean(axis=0)
    log_qbar = _safe_log(qbar)
    loss = float(H.mean() + (qbar * log_qbar).sum())
    inner = (Q * log_qbar[None, :]).sum(axis=1)
    G_marg = (Q * (log_qbar[None, :] - inner[:, None])) / N
    return loss, _backprop(dH / N + G_marg, model, xhat, h)


def _backprop(G: np.ndarray, model: ToyModel, xhat: np.ndarray, h: np.ndarray):
    gV = G.T @ h
    gb = G.sum(axis=0)
    gh = G @ model.head_weights
    ggamma = (gh * xhat).sum(axis=0)
    gbeta = gh.sum(axis=0)
    return ggamma, gbeta, gV, gb


def _sgd_step(
    model: ToyModel, grads, cfg: AdaptConfig, velocity: tuple[np.ndarray, ...] | None
) -> tuple[ToyModel, tuple[np.ndarray, ...]]:
    params = [getattr(model, name) for name in PARAM_NAMES]
    if velocity is None:
        velocity = tuple(np.zeros_like(p) for p in params)
    new_params, new_velocity = [], []
    for p, v, g, active in zip(params, velocity, grads, PARTITIONS[cfg.partition]):
        if active:
            v = cfg.momentum * v + g
            p = p - cfg.lr * v
        new_params.append(p)
        new_velocity.append(v)
    return ToyModel(*new_params), tuple(new_velocity)


def adapt_step(
    loss,
    model: ToyModel,
    X: np.ndarray,
    cfg: AdaptConfig,
    stats: RunningStats,
    velocity: tuple[np.ndarray, ...] | None = None,
) -> tuple[ToyModel, tuple[np.ndarray, ...]]:
    """One SGD step on ``loss`` (an entry of :data:`LOSS_FUNCTIONS`) over
    the configured partition. ``velocity`` is the heavy-ball state that the
    previous step returned; None starts it at zero."""
    _, grads = loss(model, np.asarray(X, dtype=float), stats)
    return _sgd_step(model, grads, cfg, velocity)


LOSS_FUNCTIONS = {
    "entropy_min": entropy_min_loss,
    "pseudo_label": pseudo_label_loss,
    "shot_im": shot_im_loss,
}

STEP_FUNCTIONS = {kind: partial(adapt_step, loss) for kind, loss in LOSS_FUNCTIONS.items()}

# the public names are the table's own entries, so wrapping one by name
# (as a tracer does) also reaches the harness's lookup through the table
entropy_min_step = STEP_FUNCTIONS["entropy_min"]
pseudo_label_step = STEP_FUNCTIONS["pseudo_label"]
shot_im_step = STEP_FUNCTIONS["shot_im"]


def collapse_demo(
    lr_values: Sequence[float],
    stream: "Sequence[Batch]",
    model: ToyModel,
    stats: RunningStats,
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Online entropy minimization per learning rate over a batch stream.

    For each lr, runs one adaptation step then re-predicts on every batch
    in order, recording the batch's mean prediction entropy and the
    cumulative online accuracy. Returns {lr: (entropy_series, accuracy_series)}.
    """
    batches = list(stream)
    if not batches:
        raise ValueError("empty stream")
    out: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for lr in lr_values:
        # plain heavy-ball on the affine pre-transform with the source
        # statistics throughout exposes the failure mode most clearly, and
        # lr=0 reproduces the frozen model exactly
        cfg = AdaptConfig(lr=float(lr), momentum=0.9)
        current = model
        velocity = None
        correct = 0
        total = 0
        ent_series = []
        acc_series = []
        for batch in batches:
            if batch.labels is None:
                raise ValueError("collapse demo needs labeled batches")
            X = batch.features
            current, velocity = entropy_min_step(current, X, cfg, stats, velocity)
            Q, _ = toy_predict(current, X, stats, 0.0)
            preds = Q.argmax(axis=1)
            correct += int((preds == batch.labels).sum())
            total += len(preds)
            logQ = _safe_log(Q)
            ent_series.append(float(-(Q * logQ).sum(axis=1).mean()))
            acc_series.append(correct / total)
        out[float(lr)] = (np.array(ent_series), np.array(acc_series))
    return out
