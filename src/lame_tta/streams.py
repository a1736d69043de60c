"""Evaluation streams: synthetic datasets, prior shifts, batch orderings,
and the binary embedding container.

A Dataset holds precomputed features and source-model scores; stream_order
picks and orders its rows according to a ScenarioSpec (i.i.d. or
class/task-grouped ordering, optional Zipf class imbalance, optional
superclass mapping), and make_stream cuts that order into batches.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .mapping import ClassMapping, pool_rows
from .numerics import softmax_rows
from .toy import VAR_EPS, RunningStats, ToyModel, fresh_model, toy_scores

MAGIC = b"LAME"
CONTAINER_VERSION = 1
FLAG_LABELS = 1
FLAG_TASKS = 2


class EmbeddingFormatError(ValueError):
    """Malformed embedding container; the message names the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")


@dataclass(frozen=True)
class Dataset:
    """Features, source-model scores, and labels for one evaluation set."""

    features: np.ndarray          # (N, d) float64
    logits: np.ndarray            # (N, K) float64
    labels: np.ndarray | None     # (N,) int64, < class_count
    class_count: int
    task_ids: np.ndarray | None = None

    def __post_init__(self):
        N = self.features.shape[0]
        if self.logits.shape != (N, self.class_count):
            raise ValueError("logits shape must be (N, class_count)")
        if self.labels is not None:
            if self.labels.shape != (N,):
                raise ValueError("labels length must match features")
            if N and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
                raise ValueError("labels must index valid classes")
        if self.task_ids is not None and self.task_ids.shape != (N,):
            raise ValueError("task_ids length must match features")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Batch:
    """One unit of online evaluation: features plus probability rows."""

    features: np.ndarray          # (n, d)
    probs: np.ndarray             # (n, K) rows on the simplex
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.probs.shape[0]:
            raise ValueError("features and probs row counts differ")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class SyntheticConfig:
    """Gaussian-mixture benchmark: K unit-scale class centers in d
    dimensions, within-class spread, and a likelihood shift made of a
    paired-coordinate rotation plus isotropic noise."""

    K: int = 8
    d: int = 16
    n_per_class: int = 600
    cluster_spread: float = 0.35
    rotation_angle: float = 0.5
    noise_sigma: float = 0.25

    def __post_init__(self):
        if self.K < 2 or self.d < 2 or self.n_per_class < 1:
            raise ValueError("need K >= 2, d >= 2, n_per_class >= 1")
        if self.cluster_spread < 0 or self.noise_sigma < 0:
            raise ValueError("spreads and sigmas must be nonnegative")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one evaluation stream."""

    source: SyntheticConfig | str          # config or embedding-file path
    sampling: str = "iid"                  # "iid" | "non_iid"
    prior_shift: float | None = None       # Zipf exponent, or None
    batch_size: int = 64
    seed: int = 0
    mapping: ClassMapping | None = None

    def __post_init__(self):
        if self.sampling not in ("iid", "non_iid"):
            raise ValueError("sampling must be 'iid' or 'non_iid'")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.prior_shift is not None and not self.prior_shift > 0:
            raise ValueError("zipf exponent must be positive")


def block_rotation(d: int, theta: float) -> np.ndarray:
    """Orthogonal matrix rotating each consecutive coordinate pair by theta."""
    R = np.eye(d)
    c, s = np.cos(theta), np.sin(theta)
    for a in range(0, d - 1, 2):
        R[a, a] = c
        R[a, a + 1] = -s
        R[a + 1, a] = s
        R[a + 1, a + 1] = c
    return R


def generate_synthetic(
    cfg: SyntheticConfig, seed: int
) -> tuple[Dataset, ToyModel, RunningStats]:
    """Draw the shifted Gaussian-mixture dataset plus its frozen source model.

    Class centers are random unit vectors; the source model is the
    Bayes-optimal linear classifier for the unshifted mixture (expressed in
    standardized coordinates, with the unshifted data moments as its
    stats). Features are then rotated and perturbed with isotropic noise,
    and the logits are the source model's scores on the shifted features.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((cfg.K, cfg.d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(cfg.K), cfg.n_per_class)
    X0 = means[labels] + cfg.cluster_spread * rng.standard_normal((len(labels), cfg.d))

    stats = RunningStats(mean=X0.mean(axis=0), var=X0.var(axis=0))
    s0 = np.sqrt(stats.var + VAR_EPS)
    mu_hat = (means - stats.mean) / s0
    dinv = s0**2 / cfg.cluster_spread**2
    V = mu_hat * dinv
    b = -0.5 * np.einsum("kd,d,kd->k", mu_hat, dinv, mu_hat)
    model = fresh_model(V, b)

    R = block_rotation(cfg.d, cfg.rotation_angle)
    X = X0 @ R.T + cfg.noise_sigma * rng.standard_normal(X0.shape)

    logits = toy_scores(model, X, stats)
    dataset = Dataset(features=X, logits=logits, labels=labels, class_count=cfg.K)
    return dataset, model, stats


# the toy2d source model's fit: training points, gradient steps, step size
# and ridge weight
TOY2D_N_TRAIN = 512
TOY2D_FIT_ITERS = 300
TOY2D_FIT_LR = 0.5
TOY2D_RIDGE = 0.1


def generate_toy2d(n: int, seed: int) -> tuple[Dataset, ToyModel, RunningStats]:
    """Two-class sinusoidal toy set with a source model fit on a narrow slab.

    Points are uniform on [-pi, pi] x [-2, 2] with label 1 iff
    x2 > sin(x1). The source model is a ridge-regularized logistic head fit
    on samples restricted to x1 in [-pi/2, pi/2], standardized with that
    restricted region's moments, so it is accurate there and degrades over
    the full range.

    The x1 range is one period of the sine, so the training slab is its
    central half. The frozen model scores about 0.95 on the slab and 0.82
    on pi/2 < |x1| <= pi, about 0.87 overall: informative everywhere, so a
    collapsed predictor (about 0.50 on two balanced classes) is a real
    loss. A wider range would add regions where the linear extrapolation
    runs against the sine; on pi < |x1| <= 2pi it scores about 0.34,
    below chance.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.uniform(-np.pi, np.pi, n), rng.uniform(-2.0, 2.0, n)]
    )
    y = (X[:, 1] > np.sin(X[:, 0])).astype(np.int64)

    Xt = np.column_stack(
        [rng.uniform(-np.pi / 2, np.pi / 2, TOY2D_N_TRAIN),
         rng.uniform(-2.0, 2.0, TOY2D_N_TRAIN)]
    )
    yt = (Xt[:, 1] > np.sin(Xt[:, 0])).astype(np.int64)
    stats = RunningStats(mean=Xt.mean(axis=0), var=Xt.var(axis=0))
    xh = (Xt - stats.mean) / np.sqrt(stats.var + VAR_EPS)
    w = np.zeros(2)
    c = 0.0
    for _ in range(TOY2D_FIT_ITERS):
        z = xh @ w + c
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - yt
        w -= TOY2D_FIT_LR * ((xh * g[:, None]).mean(axis=0) + TOY2D_RIDGE * w)
        c -= TOY2D_FIT_LR * g.mean()
    model = fresh_model(np.vstack([np.zeros(2), w]), np.array([0.0, c]))

    logits = toy_scores(model, X, stats)
    dataset = Dataset(features=X, logits=logits, labels=y, class_count=2)
    return dataset, model, stats


def load_source(
    source: SyntheticConfig | str, seed: int
) -> tuple[Dataset, tuple[ToyModel, RunningStats] | None]:
    """The dataset a scenario's source names, plus the frozen source model
    and its statistics for a synthetic source (None for a container)."""
    if isinstance(source, SyntheticConfig):
        data, model, stats = generate_synthetic(source, seed)
        return data, (model, stats)
    return load_embeddings(source), None


def source_probs(logits: np.ndarray, mapping: ClassMapping | None) -> np.ndarray:
    """Probability rows of source-model scores: the softmax, pooled through
    the mapping when there is one."""
    probs = softmax_rows(logits)
    return probs if mapping is None else pool_rows(probs, mapping)


def zipf_priors(K: int, s: float, seed=None) -> np.ndarray:
    """Class proportions p_k proportional to rank^(-s).

    Ranks 1..K are assigned to classes by a seed-determined random
    permutation; ``seed=None`` keeps the identity assignment (class k gets
    rank k+1).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not s > 0:
        raise ValueError("zipf exponent must be positive")
    weights = np.arange(1, K + 1, dtype=float) ** (-s)
    p = weights / weights.sum()
    if seed is None:
        return p
    ranks = np.random.default_rng(seed).permutation(K)
    return p[ranks]


def _zipf_subsample(labels: np.ndarray, priors: np.ndarray, rng) -> np.ndarray:
    """Per-class subsample (without replacement) matching the priors.

    The total is the largest feasible count given per-class availability;
    classes with no samples, and classes whose target count rounds to zero,
    are dropped with a warning and the priors renormalized over the
    survivors.
    """
    K = len(priors)
    avail = np.bincount(labels, minlength=K).astype(float)
    active = np.ones(K, dtype=bool)
    zeroed = avail == 0
    while True:
        if zeroed.any():
            warnings.warn(
                f"class(es) {np.flatnonzero(zeroed).tolist()} have no samples after "
                "prior-shift subsampling; dropped and priors renormalized",
                stacklevel=4,
            )
            active &= ~zeroed
            if not active.any():
                raise ValueError("prior shift removed every class")
        pa = priors * active
        pa = pa / pa.sum()
        with np.errstate(divide="ignore"):
            feasible = np.where(active & (pa > 0), avail / np.where(pa > 0, pa, 1.0), np.inf)
        M = int(np.floor(feasible.min()))
        counts = np.where(active, np.minimum(np.round(M * pa), avail).astype(int), 0)
        zeroed = active & (counts == 0)
        if not zeroed.any():
            break
    keep = []
    for k in range(K):
        if counts[k] == 0:
            continue
        idx_k = np.flatnonzero(labels == k)
        keep.append(rng.choice(idx_k, size=counts[k], replace=False))
    return np.concatenate(keep)


def _ordered_indices(
    sampling: str, group_key: np.ndarray | None, idx: np.ndarray, rng
) -> np.ndarray:
    if sampling == "iid":
        return idx[rng.permutation(len(idx))]
    if group_key is None:
        raise ValueError("non-iid ordering needs labels or task ids for grouping")
    key = group_key[idx]
    groups = [idx[key == v] for v in np.unique(key)]
    groups = [g[rng.permutation(len(g))] for g in groups]
    order = rng.permutation(len(groups))
    return np.concatenate([groups[o] for o in order])


def _mapped_labels(
    data: Dataset, spec: ScenarioSpec
) -> tuple[ClassMapping | None, np.ndarray | None]:
    """The scenario's mapping over the dataset's classes, and the labels
    through it (-1 for an unmapped class)."""
    m = None if spec.mapping is None else spec.mapping.over(data.class_count)
    return m, data.labels if m is None or data.labels is None else m.map_labels(data.labels)


def stream_order(data: Dataset, spec: ScenarioSpec) -> np.ndarray:
    """The dataset rows of the stream a scenario describes, in order.

    Drops labeled samples whose class the mapping leaves unmapped,
    subsamples per class to Zipf proportions when a prior shift is
    configured, and orders what is left (seeded global shuffle, or grouped
    by task, else by class, for non-i.i.d. streams).
    """
    ss = np.random.SeedSequence(spec.seed)
    seed_priors, seed_subsample, seed_order = ss.spawn(3)

    idx = np.arange(len(data))
    m, labels = _mapped_labels(data, spec)
    if m is not None and labels is not None:
        dropped = int((labels < 0).sum())
        if dropped:
            warnings.warn(
                f"dropping {dropped} samples whose source class is unmapped",
                stacklevel=3,
            )
        idx = idx[labels[idx] >= 0]

    if spec.prior_shift is not None:
        if labels is None:
            raise ValueError("prior shift needs a labeled dataset")
        K_eff = m.target_count if m is not None else data.class_count
        priors = zipf_priors(K_eff, spec.prior_shift, seed_priors)
        idx = idx[_zipf_subsample(labels[idx], priors, np.random.default_rng(seed_subsample))]

    group_key = data.task_ids if data.task_ids is not None else labels
    return _ordered_indices(spec.sampling, group_key, idx, np.random.default_rng(seed_order))


def batch_slices(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` rows over ``n`` rows; the final short
    batch is kept."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def make_stream(data: Dataset, spec: ScenarioSpec) -> list[Batch]:
    """Cut the :func:`stream_order` into :func:`batch_slices` of
    ``batch_size``, with the source probabilities (softmax, pooled through
    the mapping when present) and the labels (through the mapping) of its
    rows."""
    order = stream_order(data, spec)
    m, labels = _mapped_labels(data, spec)
    probs = source_probs(data.logits[order], m)
    out_labels = labels[order] if labels is not None else None
    return [
        Batch(
            features=data.features[order[sl]],
            probs=probs[sl],
            labels=out_labels[sl] if out_labels is not None else None,
        )
        for sl in batch_slices(len(order), spec.batch_size)
    ]


# ---------------------------------------------------------------------------
# Embedding container (binary, little-endian):
#   magic 'LAME' | u32 version=1 | u64 N | u32 d | u32 K | u32 flags
#   then N records: d*f32 features, K*f32 logits, u32 label (flag bit 0),
#   u32 task id (flag bit 1). Values are widened to float64 on load.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIQIII")


def _record_dtype(d: int, K: int, has_labels: bool, has_tasks: bool) -> np.dtype:
    fields = [("features", "<f4", (d,)), ("logits", "<f4", (K,))]
    if has_labels:
        fields.append(("label", "<u4"))
    if has_tasks:
        fields.append(("task", "<u4"))
    return np.dtype(fields)


def _field(name: str, values: np.ndarray, dtype: str) -> np.ndarray:
    """``values`` cast to a container field's ``dtype``. A finite value
    outside the dtype's range (a float the cast would turn into inf, an
    integer it would wrap) raises ValueError naming the field and its
    record; NaN and inf are written as they are."""
    info = np.finfo(dtype) if np.dtype(dtype).kind == "f" else np.iinfo(dtype)
    # two reductions clear the common case without an array of flags
    if values.size and not (info.min <= values.min() and values.max() <= info.max):
        bad = np.isfinite(values) & ((values < info.min) | (values > info.max))
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise ValueError(f"{name} value {values[at]} at record {at[0]} does not fit "
                             f"the container's {np.dtype(dtype).name}")
    return values.astype(dtype)


def save_embeddings(data: Dataset, path) -> None:
    """Write the dataset in the embedding container format (f32 payload).

    Every field is checked before any byte is written (see :func:`_field`).
    """
    has_labels, has_tasks = data.labels is not None, data.task_ids is not None
    flags = (FLAG_LABELS if has_labels else 0) | (FLAG_TASKS if has_tasks else 0)
    N, d = data.features.shape
    K = data.class_count
    rec = np.zeros(N, dtype=_record_dtype(d, K, has_labels, has_tasks))
    rec["features"] = _field("features", data.features, "<f4")
    rec["logits"] = _field("logits", data.logits, "<f4")
    if has_labels:
        rec["label"] = _field("label", data.labels, "<u4")
    if has_tasks:
        rec["task"] = _field("task id", data.task_ids, "<u4")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, CONTAINER_VERSION, N, d, K, flags))
        fh.write(rec.tobytes())


def load_embeddings(path) -> Dataset:
    """Read and validate an embedding container; errors name byte offsets."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise EmbeddingFormatError(
            f"file too short for header: {len(blob)} < {_HEADER.size} bytes", 0
        )
    magic, version, N, d, K, flags = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise EmbeddingFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    if version != CONTAINER_VERSION:
        raise EmbeddingFormatError(f"unsupported version {version}", 4)
    if d < 1 or K < 1:
        raise EmbeddingFormatError(f"invalid dimensions d={d}, K={K}", 16)
    has_labels = bool(flags & FLAG_LABELS)
    has_tasks = bool(flags & FLAG_TASKS)
    if flags & ~(FLAG_LABELS | FLAG_TASKS):
        raise EmbeddingFormatError(f"unknown flag bits in {flags:#x}", 20)

    dtype = _record_dtype(d, K, has_labels, has_tasks)
    rec_size = dtype.itemsize
    expected = N * rec_size
    actual = len(blob) - _HEADER.size
    if actual != expected:
        raise EmbeddingFormatError(
            f"truncated or oversized payload: expected {expected} bytes for "
            f"{N} records, found {actual}",
            _HEADER.size + min(actual, expected),
        )

    rec = np.frombuffer(blob, dtype=dtype, count=N, offset=_HEADER.size)

    features = rec["features"].astype(np.float64)
    logits = rec["logits"].astype(np.float64)
    for name, arr, base_off in (("features", features, 0), ("logits", logits, 4 * d)):
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            i, j = bad[0]
            off = _HEADER.size + int(i) * rec_size + base_off + 4 * int(j)
            raise EmbeddingFormatError(f"non-finite {name} value at record {i}", off)
    labels = rec["label"].astype(np.int64) if has_labels else None
    if labels is not None and len(labels) and labels.max() >= K:
        i = int(np.argmax(labels >= K))
        off = _HEADER.size + i * rec_size + 4 * (d + K)
        raise EmbeddingFormatError(
            f"label {int(labels[i])} out of range for K={K} at record {i}", off
        )
    task_ids = rec["task"].astype(np.int64) if has_tasks else None
    return Dataset(features, logits, labels, int(K), task_ids)
