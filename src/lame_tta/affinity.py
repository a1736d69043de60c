"""Affinity matrix construction over a batch's feature rows.

Three kernels: a k-nearest-neighbour indicator (symmetrized), a plain or
cosine linear kernel, and an RBF kernel whose bandwidth is the mean
distance of each point to its k-th neighbour. All of them exclude
self-affinity (zero diagonal) and return exactly symmetric matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import canonical_gram, exact_sum, pairwise_sq_distances

SYMMETRY_ATOL = 1e-12

KERNEL_KINDS = ("knn", "linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Which affinity to build. ``k`` is the neighbour count for the knn
    kernel and the bandwidth-defining neighbour for the rbf kernel; the
    linear kernel ignores it. ``normalize_features`` defaults to on for
    the linear kernel (cosine affinity) and off otherwise."""

    kind: str = "knn"
    k: int = 5
    normalize_features: bool | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def build(self, features: np.ndarray) -> np.ndarray:
        default_normalize = self.kind == "linear"
        normalize = (
            default_normalize if self.normalize_features is None else self.normalize_features
        )
        if self.kind == "linear":
            return linear_affinity(features, normalize=normalize)
        X = np.asarray(features, dtype=float)
        if normalize:
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            if np.any(norms == 0):
                raise ValueError("cannot L2-normalize a zero feature row")
            X = X / norms
        if self.kind == "knn":
            return knn_affinity(X, self.k)
        return rbf_affinity(X, self.k)


def batch_affinity(kernel: KernelSpec, features: np.ndarray) -> np.ndarray:
    """The affinity of one batch: ``kernel`` with k clipped to N - 1, and an
    all-zero W (the solve then returns the source probabilities) when the
    batch has fewer than two rows."""
    n = len(features)
    if n < 2:
        return np.zeros((n, n))
    if kernel.k > n - 1:
        kernel = replace(kernel, k=n - 1)
    return kernel.build(features)


def validate_affinity(W: np.ndarray, require_nonnegative: bool = True) -> None:
    """Raise unless W is square, symmetric within 1e-12, zero-diagonal."""
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("affinity matrix must be square")
    if np.max(np.abs(W - W.T), initial=0.0) > SYMMETRY_ATOL:
        raise ValueError("affinity matrix must be symmetric within 1e-12")
    if np.any(np.diagonal(W) != 0.0):
        raise ValueError("affinity matrix must have a zero diagonal")
    if require_nonnegative and np.any(W < 0):
        raise ValueError("affinity entries must be nonnegative")


def _check_features(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("affinity kernels need an (N, d) matrix with N >= 2")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return X


def knn_affinity(features: np.ndarray, k: int) -> np.ndarray:
    """Symmetrized k-nearest-neighbour indicator affinity.

    The directed indicator a_ij = 1 iff j is among the k nearest
    neighbours of i (self excluded, Euclidean distance, distance ties
    broken by lowest index); the returned matrix is (A + A^T)/2, so
    entries are 0, 0.5 (one-sided) or 1 (mutual neighbours).
    """
    X = _check_features(features)
    N = X.shape[0]
    if not 1 <= k <= N - 1:
        raise ValueError(f"k={k} out of range for N={N} (need 1 <= k <= N-1)")
    D = pairwise_sq_distances(X)
    np.fill_diagonal(D, np.inf)
    nearest = np.argsort(D, axis=1, kind="stable")[:, :k]
    A = np.zeros((N, N))
    A[np.arange(N)[:, None], nearest] = 1.0
    return (A + A.T) / 2.0


def linear_affinity(features: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Dot-product affinity w_ij = phi(x_i)^T phi(x_j), diagonal zeroed.

    With ``normalize`` the rows are L2-normalized first, giving cosine
    affinities in [-1, 1]; unnormalized dot products are allowed but can
    produce large exponents downstream. The product is
    :func:`~lame_tta.numerics.canonical_gram`, so W is bitwise
    permutation-equivariant.
    """
    X = _check_features(features)
    if normalize:
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot L2-normalize a zero feature row")
        X = X / norms
    W = canonical_gram(X)
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    return W


def rbf_affinity(features: np.ndarray, k: int) -> np.ndarray:
    """Gaussian affinity with bandwidth set from k-th neighbour distances.

    sigma is the mean over points of the Euclidean distance to the k-th
    nearest neighbour; w_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).
    """
    X = _check_features(features)
    N = X.shape[0]
    if not 1 <= k <= N - 1:
        raise ValueError(f"k={k} out of range for N={N} (need 1 <= k <= N-1)")
    D = pairwise_sq_distances(X)
    offdiag = D.copy()
    np.fill_diagonal(offdiag, np.inf)
    kth_sq = np.partition(offdiag, k - 1, axis=1)[:, k - 1]
    sigma = exact_sum(np.sqrt(kth_sq)) / N
    if sigma == 0.0:
        raise ValueError("all points coincide; rbf bandwidth is zero")
    W = np.exp(-D / (2.0 * sigma * sigma))
    np.fill_diagonal(W, 0.0)
    return W


@dataclass(frozen=True)
class PsdShift:
    """Result of a positive-semidefiniteness check/repair.

    ``matrix`` keeps the zero diagonal; ``diag_offset`` is the constant
    that must be added to the diagonal to make it PSD (0 when it already
    is). ``matrix + diag_offset * I`` is PSD up to estimation error.
    """

    matrix: np.ndarray
    lambda_min: float
    diag_offset: float


def psd_shift(W: np.ndarray, exact_below: int = 256) -> PsdShift:
    """Estimate the minimum eigenvalue of W and report the diagonal shift
    that restores positive semidefiniteness.

    Exact (dense eigendecomposition) for N <= ``exact_below``; power
    iteration on a Gershgorin-shifted matrix otherwise.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("psd_shift expects a square matrix")
    if np.max(np.abs(W - W.T), initial=0.0) > SYMMETRY_ATOL:
        raise ValueError("psd_shift expects a symmetric matrix")
    N = W.shape[0]
    if N <= exact_below:
        lam = float(np.linalg.eigvalsh(W)[0])
    else:
        lam = _lambda_min_power(W)
    return PsdShift(matrix=W, lambda_min=lam, diag_offset=max(0.0, -lam))


def _lambda_min_power(W: np.ndarray, iters: int = 2000, rtol: float = 1e-15) -> float:
    # lambda_min(W) = g - lambda_max(g I - W), with g an infinity-norm bound
    # so that g I - W is PSD and plain power iteration applies.
    N = W.shape[0]
    g = float(np.max(np.sum(np.abs(W), axis=1)))
    if g == 0.0:
        return 0.0
    v = np.full(N, 1.0 / np.sqrt(N))
    v += 1e-6 * np.cos(np.arange(N))  # deterministic symmetry breaker
    v /= np.linalg.norm(v)
    prev = 0.0
    ray = 0.0
    for it in range(iters):
        u = g * v - W @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return g
        v = u / nu
        ray = float(v @ (g * v - W @ v))
        if it >= 100 and abs(ray - prev) <= rtol * max(1.0, abs(ray)):
            break
        prev = ray
    return g - ray
