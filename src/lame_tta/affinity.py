"""Affinity matrix construction over a batch's feature rows.

Three kernels: a k-nearest-neighbour indicator (symmetrized), a cosine
linear kernel, and an RBF kernel whose bandwidth is the mean
distance of each point to its k-th neighbour. All of them exclude
self-affinity (zero diagonal) and return exactly symmetric matrices.
:meth:`KernelSpec.build` is the one way to build a batch's W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import in_canonical_layout, sq_distances

SYMMETRY_ATOL = 1e-12

KERNEL_KINDS = ("knn", "linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Which affinity to build. ``k`` is the neighbour count for the knn
    kernel and the bandwidth-defining neighbour for the rbf kernel; the
    linear kernel ignores it."""

    kind: str = "knn"
    k: int = 5

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def build(self, features: np.ndarray) -> np.ndarray:
        """The affinity of one batch, with k clipped to N - 1, built
        :func:`~lame_tta.numerics.in_canonical_layout` of its rows. A batch
        of fewer than two rows gets the all-zero W (the solve then returns
        the source probabilities)."""
        n = len(features)
        if n < 2:
            return np.zeros((n, n))
        X = _check_features(features)
        if self.kind == "linear":
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            if np.any(norms == 0):
                raise ValueError("cannot L2-normalize a zero feature row")
            return in_canonical_layout(_cosine, X / norms)
        return in_canonical_layout(_knn if self.kind == "knn" else _rbf, X, min(self.k, n - 1))


def validate_affinity(W: np.ndarray) -> None:
    """Raise unless W is square, finite, symmetric within 1e-12 and
    zero-diagonal. Negative weights (from the linear kernel) are allowed."""
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("affinity matrix must be square")
    # a NaN or inf entry makes the largest asymmetry NaN or inf, so one
    # test catches both
    with np.errstate(invalid="ignore"):
        asymmetry = np.subtract(W, W.T)
    np.abs(asymmetry, out=asymmetry)
    if not np.maximum.reduce(asymmetry, axis=None, initial=0.0) <= SYMMETRY_ATOL:
        if not np.all(np.isfinite(W)):
            raise ValueError("affinity entries must be finite")
        raise ValueError("affinity matrix must be symmetric within 1e-12")
    if np.diagonal(W).any():
        raise ValueError("affinity matrix must have a zero diagonal")


def _check_features(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("affinity kernels need an (N, d) matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    # a squared distance is at most 4 max ||x_i||^2: past the float range,
    # every kernel would build W from overflowed products
    with np.errstate(over="ignore"):
        reach = 4.0 * np.max(np.einsum("ij,ij->i", X, X))
    if not math.isfinite(reach):
        raise ValueError("features too large: squared distances overflow")
    return X


def _knn(X: np.ndarray, k: int) -> np.ndarray:
    """Symmetrized k-nearest-neighbour indicator affinity.

    The directed indicator a_ij = 1 iff j is among the k nearest
    neighbours of i (self excluded, Euclidean distance, distance ties
    broken by the :func:`~lame_tta.numerics.canonical_row_order` of the
    candidates, so permuting the rows permutes W); the returned matrix is
    (A + A^T)/2, so entries are 0, 0.5 (one-sided) or 1 (mutual
    neighbours).
    """
    # in the canonical layout, a stable argsort breaks ties canonically
    N = X.shape[0]
    D = sq_distances(X)
    np.fill_diagonal(D, np.inf)
    nearest = np.argsort(D, axis=1, kind="stable")[:, :k]
    A = np.zeros((N, N))
    A[np.arange(N)[:, None], nearest] = 1.0
    return (A + A.T) / 2.0


def _cosine(X: np.ndarray) -> np.ndarray:
    """Cosine affinity w_ij = x_i^T x_j in [-1, 1] of L2-normalized rows,
    diagonal zeroed; bitwise permutation-equivariant on distinct rows."""
    W = X @ X.T
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    return W


def _rbf(X: np.ndarray, k: int) -> np.ndarray:
    """Gaussian affinity with bandwidth set from k-th neighbour distances.

    sigma is the mean over points of the Euclidean distance to the k-th
    nearest neighbour; w_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) off the
    diagonal and 0 on it. The distance matrix, its diagonal set to inf,
    gives the k-th distances (``np.partition`` works on a copy) and is then
    turned into W in place; coincident points everywhere (sigma = 0) are
    an error.
    """
    N = X.shape[0]
    D = sq_distances(X)
    np.fill_diagonal(D, np.inf)
    kth_sq = np.partition(D, k - 1, axis=1)[:, k - 1]
    sigma = math.fsum(np.sqrt(kth_sq)) / N
    if sigma == 0.0:
        raise ValueError("all points coincide; rbf bandwidth is zero")
    W = np.exp(np.divide(D, -(2.0 * sigma * sigma), out=D), out=D)
    np.fill_diagonal(W, 0.0)  # exp(-inf) already is, unless 2 sigma^2 overflows
    return W
