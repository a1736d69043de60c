"""Shared numeric primitives: the canonical row layout, a row-wise stable
softmax, the 0 log 0 := 0 logarithm and squared distances between feature
rows.

Everything here runs at 64-bit precision. Reduction policy: batch-wide
work runs once in the canonical row layout of :func:`canonical_row_order`
with plain numpy/BLAS sums and products (:func:`in_canonical_layout`) and
is permuted back, so the determinism contract is paid once per batch. Scalar
sums over one vector (the rbf bandwidth) use ``math.fsum``. Value-sorted
row sums (:func:`sorted_rowsums`) remain only where a class permutation
must commute with a row reduction before any canonical layout exists:
:func:`softmax_rows`, ``solver.clamp_probs`` and ``mapping.pool_rows``.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


def sorted_rowsums(x: np.ndarray) -> np.ndarray:
    """Per-row sums over value-sorted operands along the last axis, so each
    sum is invariant to the order of its operands."""
    return np.add.reduce(np.sort(x, axis=-1), axis=-1)


def canonical_row_order(M: np.ndarray) -> np.ndarray:
    """Indices that sort the rows of a 2-D array by their bytes: not a
    numeric order, but one that depends only on the row contents. Rows
    equal in every byte keep their input order."""
    M = np.ascontiguousarray(M)
    if M.shape[1] == 0:
        return np.arange(M.shape[0])
    rows = M.view(np.dtype((np.void, M.itemsize * M.shape[1]))).ravel()
    return np.argsort(rows, kind="stable")


def inverse_permutation(order: np.ndarray) -> np.ndarray:
    """The permutation that undoes ``order``: ``x[order][inv] == x``."""
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    return inv


def in_canonical_layout(build, X: np.ndarray, *args) -> np.ndarray:
    """``build`` on X's rows in :func:`canonical_row_order`, its (N, N)
    result permuted back: permuting distinct rows of X permutes it bitwise."""
    order = canonical_row_order(X)
    inv = inverse_permutation(order)
    return build(X[order], *args).take(inv, 0).take(inv, 1)


def safe_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log with 0 where x is not positive, so ``x * safe_log(x)``
    takes 0 log 0 := 0."""
    return np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), 0.0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of an (N, K) score matrix."""
    z = np.ascontiguousarray(logits, dtype=float)
    if z.ndim != 2 or z.shape[1] < 1:
        raise ValueError("softmax_rows expects a 2-D (N, K) array")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax_rows input must be finite")
    u = np.exp(z - z.max(axis=1, keepdims=True))
    return u / sorted_rowsums(u)[:, None]


def sq_distances(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of X, in X's own row
    layout, from a plain ``X @ X.T``, entries clipped at 0 against
    Gram-trick rounding. Run :func:`in_canonical_layout`, permuting
    distinct rows of X permutes it bitwise.

    It is exactly symmetric with an exactly zero diagonal, with no repair
    pass: numpy computes the Gram G = X @ X.T of a C-contiguous X as one
    triangle (BLAS ``syrk``) copied onto the other, so G_ij == G_ji; then
    E_ij = (sq_i + sq_j) - 2 G_ij equals E_ji, since float addition
    commutes, and E_ii = 2 sq_i - 2 G_ii is 0, since sq is G's own
    diagonal."""
    # D = E with E_ij = (sq_i + sq_j) - 2 G_ij, evaluated in that order in
    # two N x N buffers and written over G's, so sq is a copy
    D = X @ X.T
    sq = np.diagonal(D).copy()
    S = np.add(sq[:, None], sq[None, :])
    np.subtract(S, np.multiply(D, 2.0, out=D), out=D)
    np.clip(D, 0.0, None, out=D)
    return D
