"""Plain-numpy reference for the LAME path, used to check every batch.

Written apart from the library on purpose: distances from explicit
differences, ordinary numpy sums instead of value-sorted or exact ones, and
the coupling as a dense ``W @ Z``. Same stopping rule as the library's
defaults (largest per-row L1 change below ``tol``, at most ``max_iter``
updates), started from the clamped source probabilities.

The gate: every row finite, nonnegative and summing to 1 within
``SIMPLEX_TOL``; every entry within ``ZTOL`` of the reference; and every
prediction equal to the reference argmax wherever the reference's top-two
margin exceeds ``ZTOL``.
"""

from __future__ import annotations

import numpy as np

ZTOL = 1e-8
SIMPLEX_TOL = 1e-9
PROB_FLOOR = 1e-12
TOL = 1e-8
MAX_ITER = 100
_CHUNK = 64


def softmax(logits: np.ndarray) -> np.ndarray:
    u = np.exp(logits - logits.max(axis=1, keepdims=True))
    return u / u.sum(axis=1, keepdims=True)


def pool_mean(P: np.ndarray, assignment: np.ndarray, target_count: int) -> np.ndarray:
    """Mean of each target group's source columns, rows renormalized;
    columns assigned -1 are dropped."""
    member = np.zeros((P.shape[1], target_count))
    mapped = np.flatnonzero(assignment >= 0)
    member[mapped, assignment[mapped]] = 1.0
    pooled = (P @ member) / member.sum(axis=0)
    return pooled / pooled.sum(axis=1, keepdims=True)


def sq_distances(X: np.ndarray) -> np.ndarray:
    D = np.empty((len(X), len(X)))
    for s in range(0, len(X), _CHUNK):
        diff = X[s:s + _CHUNK, None, :] - X[None, :, :]
        D[s:s + _CHUNK] = np.einsum("ijd,ijd->ij", diff, diff)
    return D


def affinity(X: np.ndarray, kind: str, k: int) -> np.ndarray:
    """Symmetrized kNN indicator or RBF affinity with a zero diagonal;
    zero affinity when the batch is too small for a neighbour."""
    n = len(X)
    k = min(k, n - 1)
    if k < 1:
        return np.zeros((n, n))
    D = sq_distances(X)
    np.fill_diagonal(D, np.inf)
    if kind == "knn":
        nearest = np.argsort(D, axis=1, kind="stable")[:, :k]
        A = np.zeros((n, n))
        A[np.arange(n)[:, None], nearest] = 1.0
        return (A + A.T) / 2.0
    if kind == "rbf":
        sigma = np.sqrt(np.sort(D, axis=1)[:, k - 1]).mean()
        W = np.exp(-D / (2.0 * sigma * sigma))
        np.fill_diagonal(W, 0.0)
        return W
    raise ValueError(f"no reference for kernel {kind!r}")


def solve(Q: np.ndarray, W: np.ndarray, tol: float = TOL, max_iter: int = MAX_ITER):
    """Return (Z, iterations) of the multiplicative update."""
    Qc = np.clip(Q, PROB_FLOOR, None)
    Qc = Qc / Qc.sum(axis=1, keepdims=True)
    logQ = np.log(Qc)
    Z = Qc
    iterations = 0
    for iterations in range(1, max_iter + 1):
        V = logQ + W @ Z
        U = np.exp(V - V.max(axis=1, keepdims=True))
        Z_next = U / U.sum(axis=1, keepdims=True)
        delta = np.abs(Z_next - Z).sum(axis=1).max()
        Z = Z_next
        if delta < tol:
            break
    return Z, iterations


def confident(Z_ref: np.ndarray) -> np.ndarray:
    """Rows whose reference top-two margin exceeds ZTOL."""
    if Z_ref.shape[1] < 2:
        return np.ones(len(Z_ref), dtype=bool)
    top2 = np.sort(Z_ref, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] > ZTOL


def check(Z, Z_ref: np.ndarray, predictions=None) -> str | None:
    """Why a batch's corrected probabilities (and predictions) fail the
    gate, or None when they pass."""
    if Z is None:
        return "no corrected probabilities"
    Z = np.asarray(Z, dtype=float)
    if Z.shape != Z_ref.shape:
        return f"shape {Z.shape}, expected {Z_ref.shape}"
    if not np.all(np.isfinite(Z)):
        return "non-finite probability"
    if Z.min() < -SIMPLEX_TOL or np.abs(Z.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
        return "row off the simplex"
    err = float(np.abs(Z - Z_ref).max())
    if err > ZTOL:
        return f"max |Z - Z_ref| = {err:.3g} > {ZTOL:g}"
    if predictions is not None:
        return check_predictions(predictions, Z_ref)
    return None


def check_predictions(predictions, Z_ref: np.ndarray) -> str | None:
    """The gate for a caller that returns predictions only."""
    predictions = np.asarray(predictions)
    if predictions.shape != (len(Z_ref),):
        return f"{predictions.shape} predictions for {len(Z_ref)} rows"
    if ((predictions != Z_ref.argmax(axis=1)) & confident(Z_ref)).any():
        return "prediction differs from the reference argmax"
    return None
