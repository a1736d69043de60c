"""Batch-level output correction by Laplacian-adjusted maximum likelihood.

Given source probabilities Q (one row per sample) and a symmetric affinity
matrix W over the batch, the solver finds latent assignments Z that trade
closeness to Q (a KL term) against agreement between highly affine samples
(a Laplacian term), by iterating the multiplicative update

    z_ik  <-  q_ik * exp(sum_j w_ij z_jk)   (row-normalized)

until the assignments stop moving. Each iteration minimizes a convex upper
bound obtained by linearizing the concave Laplacian part at the current
iterate, so the objective

    sum_i KL(z_i || q_i) - sum_{i<j} (w_ij + w_ji) z_i . z_j

is non-increasing whenever W plus a unit diagonal is positive semidefinite
(the KL Hessian dominates a -1 eigenvalue floor). The Laplacian term counts
each unordered pair once, which is the convention the update's fixed point
actually minimizes.

Determinism contract: :func:`lame_correct` fixes one canonical layout per
batch and computes inside it with plain numpy/BLAS reductions (see its
docstring), so a solve is bitwise reproducible, exactly equivariant to
sample and class permutations up to exact ties, and does not depend on the
BLAS thread count. :func:`lame_objective` and :func:`cccp_step` are single
evaluations in the caller's layout and make no equivariance promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import PROB_FLOOR, canonical_row_order, sorted_rowsums

MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule: max-over-rows L1 change below ``tol`` or ``max_iter``."""

    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SolveDiagnostics:
    iterations: int
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    monotone: bool = True
    final_delta: float = float("inf")


def clamp_probs(Q: np.ndarray) -> np.ndarray:
    """Clamp probabilities to at least 1e-12 and renormalize the rows.

    The KL term is undefined against exact zeros; the clamp bounds the log
    terms without measurably moving any prediction. Row sums are
    value-sorted, so the result does not depend on the class order.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] < 1:
        raise ValueError("Q must be an (N, K) matrix of probability rows")
    if not np.all(np.isfinite(Q)) or np.any(Q < 0):
        raise ValueError("Q must be finite and nonnegative")
    Qc = np.clip(Q, PROB_FLOOR, None)
    return Qc / sorted_rowsums(Qc)[:, None]


def _check_pair(Z: np.ndarray, Q: np.ndarray, W: np.ndarray) -> None:
    if Z.shape != Q.shape:
        raise ValueError(f"Z and Q shapes differ: {Z.shape} vs {Q.shape}")
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] != Z.shape[0]:
        raise ValueError(f"W must be ({Z.shape[0]}, {Z.shape[0]}), got {W.shape}")


def lame_objective(Z: np.ndarray, Q: np.ndarray, W: np.ndarray) -> float:
    """KL-to-source plus Laplacian smoothness objective.

    Returns sum_i KL(z_i||q_i) minus the pairwise agreement term with each
    unordered pair counted once, which is the quantity the multiplicative
    update provably does not increase. Q must be strictly positive.
    """
    Z = np.asarray(Z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    W = np.asarray(W, dtype=float)
    _check_pair(Z, Q, W)
    if np.any(Q <= 0):
        raise ValueError("Q rows must be strictly positive (see clamp_probs)")
    return _objective_from_coupling(Z, np.log(Q), W @ Z)


def _objective_from_coupling(Z: np.ndarray, logQ: np.ndarray, E: np.ndarray) -> float:
    safe = np.where(Z > 0, Z, 1.0)
    kl_terms = np.where(Z > 0, Z * (np.log(safe) - logQ), 0.0)
    kl = float(kl_terms.sum())
    lap = 0.5 * float((Z * E).sum())
    return kl - lap


def cccp_step(Z: np.ndarray, Q: np.ndarray, W: np.ndarray) -> np.ndarray:
    """One multiplicative update; every output row lands on the simplex.

    Evaluated in log space with per-row log-sum-exp normalization so large
    affinities cannot overflow.
    """
    Z = np.asarray(Z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    W = np.asarray(W, dtype=float)
    _check_pair(Z, Q, W)
    with np.errstate(divide="ignore"):
        logQ = np.log(Q)
    return _step(logQ, W @ Z)


def _step(logQ: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The multiplicative update given the coupling E = W Z."""
    V = logQ + E
    V -= V.max(axis=1, keepdims=True)
    U = np.exp(V)
    return U / U.sum(axis=1, keepdims=True)


def _sample_order(Qc: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows ordered by Q, exact ties split by colour refinement on W: each
    round labels the rows by tie group and re-sorts them by (label, sorted
    (neighbour label, weight) pairs) until no group splits."""
    key, groups = Qc, 0
    while True:
        order = canonical_row_order(key)
        k = key[order].view(np.int64)  # ties are rows equal in every byte
        first = np.r_[True, np.any(k[1:] != k[:-1], axis=1)]
        if first.all() or first.sum() == groups:
            return order
        groups = first.sum()
        label = np.empty(len(order))
        label[order] = np.cumsum(first)
        L = np.broadcast_to(label, W.shape)
        pairs = np.lexsort((W, L), axis=1)
        key = np.hstack([label[:, None], np.take_along_axis(L, pairs, 1),
                         np.take_along_axis(W, pairs, 1)])


def lame_correct(
    Q: np.ndarray, W: np.ndarray, cfg: SolverConfig = SolverConfig()
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Correct a batch of source probabilities against an affinity matrix.

    Initializes at the (clamped) source probabilities and iterates
    :func:`cccp_step` until the largest per-row L1 change drops below
    ``cfg.tol`` or ``cfg.max_iter`` is reached. Non-convergence is reported
    through the diagnostics, never raised. The objective trace holds the
    objective at the initial point and after every iteration.

    The solve runs in a layout that depends only on the values of Q and W:
    classes ordered by their value-sorted columns of Q, samples by their Q
    rows, then by :func:`_sample_order`. Z is permuted back, so permuting
    samples or classes permutes Z bitwise, except among samples or classes
    that stay tied (e.g. exact duplicates, or equal Q rows on a regular
    kNN lattice): they keep input order, and permuting them may change Z.
    """
    Qc = clamp_probs(Q)
    W = np.asarray(W, dtype=float)
    _check_pair(Qc, Qc, W)
    classes = canonical_row_order(np.sort(Qc, axis=0).T)
    Qc = Qc[:, classes]
    samples = _sample_order(Qc, W)
    Qc = Qc[samples]
    W = W[np.ix_(samples, samples)]
    logQ = np.log(Qc)

    Z = Qc
    E = W @ Z
    trace = [_objective_from_coupling(Z, logQ, E)]
    iterations = 0
    delta = float("inf")
    converged = False
    for _ in range(cfg.max_iter):
        Z_next = _step(logQ, E)
        delta = float(np.abs(Z_next - Z).sum(axis=1).max())
        E = W @ Z_next
        trace.append(_objective_from_coupling(Z_next, logQ, E))
        Z = Z_next
        iterations += 1
        if delta < cfg.tol:
            converged = True
            break

    arr = np.asarray(trace)
    monotone = bool(np.all(np.diff(arr) <= MONOTONE_SLACK)) if len(arr) > 1 else True
    diag = SolveDiagnostics(
        iterations=iterations,
        objective_trace=trace,
        converged=converged,
        monotone=monotone,
        final_delta=delta,
    )
    Z = Z[np.ix_(np.argsort(samples), np.argsort(classes))]
    return Z, diag


def predictions(Z: np.ndarray) -> np.ndarray:
    """Per-row argmax class indices (first index wins ties)."""
    return np.argmax(np.asarray(Z), axis=1)
