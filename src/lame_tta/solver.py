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
BLAS thread count. The loop holds two iterate buffers, allocated once per
call; the old iterate's buffer is the scratch of each step's delta and
objective. The objective sums KL as z (log z - log q) and takes the
0 log 0 := 0 form only when Z holds exact zeros. :func:`lame_objective` and
:func:`cccp_step` are single evaluations in the caller's layout and make
no equivariance promise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import validate_affinity
from .numerics import (PROB_FLOOR, canonical_row_order, inverse_permutation, safe_log,
                       sorted_rowsums)

MONOTONE_SLACK = 1e-9
# stopping rule: the largest per-row L1 change below TOL, or MAX_ITER updates
TOL = 1e-8
MAX_ITER = 100


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
    Q = np.ascontiguousarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] < 1:
        raise ValueError("Q must be an (N, K) matrix of probability rows")
    lo = np.minimum.reduce(Q, axis=None, initial=0.0)  # NaN fails both tests
    if not (lo >= 0.0 and np.maximum.reduce(Q, axis=None, initial=0.0) < np.inf):
        raise ValueError("Q must be finite and nonnegative")
    Qc = np.maximum(Q, PROB_FLOOR)
    return np.divide(Qc, sorted_rowsums(Qc)[:, None], out=Qc)


def _check_pair(Z: np.ndarray, Q: np.ndarray, W: np.ndarray) -> None:
    if Z.shape != Q.shape:
        raise ValueError(f"Z and Q shapes differ: {Z.shape} vs {Q.shape}")
    _check_square(W, Z.shape[0])


def _check_square(W: np.ndarray, n: int) -> None:
    if W.shape != (n, n):
        raise ValueError(f"W must be ({n}, {n}), got {W.shape}")


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
    with np.errstate(divide="ignore", invalid="ignore"):
        return _objective_from_coupling(Z, np.log(Q), W @ Z)


def _objective_from_coupling(
    Z: np.ndarray, logQ: np.ndarray, E: np.ndarray, work: np.ndarray | None = None
) -> float:
    """The objective given the coupling E = W Z; ``work`` is an optional
    scratch array of Z's shape. Callers silence divide/invalid warnings.

    KL is taken as Z (log Z - log Q) directly. Where Z holds exact zeros
    that sum is NaN (0 * -inf), and the 0 log 0 := 0 formula below gives
    the value; elsewhere both formulas agree bitwise.
    """
    T = np.empty_like(Z) if work is None else work
    np.log(Z, out=T)
    np.subtract(T, logQ, out=T)
    np.multiply(T, Z, out=T)
    kl = float(np.add.reduce(T, axis=None))
    if kl != kl:
        kl = float((Z * (safe_log(Z) - logQ)).sum())
    np.multiply(Z, E, out=T)
    lap = 0.5 * float(np.add.reduce(T, axis=None))
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


def _step(
    logQ: np.ndarray, E: np.ndarray, out: np.ndarray | None = None,
    rowbuf: np.ndarray | None = None,
) -> np.ndarray:
    """The multiplicative update given the coupling E = W Z, written into
    ``out`` when given; ``rowbuf`` is optional (N, 1) scratch."""
    V = np.add(logQ, E, out=out)
    m = np.maximum.reduce(V, axis=1, keepdims=True, out=rowbuf)
    np.subtract(V, m, out=V)
    np.exp(V, out=V)
    return np.divide(V, np.add.reduce(V, axis=1, keepdims=True, out=m), out=V)


def _sample_order(Qc: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows ordered by Q, exact ties split by colour refinement on W: each
    round labels the rows by tie group and re-sorts them by (label, sorted
    (neighbour label, weight) pairs) until no group splits."""
    key, groups = Qc, 0
    while True:
        order = canonical_row_order(key)
        k = key[order].view(np.int64)  # ties are rows equal in every byte
        first = np.ones(len(order), dtype=bool)
        np.any(k[1:] != k[:-1], axis=1, out=first[1:])
        if first.all() or first.sum() == groups:
            return order
        groups = first.sum()
        label = np.empty(len(order))
        label[order] = np.cumsum(first)
        L = np.broadcast_to(label, W.shape)
        pairs = np.lexsort((W, L), axis=1)
        key = np.hstack([label[:, None], np.take_along_axis(L, pairs, 1),
                         np.take_along_axis(W, pairs, 1)])


def lame_correct(Q: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, SolveDiagnostics]:
    """Correct a batch of source probabilities against an affinity matrix.

    Initializes at the (clamped) source probabilities and iterates
    :func:`cccp_step` until the largest per-row L1 change drops below
    :data:`TOL` or :data:`MAX_ITER` updates are made. Non-convergence is
    reported through the diagnostics, never raised. The objective trace
    holds the objective at the initial point and after every iteration.

    The solve runs in a layout that depends only on the values of Q and W:
    classes ordered by their value-sorted columns of Q, samples by their Q
    rows, then by :func:`_sample_order`. Z is permuted back, so permuting
    samples or classes permutes Z bitwise, except among samples or classes
    that stay tied (e.g. exact duplicates, or equal Q rows on a regular
    kNN lattice): they keep input order, and permuting them may change Z.

    W must pass :func:`~lame_tta.affinity.validate_affinity` (square,
    finite, symmetric, zero diagonal; negative weights are allowed), and
    the batch must hold at least one sample; anything else raises
    ``ValueError``.
    """
    Qc = clamp_probs(Q)
    if len(Qc) == 0:
        raise ValueError("cannot correct an empty batch (N=0)")
    W = np.asarray(W, dtype=float)
    validate_affinity(W)
    _check_square(W, len(Qc))
    columns = Qc.T.copy()  # C-contiguous: each class's values sort in place
    columns.sort(axis=1)
    classes = canonical_row_order(columns)
    Qc = Qc[:, classes]
    samples = _sample_order(Qc, W)
    Z = Qc[samples]
    W = W.take(samples, 0).take(samples, 1)
    logQ = np.log(Z)

    # Z and the next iterate swap buffers. Only the delta reads the old
    # iterate, so |Z_next - Z| overwrites it in place, and its buffer is
    # then the objective's scratch; r (R as a column) holds the per-row
    # reductions.
    Z_next, r = np.empty_like(Z), np.empty(len(Z))
    R = r[:, None]
    E = W @ Z
    delta = float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        trace = [_objective_from_coupling(Z, logQ, E, Z_next)]
        for _ in range(MAX_ITER):
            _step(logQ, E, Z_next, R)
            np.subtract(Z_next, Z, out=Z)
            np.abs(Z, out=Z)
            delta = float(np.maximum.reduce(np.add.reduce(Z, axis=1, out=r)))
            np.matmul(W, Z_next, out=E)
            trace.append(_objective_from_coupling(Z_next, logQ, E, Z))
            Z, Z_next = Z_next, Z
            if delta < TOL:
                break

    monotone = all(b - a <= MONOTONE_SLACK for a, b in zip(trace, trace[1:]))
    diag = SolveDiagnostics(
        iterations=len(trace) - 1,
        objective_trace=trace,
        converged=delta < TOL,
        monotone=monotone,
        final_delta=delta,
    )
    return Z[inverse_permutation(samples)[:, None], inverse_permutation(classes)], diag
