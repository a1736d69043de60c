"""Independent reference implementations used to check the solver.

These deliberately avoid the package's own evaluation paths: objectives
are recomputed from the formulas with plain numpy, minimizers come from
exhaustive grid scans, and the reference LAME loop borrows only the
package's canonical layout, not its iteration.
"""

import math

import numpy as np


def is_simplex(v, atol=1e-9):
    """Whether v is a finite 1-D probability vector: entries in [0, 1] and
    an exact (``math.fsum``) total of 1, each within ``atol``."""
    v = np.asarray(v, dtype=float)
    return (
        v.ndim == 1
        and bool(np.all(np.isfinite(v)))
        and bool(np.all(v >= -atol))
        and bool(np.all(v <= 1.0 + atol))
        and abs(math.fsum(v) - 1.0) <= atol
    )


def reference_objective(Z, Q, W):
    """Direct evaluation: sum_i KL(z_i||q_i) - sum over unordered pairs of
    (w_ij + w_ji)/2 ... i.e. each unordered pair of the symmetric affinity
    counted once."""
    Z = np.asarray(Z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    W = np.asarray(W, dtype=float)
    kl = 0.0
    for zi, qi in zip(Z, Q):
        mask = zi > 0
        kl += float(np.sum(zi[mask] * (np.log(zi[mask]) - np.log(qi[mask]))))
    lap = 0.0
    N = len(Z)
    for i in range(N):
        for j in range(i + 1, N):
            lap += (W[i, j] + W[j, i]) / 2.0 * float(np.dot(Z[i], Z[j]))
    return kl - lap


GRID_WINDOW = 64


def grid_oracle_two_by_two(q1, q2, w, resolution=10001):
    """Brute-force minimizer of the two-sample, two-class objective over a
    uniform grid on (z11, z21) in [0, 1]^2.

    Returns (min objective, argmin z11, argmin z21). For each z11 = a on
    the grid the objective is convex in z21 = b, so the row minimum lies
    next to where the grid slope of the b-terms crosses 2 w a. Each row is
    scanned only ``GRID_WINDOW`` points either side of that crossing, with
    the full scan's float expression, so values, minimum and ties come out
    the same. If any row minimum falls on a window edge, the full grid is
    scanned instead.
    """
    a = np.linspace(0.0, 1.0, resolution)

    def kl_curve(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(a > 0, a * (np.log(np.where(a > 0, a, 1.0)) - np.log(q[0])), 0.0)
            b = 1.0 - a
            t2 = np.where(b > 0, b * (np.log(np.where(b > 0, b, 1.0)) - np.log(q[1])), 0.0)
        return t1 + t2

    g1 = kl_curve(np.asarray(q1, dtype=float))
    g2 = kl_curve(np.asarray(q2, dtype=float))
    # objective(a, b) = g1(a) + g2(b) - w*(a b + (1-a)(1-b)); expanding the
    # pair term gives  [g1(a) + w a] + [g2(b) + w b] - w - 2 w a b
    u = g1 + w * a
    v = g2 + w * a  # the same grid serves both coordinates
    width = 2 * GRID_WINDOW + 1
    crossing = np.searchsorted(np.diff(v), 2.0 * w * a * (a[1] - a[0]))
    start = np.clip(crossing - GRID_WINDOW, 0, resolution - width)
    cols = start[:, None] + np.arange(width)
    f = a[:, None] * a[cols]
    f *= -2.0 * w
    f += u[:, None]
    f += v[cols]
    j = np.argmin(f, axis=1)
    edge = ((j == 0) & (start > 0)) | ((j == width - 1) & (start < resolution - width))
    if edge.any():
        best_val, best_i, best_j = grid_scan_full(a, u, v, w)
    else:
        row_min = f[np.arange(resolution), j]
        best_i = int(np.argmin(row_min))
        best_val, best_j = float(row_min[best_i]), int(start[best_i] + j[best_i])
    return best_val - w, float(a[best_i]), float(a[best_j])


def grid_scan_full(a, u, v, w):
    """(min, i, j) of u_i + v_j - 2 w a_i a_j over the whole grid, scanned
    in chunks of rows to keep memory flat; ties go to the first (i, j)."""
    resolution = len(a)
    best_val = np.inf
    best_i = best_j = 0
    chunk = 1024
    buf = np.empty((chunk, resolution))
    for start in range(0, resolution, chunk):
        rows = min(chunk, resolution - start)
        f = buf[:rows]
        np.multiply.outer(a[start : start + rows], a, out=f)
        f *= -2.0 * w
        f += u[start : start + rows, None]
        f += v[None, :]
        i, j = np.unravel_index(np.argmin(f), f.shape)
        if f[i, j] < best_val:
            best_val = float(f[i, j])
            best_i, best_j = start + int(i), int(j)
    return best_val, best_i, best_j


def random_cosine_instance(rng, n_max=64, k_max=16, feature_dim=64):
    """A random solver instance whose affinity is a cosine (normalized
    linear) kernel; by construction W + I is positive semidefinite."""
    N = int(rng.integers(2, n_max + 1))
    K = int(rng.integers(2, k_max + 1))
    X = rng.standard_normal((N, feature_dim))
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    W = Xn @ Xn.T
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    Q = rng.dirichlet(np.ones(K), size=N)
    Q = np.clip(Q, 1e-12, None)
    Q = Q / Q.sum(axis=1, keepdims=True)
    return Q, W


def reference_lame_loop(Q, W, tol=1e-8, max_iter=100):
    """The LAME iteration written as plain formulas with fresh arrays and
    the 0 log 0 := 0 objective, run in the canonical layout of
    ``lame_correct`` and permuted back with argsort inverses.

    Returns (Z, trace, iterations, converged, monotone, final_delta); every
    item must equal what ``lame_correct`` returns, bit for bit.
    """
    from lame_tta.numerics import canonical_row_order
    from lame_tta.solver import MONOTONE_SLACK, _sample_order, clamp_probs

    Qc = clamp_probs(Q)
    W = np.asarray(W, dtype=float)
    classes = canonical_row_order(np.sort(Qc, axis=0).T)
    Qc = Qc[:, classes]
    samples = _sample_order(Qc, W)
    Qc = Qc[samples]
    W = W[np.ix_(samples, samples)]
    logQ = np.log(Qc)

    def objective(Z, E):
        safe = np.where(Z > 0, Z, 1.0)
        kl = float(np.where(Z > 0, Z * (np.log(safe) - logQ), 0.0).sum())
        return kl - 0.5 * float((Z * E).sum())

    def step(E):
        V = logQ + E
        V = V - V.max(axis=1, keepdims=True)
        U = np.exp(V)
        return U / U.sum(axis=1, keepdims=True)

    Z = Qc
    E = W @ Z
    trace = [objective(Z, E)]
    iterations, converged, delta = 0, False, float("inf")
    for _ in range(max_iter):
        Z_next = step(E)
        delta = float(np.abs(Z_next - Z).sum(axis=1).max())
        E = W @ Z_next
        trace.append(objective(Z_next, E))
        Z = Z_next
        iterations += 1
        if delta < tol:
            converged = True
            break
    monotone = bool(np.all(np.diff(trace) <= MONOTONE_SLACK))
    Z = Z[np.ix_(np.argsort(samples), np.argsort(classes))]
    return Z, trace, iterations, converged, monotone, delta


def reference_csv_rows(start, preds, Z):
    """Rows of ``corrected.csv`` by the original per-value loop: the sample
    index, the prediction, then ``repr(float(z))`` of every probability."""
    return "".join(
        f"{start + i},{int(preds[i])}," + ",".join(repr(float(z)) for z in Z[i]) + "\n"
        for i in range(len(Z))
    )


def reference_corrected_csv(probs, features, kernel, batch_size, solver_cfg):
    """``corrected.csv`` as ``lame correct`` wrote it in one process: one
    solve per batch (the package's own), each batch's rows formatted as it
    comes. Only the text is a reference here, not the solve."""
    from lame_tta.affinity import batch_affinity
    from lame_tta.solver import lame_correct

    text = "sample,prediction," + ",".join(f"p{k}" for k in range(probs.shape[1])) + "\n"
    for start in range(0, len(probs), batch_size):
        sl = slice(start, start + batch_size)
        Z, _ = lame_correct(probs[sl], batch_affinity(kernel, features[sl]), solver_cfg)
        text += reference_csv_rows(start, np.argmax(Z, axis=1), Z)
    return text


def reference_canonical_gram(X):
    """X @ X.T in the canonical row layout, un-permuted by one broadcast
    gather of fresh arrays."""
    from lame_tta.numerics import canonical_row_order, inverse_permutation

    order = canonical_row_order(X)
    inv = inverse_permutation(order)
    Xs = X[order]
    return (Xs @ Xs.T)[inv[:, None], inv]


def reference_pairwise_sq_distances(X):
    """(sq_i + sq_j) - 2 G_ij, symmetrized, halved, clipped at 0 and with
    a zero diagonal, each step in a fresh array."""
    G = reference_canonical_gram(X)
    sq = np.diag(G)
    D = sq[:, None] + sq[None, :] - 2.0 * G
    D = (D + D.T) / 2.0
    np.clip(D, 0.0, None, out=D)
    np.fill_diagonal(D, 0.0)
    return D


def reference_affinity(kind, X, k):
    """W of ``KernelSpec(kind, k).build(X)`` from the kernel formulas on
    fresh arrays; the rbf bandwidth takes the k-th distance from a full
    sort. Raises the package's errors for a zero row (linear) and for an
    all-zero bandwidth (rbf)."""
    from lame_tta.numerics import canonical_row_order

    X = np.asarray(X, dtype=float)
    N = len(X)
    if kind == "linear":
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot L2-normalize a zero feature row")
        W = reference_canonical_gram(X / norms)
        W = (W + W.T) / 2.0
        np.fill_diagonal(W, 0.0)
        return W
    D = reference_pairwise_sq_distances(X)
    offdiag = D.copy()
    np.fill_diagonal(offdiag, np.inf)
    if kind == "knn":
        order = canonical_row_order(X)
        nearest = order[np.argsort(offdiag[:, order], axis=1, kind="stable")[:, :k]]
        A = np.zeros((N, N))
        A[np.arange(N)[:, None], nearest] = 1.0
        return (A + A.T) / 2.0
    sigma = math.fsum(np.sqrt(np.sort(offdiag, axis=1)[:, k - 1])) / N
    if sigma == 0.0:
        raise ValueError("all points coincide; rbf bandwidth is zero")
    W = np.exp(-D / (2.0 * sigma * sigma))
    np.fill_diagonal(W, 0.0)
    return W


def reference_adapted_run(stream, method, source):
    """An adapted method's online run as a full prediction (its running
    statistics kept, its probabilities dropped), the adaptation step, and
    the re-prediction per batch. Returns every batch's re-predicted
    probabilities."""
    from lame_tta.toy import STEP_FUNCTIONS, toy_predict

    model, stats = source
    velocity = None
    out = []
    for batch in stream:
        _, stats = toy_predict(model, batch.features, stats, method.adapt.stat_momentum)
        model, velocity = STEP_FUNCTIONS[method.kind](
            model, batch.features, method.adapt, stats, velocity
        )
        out.append(toy_predict(model, batch.features, stats, 0.0)[0])
    return out
