import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta import solver
from lame_tta.affinity import KERNEL_KINDS, KernelSpec
from lame_tta.numerics import softmax_rows
from lame_tta.solver import (
    cccp_step,
    clamp_probs,
    lame_correct,
    lame_objective,
)

from oracles import (
    grid_oracle_two_by_two,
    random_cosine_instance,
    reference_lame_loop,
    reference_objective,
)

# 0.8 e / (0.8 e + 0.2), mpmath at 40 digits
HAND_Z11 = 0.91577619159910260986
HAND_Z12 = 0.084223808400897390142


def random_probs(rng, N, K):
    Q = rng.dirichlet(np.ones(K), size=N)
    Q = np.clip(Q, 1e-12, None)
    return Q / Q.sum(axis=1, keepdims=True)


def test_objective_equals_kl_when_affinity_vanishes():
    Q = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert lame_objective(Q, Q, np.zeros((2, 2))) == 0.0


def test_objective_symmetric_pair_value():
    # uniform rows with a unit-weight edge: KL = 0 and the single unordered
    # pair contributes w * z1.z2 = 0.5, so the objective is -0.5
    Z = Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert lame_objective(Z, Q, W) == pytest.approx(-0.5, abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_objective_matches_reference(seed):
    rng = np.random.default_rng(seed)
    Q, W = random_cosine_instance(rng, n_max=12, k_max=6)
    Z = random_probs(rng, *Q.shape)
    ours = lame_objective(Z, Q, W)
    ref = reference_objective(Z, Q, W)
    assert ours == pytest.approx(ref, abs=1e-10)


def test_objective_dimension_mismatch():
    Q = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        lame_objective(Q, Q, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lame_objective(Q, np.array([[0.3, 0.3, 0.4]]), np.zeros((1, 1)))


def test_cccp_step_zero_affinity_returns_q():
    rng = np.random.default_rng(0)
    Q = random_probs(rng, 6, 4)
    Z = random_probs(rng, 6, 4)
    out = cccp_step(Z, Q, np.zeros((6, 6)))
    assert np.allclose(out, Q, atol=1e-15)


def test_cccp_step_hand_example():
    Q = np.array([[0.8, 0.2], [0.5, 0.5]])
    Z = np.array([[0.8, 0.2], [1.0, 0.0]])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = cccp_step(Z, Q, W)
    assert out[0, 0] == pytest.approx(HAND_Z11, abs=1e-12)
    assert out[0, 1] == pytest.approx(HAND_Z12, abs=1e-12)


def test_cccp_step_symmetric_fixed_point():
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = cccp_step(Q, Q, W)
    assert np.allclose(out, Q, atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cccp_step_rows_stay_on_simplex(seed):
    rng = np.random.default_rng(seed)
    Q, W = random_cosine_instance(rng, n_max=16, k_max=8)
    Z = cccp_step(Q, Q, W)
    assert np.all(Z >= 0.0) and np.all(Z <= 1.0)
    assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-9)


def test_correct_zero_affinity_identity():
    rng = np.random.default_rng(1)
    Q = random_probs(rng, 8, 5)
    Z, diag = lame_correct(Q, np.zeros((8, 8)))
    assert np.max(np.abs(Z - Q)) <= 1e-12
    assert diag.converged and diag.iterations == 1
    assert len(diag.objective_trace) == diag.iterations + 1
    assert np.allclose(diag.objective_trace, 0.0, atol=1e-12)


def test_correct_trace_length_and_monotone_flag():
    rng = np.random.default_rng(2)
    Q, W = random_cosine_instance(rng, n_max=24, k_max=8)
    Z, diag = lame_correct(Q, W)
    assert len(diag.objective_trace) == diag.iterations + 1
    assert diag.converged
    assert diag.monotone
    diffs = np.diff(diag.objective_trace)
    assert np.all(diffs <= 1e-9)


def test_bound_descent_on_cosine_instances():
    rng = np.random.default_rng(3)
    for _ in range(40):
        Q, W = random_cosine_instance(rng, n_max=32, k_max=8)
        _, diag = lame_correct(Q, W)
        assert diag.converged
        assert np.all(np.diff(diag.objective_trace) <= 1e-9)


def test_monotone_flag_records_nonmonotone_without_abort():
    # a strongly coupled pair with conflicting confident predictions makes
    # the parallel update oscillate; the flag records it, nothing raises
    Q = np.array([[0.999, 0.001], [0.001, 0.999]])
    W = np.array([[0.0, 10.0], [10.0, 0.0]])
    Z, diag = lame_correct(Q, W)
    assert not diag.monotone
    assert not diag.converged
    assert diag.iterations == 100
    assert np.all(np.isfinite(Z))


def test_knn_traces_monotone_in_practice():
    # with the pair-counted-once objective, k-NN affinities stay monotone
    # within the recorded slack on typical batches
    rng = np.random.default_rng(4)
    for _ in range(50):
        N, K = 24, 4
        X = rng.standard_normal((N, 3))
        W = KernelSpec("knn", 5).build(X)
        Q = random_probs(rng, N, K)
        _, diag = lame_correct(Q, W)
        assert diag.monotone


def test_grid_oracle_equivalence_small():
    rng = np.random.default_rng(5)
    for _ in range(5):
        q1 = random_probs(rng, 1, 2)[0]
        q2 = random_probs(rng, 1, 2)[0]
        w = float(rng.uniform(0.05, 0.9))
        W = np.array([[0.0, w], [w, 0.0]])
        Q = np.vstack([q1, q2])
        Z, diag = lame_correct(Q, W)
        ref_val, a_star, b_star = grid_oracle_two_by_two(q1, q2, w)
        assert diag.objective_trace[-1] == pytest.approx(ref_val, abs=1e-6)
        assert Z[0, 0] == pytest.approx(a_star, abs=1e-3)
        assert Z[1, 0] == pytest.approx(b_star, abs=1e-3)


def test_label_permutation_equivariance_bitwise():
    rng = np.random.default_rng(6)
    Q, W = random_cosine_instance(rng, n_max=20, k_max=9)
    perm = rng.permutation(Q.shape[1])
    Z, _ = lame_correct(Q, W)
    Z_perm, _ = lame_correct(Q[:, perm], W)
    assert np.array_equal(Z_perm, Z[:, perm])


def test_sample_permutation_equivariance_bitwise():
    rng = np.random.default_rng(7)
    Q, W = random_cosine_instance(rng, n_max=20, k_max=6)
    p = rng.permutation(Q.shape[0])
    Z, _ = lame_correct(Q, W)
    Z_perm, _ = lame_correct(Q[p], W[np.ix_(p, p)])
    assert np.array_equal(Z_perm, Z[p])


def test_sample_permutation_equivariance_knn_bitwise():
    rng = np.random.default_rng(8)
    N, K = 40, 7
    X = rng.standard_normal((N, 5))
    W = KernelSpec("knn", 5).build(X)
    Q = random_probs(rng, N, K)
    p = rng.permutation(N)
    Z, _ = lame_correct(Q, W)
    Z_perm, _ = lame_correct(Q[p], W[np.ix_(p, p)])
    assert np.array_equal(Z_perm, Z[p])


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_features_to_z_permutation_equivariance_bitwise(kind):
    # the whole path from feature rows to Z, not only from a pre-built W:
    # the rbf and linear Gram products must not depend on the row order
    rng = np.random.default_rng(12)
    for _ in range(20):
        N, d, K = int(rng.integers(8, 80)), int(rng.integers(2, 40)), int(rng.integers(2, 30))
        X = rng.standard_normal((N, d))
        Q = random_probs(rng, N, K)
        p = rng.permutation(N)
        spec = KernelSpec(kind, k=min(5, N - 1))
        W = spec.build(X)
        W_p = spec.build(X[p])
        assert np.array_equal(W_p, W[p][:, p])
        Z, _ = lame_correct(Q, W)
        Z_p, _ = lame_correct(Q[p], W_p)
        assert np.array_equal(Z_p, Z[p])


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@given(N=st.integers(2, 300), d=st.integers(1, 8), K=st.integers(1, 50),
       scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_features_to_z_permutation_equivariance_bitwise_in_any_layout(kind, N, d, K, scale, seed):
    # column indexing (Q[:, c]) returns a Fortran-ordered array; the
    # softmax, the clamp and the kernel builds must give that array's
    # values the same bits as a C-ordered copy
    rng = np.random.default_rng(seed)
    X = 10.0**scale * rng.standard_normal((N, d))
    logits = 3.0 * rng.standard_normal((N, K))
    Q = softmax_rows(logits)
    spec = KernelSpec(kind, 5)
    Z, _ = lame_correct(Q, spec.build(X))
    p, c = rng.permutation(N), rng.permutation(K)
    Z_pc, _ = lame_correct(Q[p][:, c], spec.build(X[p]))
    assert np.array_equal(Z_pc, Z[p][:, c])
    F = np.asfortranarray
    assert np.array_equal(softmax_rows(F(logits)), Q)
    assert np.array_equal(spec.build(F(X)), spec.build(X))
    assert np.array_equal(lame_correct(F(Q), spec.build(X))[0], Z)


def blas_case_digests() -> list[str]:
    """W and Z digests of three solves whose products are large enough for
    BLAS to split across threads."""
    digests = []
    for seed, kind, N, K in ((0, "rbf", 512, 20), (1, "linear", 256, 50), (2, "knn", 64, 1000)):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((N, 32))
        W = KernelSpec(kind, k=5).build(X)
        Z, _ = lame_correct(random_probs(rng, N, K), W)
        digests += [hashlib.sha256(M.tobytes()).hexdigest() for M in (W, Z)]
    return digests


def test_blas_thread_count_invariance():
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    child = subprocess.run(
        [sys.executable, "-c", "import test_solver; print(*test_solver.blas_case_digests())"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert child.stdout.split() == blas_case_digests()


def test_duplicate_rows_solve_deterministically():
    # rows equal in features and probabilities are exact ties of the
    # canonical layout, which then falls back to input order
    rng = np.random.default_rng(13)
    idx = np.r_[np.arange(12), [0, 0, 3, 7]]
    X = rng.standard_normal((12, 4))[idx]
    Q = random_probs(rng, 12, 5)[idx]
    for kind in KERNEL_KINDS:
        W = KernelSpec(kind, k=3).build(X)
        Z1, d1 = lame_correct(Q, W)
        Z2, d2 = lame_correct(Q, W)
        assert np.array_equal(Z1, Z2)
        assert d1.objective_trace == d2.objective_trace
        assert np.all(Z1 >= 0.0)
        assert np.allclose(Z1.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_equal_probability_rows_permutation_equivariance_bitwise(kind):
    # Q rows drawn from two or three distinct vectors tie in bulk; the
    # colour refinement on W must still pick one layout for every order
    rng = np.random.default_rng(14)
    for _ in range(20):
        N, K = int(rng.integers(10, 80)), int(rng.integers(2, 8))
        protos = random_probs(rng, int(rng.integers(2, 4)), K)
        Q = protos[rng.integers(0, len(protos), N)]
        X = rng.standard_normal((N, 6))
        p = rng.permutation(N)
        spec = KernelSpec(kind, k=5)
        Z, _ = lame_correct(Q, spec.build(X))
        Z_p, _ = lame_correct(Q[p], spec.build(X[p]))
        assert np.array_equal(Z_p, Z[p])


def test_determinism_across_runs():
    rng = np.random.default_rng(9)
    Q, W = random_cosine_instance(rng)
    Z1, d1 = lame_correct(Q, W)
    Z2, d2 = lame_correct(Q, W)
    assert np.array_equal(Z1, Z2)
    assert d1.objective_trace == d2.objective_trace


def test_clamp_probs_floors_and_renormalizes():
    Q = np.array([[1.0, 0.0], [0.5, 0.5]])
    Qc = clamp_probs(Q)
    # floored entries shrink only by the renormalization factor
    assert Qc.min() >= 1e-12 * (1 - 1e-9)
    assert np.allclose(Qc.sum(axis=1), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        clamp_probs(np.array([[0.5, -0.5]]))
    with pytest.raises(ValueError):
        clamp_probs(np.array([[np.inf, 1.0]]))


def test_nonconvergence_reported_not_raised(monkeypatch):
    rng = np.random.default_rng(10)
    Q, W = random_cosine_instance(rng, n_max=24, k_max=6)
    monkeypatch.setattr(solver, "TOL", 1e-300)
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    Z, diag = lame_correct(Q, W)
    assert not diag.converged
    assert diag.iterations == 3


def assert_matches_reference_loop(Q, W):
    Z, diag = lame_correct(Q, W)
    Z_ref, trace, iterations, converged, monotone, delta = reference_lame_loop(
        Q, W, solver.TOL, solver.MAX_ITER
    )
    assert Z.tobytes() == Z_ref.tobytes()
    assert np.array(diag.objective_trace).tobytes() == np.array(trace).tobytes()
    assert (diag.iterations, diag.converged, diag.monotone) == (iterations, converged, monotone)
    assert np.float64(diag.final_delta).tobytes() == np.float64(delta).tobytes()
    return Z, diag


def test_solve_matches_reference_loop_bitwise_on_knn_batches():
    rng = np.random.default_rng(12)
    for _ in range(30):
        N, K = int(rng.integers(2, 65)), int(rng.integers(2, 13))
        X = rng.standard_normal((N, 4))
        W = KernelSpec("knn", min(5, N - 1)).build(X)
        assert_matches_reference_loop(random_probs(rng, N, K), W)


def test_solve_matches_reference_loop_bitwise_when_z_underflows():
    # affinities this strong drive some entries of Z to exact zeros, where
    # z log z is NaN and the objective takes its 0 log 0 := 0 branch
    rng = np.random.default_rng(0)
    X = rng.standard_normal((16, 3))
    Q = rng.dirichlet(np.ones(5), size=16)
    Z, diag = assert_matches_reference_loop(Q, 1000.0 * KernelSpec("knn", 3).build(X))
    assert np.any(Z == 0.0)
    assert np.all(np.isfinite(diag.objective_trace))


def test_solve_matches_reference_loop_bitwise_when_capped(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((40, 4))
    Q = random_probs(rng, 40, 6)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    _, diag = assert_matches_reference_loop(Q, KernelSpec("knn", 5).build(X))
    assert not diag.converged and diag.iterations == 2


@pytest.mark.parametrize("N, K, kind", [(64, 1000, "knn"), (512, 20, "rbf")])
def test_solve_matches_reference_loop_bitwise_at_correct_workload_shapes(N, K, kind):
    # the batch shapes and kernels of the correct-k1000 and
    # correct-rbf-pooled benchmark workloads, where the loop reuses its
    # iterate buffers as scratch over many iterations
    rng = np.random.default_rng(N + K)
    Q = softmax_rows(3.0 * rng.standard_normal((N, K)))
    W = KernelSpec(kind, 5).build(rng.standard_normal((N, 16)))
    _, diag = assert_matches_reference_loop(Q, W)
    assert diag.iterations > 2


def test_clamp_probs_rejects_nan():
    with pytest.raises(ValueError):
        clamp_probs(np.array([[np.nan, 1.0]]))


def knn_batch(seed=15, N=12, K=4):
    rng = np.random.default_rng(seed)
    return random_probs(rng, N, K), KernelSpec("knn", 3).build(rng.standard_normal((N, 3)))


def test_correct_rejects_nan_affinity():
    # unchecked, a NaN weight gives an all-NaN Z, whose argmax is class 0
    Q, W = knn_batch()
    W[2, 5] = W[5, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lame_correct(Q, W)


def test_correct_rejects_inf_affinity():
    Q, W = knn_batch()
    W[2, 5] = W[5, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        lame_correct(Q, W)


def test_correct_rejects_asymmetric_affinity():
    Q, W = knn_batch()
    W[2, 5] += 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        lame_correct(Q, W)


def test_correct_rejects_nonzero_diagonal():
    Q, W = knn_batch()
    with pytest.raises(ValueError, match="diagonal"):
        lame_correct(Q, W + np.eye(len(W)))


def test_correct_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        lame_correct(np.zeros((0, 4)), np.zeros((0, 0)))
