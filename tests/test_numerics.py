import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta.numerics import (
    canonical_row_order,
    in_canonical_layout,
    softmax_rows,
    sq_distances,
)
from lame_tta.solver import lame_objective
from oracles import is_simplex

# high-precision reference value (mpmath, 40 digits)
KL_09_01_VS_06_04 = 0.2262891611853588819


def softmax1(logits):
    """softmax_rows of one score vector."""
    return softmax_rows(np.array([logits], dtype=float))[0]


def test_softmax_symmetry():
    assert np.allclose(softmax1([0.0, 0.0]), [0.5, 0.5], atol=0)
    assert np.allclose(softmax1([1000.0, 1000.0, 1000.0]), [1 / 3] * 3, rtol=1e-15)


def test_softmax_log2_case():
    out = softmax1([math.log(2.0), 0.0])
    assert np.allclose(out, [2 / 3, 1 / 3], rtol=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax1([np.inf, 0.0])
    with pytest.raises(ValueError):
        softmax1([np.nan, 0.0])


def test_softmax_huge_magnitudes_valid():
    out = softmax1([1e6, -1e6, 0.0])
    assert is_simplex(out)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16),
)
def test_softmax_always_simplex(logits):
    assert is_simplex(softmax1(logits))


def test_softmax_rows_matches_single():
    rng = np.random.default_rng(0)
    L = rng.standard_normal((5, 4))
    rows = softmax_rows(L)
    for i in range(5):
        u = np.exp(L[i] - L[i].max())
        assert np.allclose(rows[i], u / math.fsum(u), rtol=1e-15)


def test_softmax_rows_commutes_with_class_permutation_bitwise():
    # the reason softmax_rows keeps a value-sorted row sum: with a plain
    # row sum most of these inputs give different bits once the columns move
    rng = np.random.default_rng(16)
    for _ in range(200):
        logits = rng.standard_normal((4, 7))
        perm = rng.permutation(7)
        assert softmax_rows(logits[:, perm]).tobytes() == softmax_rows(logits)[:, perm].tobytes()


# The KL tests below read KL(p || q) off the LAME objective with the
# affinity zeroed, which leaves only its KL term.


def kl(p, q):
    p = np.array([p], dtype=float)
    return lame_objective(p, np.array([q], dtype=float), np.zeros((1, 1)))


def test_kl_identity_and_closed_forms():
    assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), rel=1e-15)
    assert kl([0.9, 0.1], [0.6, 0.4]) == pytest.approx(KL_09_01_VS_06_04, rel=1e-14)


def test_kl_length_mismatch():
    with pytest.raises(ValueError):
        kl([1.0], [0.5, 0.5])


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_kl_self_is_exactly_zero(K, seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(K))
    p = np.clip(p, 1e-9, None)
    p = p / p.sum()
    assert kl(p, p) == 0.0


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_kl_nonnegative(K, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(K))
    q = np.clip(rng.dirichlet(np.ones(K)), 1e-12, None)
    q = q / q.sum()
    assert kl(p, q) >= 0.0


def test_canonical_row_order_depends_only_on_row_contents():
    rng = np.random.default_rng(4)
    M = rng.integers(0, 3, size=(40, 3)).astype(float)  # many equal rows
    order = canonical_row_order(M)
    for _ in range(10):
        p = rng.permutation(40)
        assert np.array_equal(M[p][canonical_row_order(M[p])], M[order])
    # rows equal in every byte keep their input order
    assert np.array_equal(canonical_row_order(np.zeros((4, 2))), np.arange(4))
    assert np.array_equal(canonical_row_order(np.zeros((3, 0))), np.arange(3))


def test_pairwise_single_point():
    assert np.array_equal(in_canonical_layout(sq_distances, np.array([[1.0, 2.0]])), [[0.0]])


def test_pairwise_two_points_line():
    D = in_canonical_layout(sq_distances, np.array([[0.0], [3.0]]))
    assert np.array_equal(D, [[0.0, 9.0], [9.0, 0.0]])


def test_pairwise_matches_bruteforce():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 5))
    D = in_canonical_layout(sq_distances, X)
    for i in range(3):
        for j in range(3):
            ref = float(np.sum((X[i] - X[j]) ** 2))
            assert D[i, j] == pytest.approx(ref, abs=1e-12)


@given(st.integers(2, 20), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_pairwise_triangle_inequality(N, d, seed):
    X = np.random.default_rng(seed).standard_normal((N, d))
    Dist = np.sqrt(in_canonical_layout(sq_distances, X))
    assert np.array_equal(Dist, Dist.T)
    assert np.all(np.diagonal(Dist) == 0.0)
    for i in range(N):
        for j in range(N):
            # d(i, j) <= d(i, k) + d(k, j) for every intermediate k
            assert np.all(Dist[i, j] <= Dist[i] + Dist[:, j] + 1e-9)
