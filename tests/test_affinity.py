import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta.affinity import KERNEL_KINDS, KernelSpec, validate_affinity
from lame_tta.numerics import in_canonical_layout, sq_distances
from oracles import reference_affinity, reference_pairwise_sq_distances


def random_features(seed, N=None, d=None):
    rng = np.random.default_rng(seed)
    N = N or int(rng.integers(2, 24))
    d = d or int(rng.integers(1, 8))
    return rng.standard_normal((N, d))


def test_knn_line_example():
    # 1-D points {0, 1, 3}, k=1: 0<->1 mutual, 3->1 one-sided
    X = np.array([[0.0], [1.0], [3.0]])
    W = KernelSpec("knn", 1).build(X)
    assert W[0, 1] == 1.0
    assert W[1, 2] == 0.5
    assert W[0, 2] == 0.0


def test_knn_two_points_mutual():
    W = KernelSpec("knn", 1).build(np.array([[0.0], [1.0]]))
    assert W[0, 1] == 1.0


def test_knn_complete_graph():
    X = random_features(0, N=7)
    W = KernelSpec("knn", 6).build(X)
    expected = 1.0 - np.eye(7)
    assert np.array_equal(W, expected)


def test_knn_k_out_of_range():
    X = random_features(1, N=4)
    with pytest.raises(ValueError):
        KernelSpec("knn", 0).build(X)
    # k >= N is clipped to N - 1: the complete graph
    assert np.array_equal(KernelSpec("knn", 4).build(X), 1.0 - np.eye(4))


def test_knn_tie_breaking_canonical_order():
    # point 0 is equidistant from 1 and 2; with k=1 it must pick the one
    # first in canonical (byte) row order, [0, 1], whatever the input order,
    # so the 0-1 edge only gets the one-sided half weight from 1's side
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    W = KernelSpec("knn", 1).build(X)
    assert W[0, 2] == 1.0
    assert W[0, 1] == 0.5
    assert W[1, 2] == 0.0
    p = [0, 2, 1]
    assert np.array_equal(KernelSpec("knn", 1).build(X[p]), W[np.ix_(p, p)])


def test_knn_permutation_equivariant_on_tied_lattice_distances():
    # integer lattice points tie on many distances; the kNN choice among
    # tied candidates must follow their values, not their input positions
    rng = np.random.default_rng(21)
    for _ in range(30):
        X = np.unique(rng.integers(0, 3, size=(int(rng.integers(6, 16)), 2)), axis=0)
        X = X[rng.permutation(len(X))].astype(float)
        p = rng.permutation(len(X))
        W = KernelSpec("knn", min(3, len(X) - 1)).build(X)
        assert np.array_equal(KernelSpec("knn", min(3, len(X) - 1)).build(X[p]), W[np.ix_(p, p)])


@pytest.mark.parametrize("kind", ["rbf", "linear"])
def test_dense_kernels_permutation_equivariant_on_tied_lattice_distances(kind):
    # lattice rows tie on distances and on cosines; rbf and linear W depend
    # on the row contents only, so distinct rows permute W bitwise. BLAS may
    # round the Gram products of two equal rows differently by their
    # position, so with repeated rows W permutes to within rounding
    rng = np.random.default_rng(22)
    for _ in range(30):
        X = np.unique(rng.integers(1, 4, size=(int(rng.integers(6, 16)), 3)), axis=0)
        X = X[rng.permutation(len(X))].astype(float)
        repeated = np.concatenate([X, X[rng.integers(0, len(X), 4)]])
        for Y, bitwise in ((X, True), (repeated, False)):
            spec = KernelSpec(kind, min(3, len(Y) - 1))
            W = spec.build(Y)
            p = rng.permutation(len(Y))
            if bitwise:
                assert spec.build(Y[p]).tobytes() == W[np.ix_(p, p)].tobytes()
            else:
                assert np.allclose(spec.build(Y[p]), W[np.ix_(p, p)], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("build", ["knn", "rbf", "linear", "distances"])
def test_each_kernel_build_orders_its_rows_once(monkeypatch, build):
    from lame_tta import affinity, numerics

    original = numerics.canonical_row_order
    calls = []

    def counted(M):
        calls.append(len(M))
        return original(M)

    # affinity.canonical_row_order would be a second, direct caller
    for module in (numerics, affinity):
        monkeypatch.setattr(module, "canonical_row_order", counted, raising=False)
    X = random_features(3, N=12, d=4)
    if build == "distances":
        in_canonical_layout(sq_distances, X)
    else:
        KernelSpec(build, 3).build(X)
    assert calls == [12]


def test_linear_identical_unit_vectors():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert KernelSpec("linear").build(X)[0, 1] == pytest.approx(1.0, abs=1e-15)


def test_linear_orthogonal():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert KernelSpec("linear").build(X)[0, 1] == 0.0


def test_linear_matches_bruteforce():
    X = random_features(2, N=3, d=4)
    W = KernelSpec("linear").build(X)
    for i in range(3):
        for j in range(3):
            cosine = np.dot(X[i], X[j]) / (np.linalg.norm(X[i]) * np.linalg.norm(X[j]))
            expected = 0.0 if i == j else float(cosine)
            assert W[i, j] == pytest.approx(expected, abs=1e-12)


def test_linear_zero_row_with_normalize_errors():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        KernelSpec("linear").build(X)


def test_rbf_hand_example():
    # 1-D {0,1,3}, k=1: sigma = (1+1+2)/3 = 4/3
    X = np.array([[0.0], [1.0], [3.0]])
    W = KernelSpec("rbf", 1).build(X)
    assert W[0, 1] == pytest.approx(math.exp(-9 / 32), rel=1e-12)
    assert W[0, 2] == pytest.approx(math.exp(-81 / 32), rel=1e-12)
    assert W[1, 2] == pytest.approx(math.exp(-36 / 32), rel=1e-12)


def test_rbf_unit_affinity_at_matching_distance():
    # two points: sigma = their distance s, so w = exp(-s^2/(2 s^2)) = exp(-1/2)
    X = np.array([[0.0], [2.0]])
    W = KernelSpec("rbf", 1).build(X)
    assert W[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_rbf_coincident_points_error():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        KernelSpec("rbf", 1).build(X)


@pytest.mark.parametrize("kind", ["knn", "rbf", "linear"])
def test_overflowing_squared_distances_raise_one_error_without_warnings(kind):
    # 8 rows near 1e200: before the check, knn failed the zero-diagonal
    # test, rbf the finiteness test and linear returned W = 0
    X = np.random.default_rng(4).standard_normal((8, 4)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared distances overflow"):
            KernelSpec(kind, 3).build(X)
        # the largest rows whose squared distances stay finite still build
        W = KernelSpec(kind, 3).build(X * 1e-47)
    assert np.all(np.isfinite(W)) and np.any(W)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_all_kernels_symmetric_zero_diag(seed):
    X = random_features(seed)
    N = X.shape[0]
    k = min(3, N - 1)
    for W, nonneg in (
        (KernelSpec("knn", k).build(X), True),
        (KernelSpec("rbf", k).build(X), True),
        (KernelSpec("linear").build(X), False),
    ):
        validate_affinity(W)
        if nonneg:
            assert W.min() >= 0
        assert np.max(np.abs(W - W.T)) <= 1e-12
        assert np.all(np.diagonal(W) == 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rbf_entries_in_unit_interval(seed):
    X = random_features(seed)
    W = KernelSpec("rbf", min(2, X.shape[0] - 1)).build(X)
    off = W[~np.eye(len(W), dtype=bool)]
    assert np.all(off > 0.0) and np.all(off <= 1.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cosine_entries_bounded(seed):
    X = random_features(seed)
    W = KernelSpec("linear").build(X)
    assert np.all(W >= -1.0 - 1e-12) and np.all(W <= 1.0 + 1e-12)
    # nonnegative features give nonnegative cosine affinities
    W2 = KernelSpec("linear").build(np.abs(X) + 1e-3)
    assert np.all(W2 >= 0.0)


def test_rbf_rotation_invariance():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((12, 5))
    Qmat, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    W1 = KernelSpec("rbf", 3).build(X)
    W2 = KernelSpec("rbf", 3).build(X @ Qmat.T)
    assert np.allclose(W1, W2, atol=1e-9)


def test_cosine_gram_is_psd():
    for seed in range(5):
        X = random_features(seed, N=min(64, 8 + seed * 8), d=6)
        W = KernelSpec("linear").build(X)
        eigs = np.linalg.eigvalsh(W + np.eye(len(W)))
        assert eigs.min() >= -1e-10


def test_kernel_spec_dispatch():
    X = random_features(4, N=10, d=3)
    for kind in KERNEL_KINDS:
        assert np.array_equal(KernelSpec(kind, 2).build(X), reference_affinity(kind, X, 2))
    with pytest.raises(ValueError):
        KernelSpec("cubic")


def test_build_clips_k_and_zeroes_tiny_batches():
    X = random_features(5, N=4, d=3)
    for kind in ("knn", "rbf"):
        assert np.array_equal(KernelSpec(kind, 5).build(X), reference_affinity(kind, X, 3))
    for n in (0, 1):
        for kind in KERNEL_KINDS:
            assert np.array_equal(KernelSpec(kind, 5).build(X[:n]), np.zeros((n, n)))
    # the all-zero W comes before any feature check
    assert np.array_equal(KernelSpec("linear").build(np.full((1, 3), np.nan)), np.zeros((1, 1)))


def test_rbf_bandwidth_equals_full_sort_bitwise_on_tied_distances():
    # integer lattice points tie on many distances; the partial selection
    # of the k-th neighbour must give the full sort's sigma, hence the same W
    rng = np.random.default_rng(14)
    for _ in range(20):
        N, k = int(rng.integers(6, 40)), int(rng.integers(1, 4))
        X = rng.integers(0, 3, size=(N, 2)).astype(float)
        D = in_canonical_layout(sq_distances, X)
        offdiag = D + np.where(np.eye(N, dtype=bool), np.inf, 0.0)
        sigma = math.fsum(np.sqrt(np.sort(offdiag, axis=1)[:, k - 1])) / N
        if sigma == 0.0:
            with pytest.raises(ValueError):
                KernelSpec("rbf", k).build(X)
            continue
        W = np.exp(-D / (2.0 * sigma * sigma))
        np.fill_diagonal(W, 0.0)
        assert KernelSpec("rbf", k).build(X).tobytes() == W.tobytes()


def build_or_error(build):
    try:
        return build().tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("N", [2, 3, 32, 64, 512])
def test_in_place_affinity_builds_equal_fresh_array_formulas_bitwise(N):
    # distances and every kernel's W against the same formulas on
    # fresh arrays: on random batches and on integer lattices in {1,2,3}^6,
    # whose distances tie often (and coincide at N=512)
    rng = np.random.default_rng(N)
    k = min(5, N - 1)
    for X in (rng.standard_normal((N, 6)), rng.integers(1, 4, size=(N, 6)).astype(float)):
        D = in_canonical_layout(sq_distances, X)
        assert D.tobytes() == reference_pairwise_sq_distances(X).tobytes()
        for kind in ("knn", "rbf", "linear"):
            got = build_or_error(lambda: KernelSpec(kind, k).build(X))
            assert got == build_or_error(lambda: reference_affinity(kind, X, k)), kind
            assert isinstance(got, bytes), kind
    coincident = np.ones((N, 6))
    with pytest.raises(ValueError, match="rbf bandwidth is zero"):
        KernelSpec("rbf", k).build(coincident)
    with pytest.raises(ValueError, match="rbf bandwidth is zero"):
        reference_affinity("rbf", coincident, k)
