import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta.mapping import (
    ClassMapping,
    MappingError,
    parse_mapping,
    pool_average,
    pool_rows,
)
from oracles import is_simplex

FOUR_TO_TWO = ClassMapping(4, 2, (0, 0, 1, -1))  # {1,2 -> A; 3 -> B; 4 -> null}


def max_pool(q, m):
    return pool_rows(np.asarray(q, dtype=float)[None], m, "max")[0]


def test_average_pool_hand_example():
    out = pool_average([0.4, 0.2, 0.3, 0.1], FOUR_TO_TWO)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_max_pool_hand_example():
    out = max_pool([0.4, 0.2, 0.3, 0.1], FOUR_TO_TWO)
    assert np.allclose(out, [4 / 7, 3 / 7], atol=1e-12)


def test_bijective_mapping_is_exact_relabeling():
    m = ClassMapping(3, 3, (2, 0, 1))
    q = np.array([0.5, 0.25, 0.25])
    relabeled = np.array([0.25, 0.25, 0.5])
    assert np.array_equal(pool_average(q, m), relabeled)
    assert np.array_equal(max_pool(q, m), relabeled)


def test_identity_mapping_is_identity():
    q = np.array([0.5, 0.25, 0.25])
    m = ClassMapping(3, 3, (0, 1, 2))
    assert np.array_equal(pool_average(q, m), q)
    assert np.array_equal(max_pool(q, m), q)


def test_one_hot_max_pool():
    q = np.array([0.0, 1.0, 0.0, 0.0])
    out = max_pool(q, FOUR_TO_TWO)
    assert np.array_equal(out, [1.0, 0.0])


def test_uniform_q_equal_groups_stays_uniform():
    m = ClassMapping(4, 2, (0, 0, 1, 1))
    out = pool_average(np.full(4, 0.25), m)
    assert np.array_equal(out, [0.5, 0.5])


def test_all_mass_on_null_classes_errors():
    q = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(MappingError):
        pool_average(q, FOUR_TO_TWO)
    with pytest.raises(MappingError):
        max_pool(q, FOUR_TO_TWO)


@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(2, 6))
@settings(max_examples=50)
def test_pooled_outputs_are_simplex(seed, Y, Z):
    rng = np.random.default_rng(seed)
    if Z > Y:
        Z = Y
    # random total mapping covering every target
    assignment = list(range(Z)) + [int(rng.integers(0, Z)) for _ in range(Y - Z)]
    rng.shuffle(assignment)
    m = ClassMapping(Y, Z, tuple(assignment))
    q = rng.dirichlet(np.ones(Y))
    assert is_simplex(pool_average(q, m))
    assert is_simplex(max_pool(q, m))


def test_pool_average_commutes_with_in_group_permutation():
    rng = np.random.default_rng(0)
    m = ClassMapping(5, 2, (0, 0, 0, 1, 1))
    q = rng.dirichlet(np.ones(5))
    out = pool_average(q, m)
    # permute the members of group A
    perm = np.array([2, 0, 1, 3, 4])
    assert np.array_equal(pool_average(q[perm], m), out)


def test_duplication_scale_invariance_keeps_output():
    # duplicating a singleton-group class at the same probability and
    # renormalizing the input rescales every group mean uniformly, so the
    # normalized pooled output and its argmax are unchanged
    q = np.array([0.6, 0.4])
    m = ClassMapping(2, 2, (0, 1))
    base = pool_average(q, m)
    q_dup = np.array([0.6, 0.6, 0.4]) / 1.6
    m_dup = ClassMapping(3, 2, (0, 0, 1))
    dup = pool_average(q_dup, m_dup)
    assert np.allclose(dup, base, atol=1e-12)
    assert np.argmax(dup) == np.argmax(base)


def test_pool_rows_matches_scalar_pooling():
    # one row at a time, without pool_rows: value-sorted group sums over
    # the group size, renormalized by their value-sorted total
    rng = np.random.default_rng(1)
    Q = rng.dirichlet(np.ones(4), size=6)
    R = pool_rows(Q, FOUR_TO_TWO, "average")
    for i in range(6):
        pooled = np.array([np.sort(Q[i][g]).sum() / len(g) for g in FOUR_TO_TWO.groups()])
        assert np.array_equal(R[i], pooled / np.sort(pooled).sum())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_pool_rows_matches_fsum_reference(seed):
    # per-row reference with correctly rounded sums: the group-at-a-time
    # path adds in another order, so it agrees to a few ulps
    rng = np.random.default_rng(seed)
    m = ClassMapping(7, 3, (0, 1, 0, 2, -1, 1, 0))
    Q = rng.dirichlet(np.ones(7), size=20)
    for how in ("average", "max"):
        ref = []
        for q in Q:
            if how == "average":
                pooled = [math.fsum(q[g]) / len(g) for g in m.groups()]
            else:
                pooled = [float(q[g].max()) for g in m.groups()]
            ref.append(np.array(pooled) / math.fsum(pooled))
        assert np.allclose(pool_rows(Q, m, how), ref, rtol=0.0, atol=1e-15)


def test_parse_mapping_basic():
    m = parse_mapping("0\tA\n1\tB\n")
    assert m.source_count == 2 and m.target_count == 2
    assert m.assignment == (0, 1)


def test_parse_mapping_null_token():
    m = parse_mapping("0\tA\n1\tB\n3\t__null__\n")
    assert m.source_count == 4
    assert m.assignment == (0, 1, -1, -1)


def test_parse_mapping_first_appearance_order():
    m = parse_mapping("2\tdog\n0\tcat\n1\tdog\n")
    # target indices follow first appearance in file order: dog before cat
    assert m.assignment == (1, 0, 0)


def test_parse_mapping_duplicate_source_rejected():
    with pytest.raises(MappingError, match="line 3"):
        parse_mapping("0\tA\n1\tB\n0\tC\n")


def test_parse_mapping_empty_label_rejected():
    with pytest.raises(MappingError, match="line 1"):
        parse_mapping("0\t\n")


def test_parse_mapping_comments_and_blanks():
    m = parse_mapping("# header\n\n0\tA\n# mid\n1\tA\n")
    assert m.target_count == 1


def test_parse_mapping_all_null_rejected():
    with pytest.raises(MappingError):
        parse_mapping("0\t__null__\n")


def test_parse_mapping_source_count_enforced():
    with pytest.raises(MappingError):
        parse_mapping("5\tA\n").over(3)


def test_mapping_over_a_class_count_leaves_trailing_classes_unmapped():
    m = parse_mapping("0\tA\n1\tB\n2\tA\n")
    wide = m.over(5)
    assert wide.assignment == (0, 1, 0, -1, -1)
    assert m.over(3) == m
    with pytest.raises(MappingError, match="mapping covers 3 source classes but the dataset has 2"):
        m.over(2)


def test_class_mapping_validation():
    with pytest.raises(MappingError):
        ClassMapping(2, 2, (0, 0))  # target 1 empty
    with pytest.raises(MappingError):
        ClassMapping(2, 1, (0, 5))  # unknown target


def test_map_labels():
    labels = np.array([0, 1, 2, 3, 0])
    mapped = FOUR_TO_TWO.map_labels(labels)
    assert mapped.tolist() == [0, 0, 1, -1, 0]
