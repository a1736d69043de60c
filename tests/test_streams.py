from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_tta.harness import synthetic_family
from lame_tta.mapping import ClassMapping
from lame_tta.streams import (
    Dataset,
    EmbeddingFormatError,
    ScenarioSpec,
    SyntheticConfig,
    block_rotation,
    generate_synthetic,
    generate_toy2d,
    load_embeddings,
    make_stream,
    save_embeddings,
    stream_order,
    zipf_priors,
)
from lame_tta.toy import toy_predict
from oracles import is_simplex


def small_cfg(**kw):
    base = dict(K=4, d=4, n_per_class=40, cluster_spread=0.3,
                rotation_angle=0.4, noise_sigma=0.2)
    base.update(kw)
    return SyntheticConfig(**base)


def accuracy(model, stats, X, labels):
    probs = toy_predict(model, X, stats)
    return float((probs.argmax(axis=1) == labels).mean())


def test_generate_synthetic_deterministic():
    cfg = small_cfg()
    d1, m1, s1 = generate_synthetic(cfg, 7)
    d2, m2, s2 = generate_synthetic(cfg, 7)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.logits, d2.logits)
    assert np.array_equal(d1.labels, d2.labels)
    assert np.array_equal(m1.head_weights, m2.head_weights)
    assert np.array_equal(s1.mean, s2.mean)


def test_generate_synthetic_no_shift_identity():
    cfg = small_cfg(rotation_angle=0.0, noise_sigma=0.0)
    data, model, stats = generate_synthetic(cfg, 3)
    # without a shift the dataset IS the unshifted training distribution,
    # so dataset accuracy equals the model's unshifted accuracy exactly
    acc = accuracy(model, stats, data.features, data.labels)
    assert acc > 0.6
    probs = toy_predict(model, data.features, stats)
    assert np.array_equal(probs.argmax(axis=1), data.logits.argmax(axis=1))


def test_generate_synthetic_shift_degrades_accuracy():
    seeds = range(5)
    clean, shifted = [], []
    for seed in seeds:
        d0, m0, s0 = generate_synthetic(small_cfg(rotation_angle=0.0, noise_sigma=0.0), seed)
        d1, m1, s1 = generate_synthetic(small_cfg(), seed)
        clean.append(accuracy(m0, s0, d0.features, d0.labels))
        shifted.append(accuracy(m1, s1, d1.features, d1.labels))
    assert np.mean(shifted) < np.mean(clean) - 0.02


def test_antipodal_rotation_flips_two_cluster_accuracy():
    # K=2 in 2-D; rotating by pi sends x to -x, so the linear rule flips
    accs = []
    for seed in range(10):
        cfg0 = SyntheticConfig(K=2, d=2, n_per_class=300, cluster_spread=0.4,
                               rotation_angle=0.0, noise_sigma=0.0)
        cfg1 = SyntheticConfig(K=2, d=2, n_per_class=300, cluster_spread=0.4,
                               rotation_angle=np.pi, noise_sigma=0.0)
        d0, m0, s0 = generate_synthetic(cfg0, seed)
        d1, m1, s1 = generate_synthetic(cfg1, seed)
        a0 = accuracy(m0, s0, d0.features, d0.labels)
        a1 = accuracy(m1, s1, d1.features, d1.labels)
        accs.append(a0 + a1)
    assert np.mean(accs) == pytest.approx(1.0, abs=0.05)


def test_block_rotation_is_orthogonal():
    R = block_rotation(6, 0.7)
    assert np.allclose(R @ R.T, np.eye(6), atol=1e-12)


def test_zipf_identity_ranks():
    p = zipf_priors(4, 1.0)
    assert np.allclose(p, [0.48, 0.24, 0.16, 0.12], atol=1e-12)


def test_zipf_rank_ratio_and_simplex():
    for s in (0.5, 1.0, 2.0):
        p = zipf_priors(8, s)
        assert is_simplex(p)
        assert p[0] / p[1] == pytest.approx(2.0**s, rel=1e-12)
        assert np.all(np.diff(p) <= 0)  # descending by rank


def test_zipf_degenerate_exponent_near_uniform():
    p = zipf_priors(5, 1e-9)
    assert np.allclose(p, 0.2, atol=1e-9)


def test_zipf_single_class():
    assert np.array_equal(zipf_priors(1, 1.0), [1.0])


def test_zipf_seeded_permutation_is_permutation():
    base = zipf_priors(6, 1.0)
    p = zipf_priors(6, 1.0, seed=5)
    assert sorted(p) == pytest.approx(sorted(base), rel=1e-15)


def test_zipf_empirical_frequencies():
    K, s = 100, 1.0
    p = zipf_priors(K, s, seed=11)
    rng = np.random.default_rng(123)
    draws = rng.choice(K, size=100_000, p=p)
    freq = np.bincount(draws, minlength=K) / 100_000
    assert np.max(np.abs(freq - p)) < 0.01


def make_dataset(N=60, K=3, d=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.sort(np.arange(N) % K)
    features = rng.standard_normal((N, d)) + 3.0 * labels[:, None]
    logits = rng.standard_normal((N, K)) + 2.0 * np.eye(K)[labels]
    return Dataset(features=features, logits=logits, labels=labels, class_count=K)


def test_make_stream_partitions_dataset():
    data = make_dataset()
    spec = ScenarioSpec(source="x", sampling="iid", batch_size=7, seed=1)
    stream = make_stream(data, spec)
    sizes = [len(b) for b in stream]
    assert sum(sizes) == len(data)
    assert all(s == 7 for s in sizes[:-1])
    assert sizes[-1] == len(data) - 7 * (len(sizes) - 1)


def test_make_stream_iid_deterministic():
    data = make_dataset()
    spec = ScenarioSpec(source="x", sampling="iid", batch_size=8, seed=4)
    s1 = make_stream(data, spec)
    s2 = make_stream(data, spec)
    for b1, b2 in zip(s1, s2):
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(b1.probs, b2.probs)
        assert np.array_equal(b1.labels, b2.labels)


def test_make_stream_noniid_single_class_batches():
    # 6 samples, 2 classes, aligned batch boundary -> one class per batch
    labels = np.array([0, 1, 0, 1, 0, 1])
    rng = np.random.default_rng(0)
    data = Dataset(
        features=rng.standard_normal((6, 2)),
        logits=rng.standard_normal((6, 2)),
        labels=labels,
        class_count=2,
    )
    spec = ScenarioSpec(source="x", sampling="non_iid", batch_size=3, seed=0)
    stream = make_stream(data, spec)
    assert len(stream) == 2
    for batch in stream:
        assert len(np.unique(batch.labels)) == 1


def test_make_stream_noniid_diversity_never_exceeds_iid():
    for seed in range(8):
        data = make_dataset(N=90, K=5, seed=seed)
        kw = dict(source="x", batch_size=9, seed=seed)
        iid = make_stream(data, ScenarioSpec(sampling="iid", **kw))
        grouped = make_stream(data, ScenarioSpec(sampling="non_iid", **kw))
        div_iid = np.mean([len(np.unique(b.labels)) for b in iid])
        div_grp = np.mean([len(np.unique(b.labels)) for b in grouped])
        assert div_grp <= div_iid


def test_make_stream_zipf_counts_match_priors():
    # 1000 samples available per class: realized counts land within one
    # sample of the target proportions scaled to the feasible total
    K = 4
    data = make_dataset(N=4000, K=K, seed=2)
    spec = ScenarioSpec(source="x", sampling="iid", prior_shift=1.0, batch_size=64, seed=9)
    stream = make_stream(data, spec)
    labels = np.concatenate([b.labels for b in stream])
    counts = np.bincount(labels, minlength=K)
    priors = zipf_priors(K, 1.0, np.random.SeedSequence(9).spawn(3)[0])
    total = counts.sum()
    assert np.all(np.abs(counts - priors * total) <= 1.0)


def test_make_stream_prior_shift_drops_a_class_with_no_samples():
    # labels 0-4 without class 2: the absent class is dropped with the
    # same warning as a class whose share rounds to zero, and the other
    # four keep their renormalized Zipf proportions
    labels = np.repeat([0, 1, 3, 4], 100)
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((400, 2)), rng.standard_normal((400, 5)), labels, 5)
    spec = ScenarioSpec(source="x", sampling="iid", prior_shift=1.0, batch_size=32, seed=0)
    with pytest.warns(UserWarning, match=r"class\(es\) \[2\] have no samples"):
        stream = make_stream(data, spec)
    counts = np.bincount(np.concatenate([b.labels for b in stream]), minlength=5)
    kept = [0, 1, 3, 4]
    assert counts[2] == 0 and np.all(counts[kept] > 0) and counts.max() == 100
    priors = zipf_priors(5, 1.0, np.random.SeedSequence(0).spawn(3)[0])[kept]
    assert np.all(np.abs(counts[kept] - priors / priors.sum() * counts.sum()) <= 1.0)


def test_make_stream_probs_are_softmax_rows():
    data = make_dataset()
    spec = ScenarioSpec(source="x", sampling="iid", batch_size=10, seed=3)
    stream = make_stream(data, spec)
    for batch in stream:
        assert is_simplex(batch.probs[0])


def test_make_stream_with_mapping_pools_and_translates():
    data = make_dataset(N=60, K=3)
    m = ClassMapping(3, 2, (0, 1, -1))  # class 2 unmapped
    spec = ScenarioSpec(source="x", sampling="iid", batch_size=16, seed=0, mapping=m)
    with pytest.warns(UserWarning, match="unmapped"):
        stream = make_stream(data, spec)
    total = sum(len(b) for b in stream)
    assert total == 40  # class 2 dropped
    for batch in stream:
        assert batch.probs.shape[1] == 2
        assert np.all(batch.labels < 2)
        assert is_simplex(batch.probs[0])


def test_make_stream_mapping_source_count_mismatch():
    data = make_dataset(N=60, K=3)
    m = ClassMapping(4, 2, (0, 1, 1, -1))
    spec = ScenarioSpec(source="x", sampling="iid", batch_size=16, seed=0, mapping=m)
    with pytest.raises(ValueError, match="mapping covers 4"):
        make_stream(data, spec)


@pytest.mark.parametrize("letter", ["A", "B", "C", "D"])
@pytest.mark.parametrize("variant", ["mapping", "task_ids"])
def test_make_stream_cuts_the_stream_order(letter, variant):
    # the batches are stream_order cut by batch_size: the features of its
    # rows and their labels, through the mapping when there is one
    data = make_dataset(N=90, K=3, seed=5)
    mapping = None
    if variant == "mapping":
        mapping = ClassMapping(3, 2, (0, 1, -1))
    else:
        data = replace(data, task_ids=np.arange(len(data)) % 4)
    family = synthetic_family("x", batch_size=7, letters=(letter,), mapping=mapping)
    spec = replace(family[0].spec, seed=3)
    with pytest.warns(UserWarning, match="unmapped") if mapping else nullcontext():
        order = stream_order(data, spec)
        stream = make_stream(data, spec)
    labels = data.labels if mapping is None else mapping.map_labels(data.labels)
    starts = range(0, len(order), 7)
    assert len(stream) == len(starts)
    for batch, start in zip(stream, starts):
        rows = order[start:start + 7]
        assert np.array_equal(batch.features, data.features[rows])
        assert np.array_equal(batch.labels, labels[rows])


def test_toy2d_label_rule_and_source_gap():
    data, model, stats = generate_toy2d(1000, seed=0)
    X, y = data.features, data.labels
    assert np.array_equal(y, (X[:, 1] > np.sin(X[:, 0])).astype(int))
    inside = np.abs(X[:, 0]) <= np.pi / 2
    acc_in = accuracy(model, stats, X[inside], y[inside])
    acc_all = accuracy(model, stats, X, y)
    assert acc_in > acc_all
    # one sine period, so the frozen model is informative on the whole set
    assert np.all(np.abs(X[:, 0]) <= np.pi)
    # a collapsed predictor scores about 0.50, so a 20-pt drop needs >= 0.70
    assert acc_all >= 0.70
    # explicit points: (0, 1) above the sine, (0, -1) below
    assert (1.0 > np.sin(0.0)) and not (-1.0 > np.sin(0.0))


def test_toy2d_deterministic():
    d1, m1, s1 = generate_toy2d(64, seed=5)
    d2, m2, s2 = generate_toy2d(64, seed=5)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(m1.head_weights, m2.head_weights)


# ---------------------------------------------------------------------------
# embedding container
# ---------------------------------------------------------------------------


def test_container_round_trip_bitwise(tmp_path):
    data = make_dataset(N=30, K=3)
    path = tmp_path / "a.bin"
    save_embeddings(data, path)
    loaded = load_embeddings(path)
    # after one f32 round trip the values are exactly representable, so a
    # second round trip is bitwise
    path2 = tmp_path / "b.bin"
    save_embeddings(loaded, path2)
    again = load_embeddings(path2)
    assert np.array_equal(loaded.features, again.features)
    assert np.array_equal(loaded.logits, again.logits)
    assert np.array_equal(loaded.labels, again.labels)
    assert path.read_bytes() == path2.read_bytes()


def test_container_widens_to_float64(tmp_path):
    data = make_dataset(N=4, K=2)
    path = tmp_path / "w.bin"
    save_embeddings(data, path)
    loaded = load_embeddings(path)
    assert loaded.features.dtype == np.float64
    assert loaded.logits.dtype == np.float64


def test_container_task_ids_round_trip(tmp_path):
    base = make_dataset(N=12, K=3)
    data = Dataset(base.features, base.logits, base.labels, 3,
                   task_ids=np.arange(12) // 4)
    path = tmp_path / "t.bin"
    save_embeddings(data, path)
    loaded = load_embeddings(path)
    assert np.array_equal(loaded.task_ids, data.task_ids)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(EmbeddingFormatError, match="magic"):
        load_embeddings(path)


def test_container_truncated_names_lengths(tmp_path):
    data = make_dataset(N=10, K=3)
    path = tmp_path / "trunc.bin"
    save_embeddings(data, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embeddings(path)
    assert "expected" in str(exc.value) and "found" in str(exc.value)


def test_container_nonfinite_rejected_with_offset(tmp_path):
    data = make_dataset(N=5, K=2)
    bad = Dataset(
        features=data.features.copy(),
        logits=data.logits.copy(),
        labels=data.labels,
        class_count=2,
    )
    bad.features[3, 1] = np.nan
    path = tmp_path / "nan.bin"
    save_embeddings(bad, path)
    with pytest.raises(EmbeddingFormatError, match="offset"):
        load_embeddings(path)


def test_container_refuses_finite_values_beyond_float32(tmp_path):
    # cast unchecked, 1e39 is written as inf and the file fails to load
    data = make_dataset(N=4, K=2)
    logits = data.logits.copy()
    logits[1, 0] = 1e39
    path = tmp_path / "big.bin"
    with pytest.raises(ValueError, match="logits value 1e\\+39 at record 1"):
        save_embeddings(Dataset(data.features, logits, data.labels, 2), path)
    assert not path.exists()


def test_container_refuses_negative_task_ids(tmp_path):
    # cast unchecked, task id -1 wraps to 4294967295
    data = make_dataset(N=3, K=2)
    path = tmp_path / "neg.bin"
    with pytest.raises(ValueError, match="task id value -1 at record 0"):
        save_embeddings(Dataset(data.features, data.logits, data.labels, 2,
                                task_ids=np.array([-1, 0, 1])), path)
    assert not path.exists()


def test_container_label_out_of_range(tmp_path):
    from lame_tta.streams import _HEADER

    data = make_dataset(N=6, K=3)
    path = tmp_path / "lab.bin"
    save_embeddings(data, path)
    blob = bytearray(path.read_bytes())
    # record = (d + K) * 4 + 4 bytes; the label sits at the record's end
    rec = (2 + 3) * 4 + 4
    off = _HEADER.size + rec - 4
    blob[off : off + 4] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(EmbeddingFormatError, match="label"):
        load_embeddings(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((2, 2)), None, 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1, 5]), 2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_container_random_round_trips(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    N, d, K = int(rng.integers(1, 20)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
    data = Dataset(
        features=rng.standard_normal((N, d)).astype(np.float32).astype(np.float64),
        logits=rng.standard_normal((N, K)).astype(np.float32).astype(np.float64),
        labels=rng.integers(0, K, N),
        class_count=K,
    )
    path = tmp_path_factory.mktemp("rt") / "x.bin"
    save_embeddings(data, path)
    loaded = load_embeddings(path)
    assert np.array_equal(loaded.features, data.features)
    assert np.array_equal(loaded.logits, data.logits)
    assert np.array_equal(loaded.labels, data.labels)
