import numpy as np
import pytest

from lame_tta.streams import ScenarioSpec, generate_toy2d, make_stream
from lame_tta.toy import (
    LOSS_FUNCTIONS,
    PARAM_NAMES,
    PARTITIONS,
    AdaptConfig,
    RunningStats,
    ToyModel,
    blend_stats,
    collapse_demo,
    entropy_min_loss,
    entropy_min_step,
    pseudo_label_step,
    shot_im_loss,
    shot_im_step,
    toy_predict,
)


def random_setup(seed, N=12, d=4, K=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d))
    model = ToyModel(
        scale=1.0 + 0.2 * rng.standard_normal(d),
        bias=0.2 * rng.standard_normal(d),
        head_weights=rng.standard_normal((K, d)),
        head_bias=0.2 * rng.standard_normal(K),
    )
    stats = RunningStats(
        mean=0.1 * rng.standard_normal(d), var=0.5 + rng.random(d)
    )
    return X, model, stats


def numerical_gradients(loss_fn, model, X, stats, step=1e-5):
    grads = []
    for name in PARAM_NAMES:
        p = getattr(model, name)
        g = np.zeros_like(p, dtype=float)
        it = np.nditer(g, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            for sign in (+1, -1):
                bumped = {n: getattr(model, n).copy() for n in PARAM_NAMES}
                bumped[name][ix] += sign * step
                val = loss_fn(ToyModel(**bumped), X, stats)[0]
                g[ix] += sign * val
            g[ix] /= 2 * step
            it.iternext()
        grads.append(g)
    return grads


@pytest.mark.parametrize("kind", sorted(LOSS_FUNCTIONS))
def test_gradients_match_finite_differences(kind):
    loss_fn = LOSS_FUNCTIONS[kind]
    for seed in range(10):
        X, model, stats = random_setup(seed)
        _, analytic = loss_fn(model, X, stats)
        numeric = numerical_gradients(loss_fn, model, X, stats)
        for g_a, g_n in zip(analytic, numeric):
            denom = max(np.abs(g_a).max(), np.abs(g_n).max(), 1e-8)
            assert np.abs(g_a - g_n).max() / denom < 1e-4


def test_toy_predict_identity_configuration():
    # source stats with unit scale / zero bias is plain standardized linear
    X, model, stats = random_setup(0)
    d = X.shape[1]
    model = ToyModel(np.ones(d), np.zeros(d), model.head_weights, model.head_bias)
    probs, new_stats = toy_predict(model, X, stats, 0.0)
    xhat = (X - stats.mean) / np.sqrt(stats.var + 1e-5)
    U = xhat @ model.head_weights.T + model.head_bias
    expected = np.exp(U - U.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.allclose(probs, expected, atol=1e-15)
    assert new_stats is stats or np.array_equal(new_stats.mean, stats.mean)


def test_toy_predict_degenerate_batch_uses_head_bias():
    X, model, stats = random_setup(1)
    d = X.shape[1]
    model = ToyModel(np.ones(d), np.zeros(d), model.head_weights, model.head_bias)
    Xrep = np.tile(X[0], (5, 1))
    probs, _ = toy_predict(model, Xrep, stats, 1.0)
    b = model.head_bias
    expected = np.exp(b - b.max())
    expected /= expected.sum()
    assert np.allclose(probs, expected[None, :], atol=1e-12)


def test_blend_stats_formula():
    X, _, stats = random_setup(2)
    out = blend_stats(stats, X, 0.1)
    assert np.allclose(out.mean, 0.9 * stats.mean + 0.1 * X.mean(axis=0), atol=1e-15)
    assert np.allclose(out.var, 0.9 * stats.var + 0.1 * X.var(axis=0), atol=1e-15)
    same = blend_stats(stats, X, 0.0)
    assert same is stats


def test_zero_lr_leaves_model_unchanged():
    X, model, stats = random_setup(3)
    for step_fn in (entropy_min_step, pseudo_label_step, shot_im_step):
        out, _ = step_fn(model, X, AdaptConfig(lr=0.0, partition="all"), stats)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(out, name), getattr(model, name))


@pytest.mark.parametrize("partition", PARTITIONS)
def test_partition_masking_bitwise(partition):
    X, model, stats = random_setup(4)
    out, _ = entropy_min_step(model, X, AdaptConfig(lr=0.05, partition=partition), stats)
    frozen = {
        "pre_transform_only": ("head_weights", "head_bias"),
        "head_only": ("scale", "bias"),
        "all": (),
    }[partition]
    for name in PARAM_NAMES:
        if name in frozen:
            assert np.array_equal(getattr(out, name), getattr(model, name))
        else:
            assert not np.array_equal(getattr(out, name), getattr(model, name))


def test_heavy_ball_doubles_displacement_with_constant_gradient():
    # with identical gradients, the second step moves 1.9x the first
    X, model, stats = random_setup(5)
    cfg = AdaptConfig(lr=0.01, momentum=0.9, partition="all")
    _, grads = entropy_min_loss(model, X, stats)
    from lame_tta.toy import _sgd_step

    m1, v1 = _sgd_step(model, grads, cfg, None)
    m2, v2 = _sgd_step(m1, grads, cfg, v1)
    for name in PARAM_NAMES:
        d1 = getattr(m1, name) - getattr(model, name)
        d2 = getattr(m2, name) - getattr(m1, name)
        assert np.allclose(d2, 1.9 * d1, rtol=1e-12)


def test_entropy_step_decreases_loss_for_small_lr():
    for seed in range(5):
        X, model, stats = random_setup(seed, N=24)
        base, _ = entropy_min_loss(model, X, stats)
        decreased = False
        for lr in (1e-3, 1e-4, 1e-5):
            out, _ = entropy_min_step(model, X, AdaptConfig(lr=lr, partition="all"), stats)
            if entropy_min_loss(out, X, stats)[0] < base:
                decreased = True
                break
        assert decreased


def test_shot_im_single_sample_loss_is_zero():
    X, model, stats = random_setup(6, N=1)
    loss, grads = shot_im_loss(model, X, stats)
    assert loss == 0.0
    for g in grads:
        assert np.allclose(g, 0.0, atol=1e-18)


def test_pseudo_label_confident_model_tiny_step():
    X, model, stats = random_setup(7)
    confident = ToyModel(
        model.scale, model.bias, 50.0 * model.head_weights, model.head_bias
    )
    out, _ = pseudo_label_step(confident, X, AdaptConfig(lr=0.1, partition="head_only"), stats)
    assert np.max(np.abs(out.head_weights - confident.head_weights)) < 1e-6


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(lr=-0.1)
    with pytest.raises(ValueError):
        AdaptConfig(lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        AdaptConfig(lr=0.1, stat_momentum=2.0)
    with pytest.raises(ValueError):
        AdaptConfig(lr=0.1, partition="everything")


def toy2d_stream(seed, n=800, batch_size=16):
    data, model, stats = generate_toy2d(n, seed)
    spec = ScenarioSpec(
        source="toy2d", sampling="non_iid", batch_size=batch_size, seed=seed
    )
    return make_stream(data, spec), model, stats


def test_collapse_demo_zero_lr_is_frozen_baseline():
    stream, model, stats = toy2d_stream(0)
    series = collapse_demo([0.0], stream, model, stats)
    ent, acc = series[0.0]
    # recompute the frozen model's cumulative accuracy independently
    correct = 0
    total = 0
    expected = []
    for batch in stream:
        probs, _ = toy_predict(model, batch.features, stats, 0.0)
        correct += int((probs.argmax(axis=1) == batch.labels).sum())
        total += len(batch)
        expected.append(correct / total)
    assert np.array_equal(acc, expected)


def test_collapse_demo_shapes_and_finiteness():
    stream, model, stats = toy2d_stream(1)
    series = collapse_demo([0.001, 0.1], stream[:50], model, stats)
    assert set(series) == {0.001, 0.1}
    for ent, acc in series.values():
        assert len(ent) == 50 and len(acc) == 50
        assert np.all(np.isfinite(ent))
        assert np.all((acc >= 0) & (acc <= 1))


def test_collapse_demo_high_lr_reduces_entropy():
    drops = 0
    for seed in range(5):
        stream, model, stats = toy2d_stream(seed)
        series = collapse_demo([0.1], stream, model, stats)
        ent, _ = series[0.1]
        drops += ent[-1] < ent[0]
    assert drops >= 4


def test_collapse_demo_requires_enough_batches():
    _, model, stats = toy2d_stream(2, n=64, batch_size=16)
    with pytest.raises(ValueError, match="empty stream"):
        collapse_demo([0.1], [], model, stats)
