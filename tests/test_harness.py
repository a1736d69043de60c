import itertools

import numpy as np
import pytest

from lame_tta import harness, solver, toy
from lame_tta.affinity import KernelSpec
from lame_tta.config import family_from_kv
from lame_tta.harness import (
    RESULT_COLUMNS,
    MethodSpec,
    Scenario,
    aggregate_report,
    baseline_spec,
    batch_size_sweep,
    cross_shift_matrix,
    default_grid,
    grid_search,
    matrix_from_rows,
    results_to_csv,
    rows_from_csv,
    run_grid_jobs,
    run_online,
    seed_means,
    synthetic_family,
)
from lame_tta.streams import Batch, Dataset, ScenarioSpec, SyntheticConfig, save_embeddings
from lame_tta.toy import PARTITIONS, AdaptConfig
from oracles import reference_adapted_run

CFG = SyntheticConfig(K=4, d=6, n_per_class=60, cluster_spread=0.3,
                      rotation_angle=0.4, noise_sigma=0.25)


def scenario(letter="A", batch_size=16, cfg=CFG):
    return synthetic_family(cfg, batch_size=batch_size, letters=(letter,))[0]


def test_prior_shift_scenarios_need_a_zipf_exponent():
    # without one, C and D would be unlabelled copies of A and B
    with pytest.raises(ValueError, match="prior-shift scenarios need a zipf_s value"):
        synthetic_family(CFG, zipf_s=None, letters=("A", "C"))
    unshifted = synthetic_family(CFG, zipf_s=None, letters=("A", "B"))
    assert [sc.spec.prior_shift for sc in unshifted] == [None, None]


def test_baseline_accuracy_equals_source_accuracy():
    sc = scenario("A")
    stream, source = sc.build(0)
    res = run_online(stream, baseline_spec(), 0, "A", source)
    labels = np.concatenate([b.labels for b in stream])
    probs = np.vstack([b.probs for b in stream])
    assert res.overall_accuracy == (probs.argmax(axis=1) == labels).mean()


def test_baseline_invariant_to_batching_and_ordering():
    accs = []
    for letter in ("A", "B"):
        for bs in (1, 8, 32):
            sc = scenario(letter, batch_size=bs)
            stream, source = sc.build(3)
            res = run_online(stream, baseline_spec(), 3, letter, source)
            accs.append(res.overall_accuracy)
    assert len(set(accs)) == 1


def test_lame_batch_size_one_equals_baseline():
    sc = scenario("B", batch_size=1)
    stream, source = sc.build(1)
    lame = MethodSpec("lame", kernel=KernelSpec("knn", 5))
    r_lame = run_online(stream, lame, 1, "B", source)
    r_base = run_online(stream, baseline_spec(), 1, "B", source)
    assert r_lame.overall_accuracy == r_base.overall_accuracy
    for p1, p2 in zip(r_lame.batch_predictions, r_base.batch_predictions):
        assert np.array_equal(p1, p2)


def test_run_online_deterministic_modulo_timings():
    sc = scenario("D")
    stream, source = sc.build(5)
    spec = MethodSpec("lame", kernel=KernelSpec("knn", 3))
    r1 = run_online(stream, spec, 5, "D", source)
    r2 = run_online(stream, spec, 5, "D", source)
    assert r1.overall_accuracy == r2.overall_accuracy
    assert r1.n_batches == r2.n_batches == len(stream)
    for p1, p2 in zip(r1.batch_predictions, r2.batch_predictions):
        assert np.array_equal(p1, p2)


@pytest.mark.parametrize("kind", harness.METHOD_KINDS)
def test_run_online_rejects_an_empty_batch(kind):
    stream, source = scenario("A").build(0)
    empty = Batch(np.empty((0, CFG.d)), np.empty((0, CFG.K)), np.empty(0, np.int64))
    spec = baseline_spec() if kind == "baseline" else default_grid(kind)[0]
    with pytest.raises(ValueError, match="batch 1 is empty"):
        run_online([stream[0], empty, *stream[1:]], spec, 0, "A", source)


def test_run_online_counts_solver_health(monkeypatch):
    stream, source = scenario("A").build(2)
    lame = MethodSpec("lame", kernel=KernelSpec("knn", 5))
    with monkeypatch.context() as m:
        m.setattr(solver, "MAX_ITER", 1)
        res = run_online(stream, lame, 2, "A", source)
    assert res.nonconverged_batches == res.n_batches
    assert res.solver_iterations == res.n_batches
    res = run_online(stream, lame, 2, "A", source)
    assert res.nonconverged_batches == 0 and res.solver_iterations > res.n_batches
    base = run_online(stream, baseline_spec(), 2, "A", source)
    assert (base.solver_iterations, base.nonconverged_batches, base.nonmonotone_batches) == (0, 0, 0)


def test_accuracy_recomputable_from_stored_predictions():
    sc = scenario("D")
    stream, source = sc.build(2)
    for spec in (
        baseline_spec(),
        MethodSpec("lame", kernel=KernelSpec("knn", 5)),
        MethodSpec("entropy_min", adapt=AdaptConfig(lr=0.01)),
        MethodSpec("restandardize_only", adapt=AdaptConfig(lr=0.0, stat_momentum=1.0)),
    ):
        res = run_online(stream, spec, 2, "D", source)
        correct = sum(
            int((p == b.labels).sum()) for p, b in zip(res.batch_predictions, stream)
        )
        total = sum(len(b) for b in stream)
        assert res.overall_accuracy == correct / total


def test_lame_second_forward_is_exactly_zero():
    sc = scenario("A")
    stream, source = sc.build(0)
    res = run_online(stream, MethodSpec("lame"), 0, "A", source)
    assert res.timings["second_forward"] == 0.0
    base = run_online(stream, baseline_spec(), 0, "A", source)
    assert base.timings["second_forward"] == 0.0
    assert base.timings["optimization"] == 0.0


def test_nam_needs_source():
    sc = scenario("A")
    stream, _ = sc.build(0)
    with pytest.raises(ValueError, match="source"):
        run_online(stream, MethodSpec("entropy_min", adapt=AdaptConfig(lr=0.01)), 0, "A", None)


def test_nam_runs_record_second_forward_time():
    sc = scenario("B")
    stream, source = sc.build(0)
    res = run_online(
        stream, MethodSpec("entropy_min", adapt=AdaptConfig(lr=0.001)), 0, "B", source
    )
    assert res.timings["second_forward"] > 0.0
    assert res.timings["optimization"] > 0.0


def test_adapted_runs_match_reference_bitwise(monkeypatch):
    # every re-predicted probability must keep the reference's bits
    stream, source = scenario("D").build(4)
    predicted = []

    def recording_predict(*args):
        Q = toy.toy_predict(*args)
        predicted.append(Q)
        return Q

    monkeypatch.setattr(harness, "toy_predict", recording_predict)
    for kind, lr, momentum, stat_momentum, partition in itertools.product(
        ("entropy_min", "pseudo_label", "shot_im"), (0.01, 0.1), (0.0, 0.9), (0.0, 0.1, 1.0),
        PARTITIONS,
    ):
        spec = MethodSpec(kind, adapt=AdaptConfig(lr, momentum, stat_momentum, partition))
        predicted.clear()
        res = run_online(stream, spec, 4, "D", source)
        expected = reference_adapted_run(stream, spec, source)
        assert len(predicted) == len(expected) == len(stream)
        for Q, Q_ref, preds in zip(predicted, expected, res.batch_predictions):
            assert np.array_equal(Q, Q_ref)
            assert np.array_equal(preds, Q_ref.argmax(axis=1))


@pytest.mark.parametrize("kind", ["entropy_min", "pseudo_label", "shot_im"])
def test_adapted_batch_runs_two_forwards(monkeypatch, kind):
    # one forward for the loss and its gradients, one for the re-prediction
    stream, source = scenario("B").build(1)
    forward = toy._forward
    calls = []

    def counting_forward(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(toy, "_forward", counting_forward)
    spec = MethodSpec(kind, adapt=AdaptConfig(lr=0.01, stat_momentum=0.1))
    run_online(stream, spec, 1, "B", source)
    assert len(calls) == 2 * len(stream)


def test_grid_search_single_point():
    sc = [scenario("A"), scenario("D")]
    grid = [MethodSpec("lame", kernel=KernelSpec("knn", 5))]
    out = grid_search(sc, "lame", grid, seeds=[0])
    assert out.best_index == 0
    assert out.best_spec is grid[0]
    assert out.acc.shape == (1, 2)


def test_grid_selection_rule_hand_example():
    from lame_tta.harness import select_best

    # accuracy table [[0.6, 0.2], [0.4, 0.5]]: point 2 wins (mean 0.45 vs 0.40)
    assert select_best(np.array([[0.6, 0.2], [0.4, 0.5]])) == 1
    # ties break toward declaration order
    assert select_best(np.array([[0.5, 0.5], [0.5, 0.5]])) == 0


def test_grid_search_dominant_point_wins():
    sc = [scenario("B"), scenario("D")]
    out = grid_search(sc, "lame", seeds=[0, 1])
    means = out.acc.mean(axis=1)
    assert out.best_index == int(np.argmax(means))
    assert out.best_mean == pytest.approx(means.max())
    # reported mean equals the mean recomputed from the retained table
    assert out.best_mean == pytest.approx(float(out.acc[out.best_index].mean()), abs=1e-12)


def test_grid_search_worker_pool_matches_serial():
    sc = [scenario("A")]
    grid = default_grid("lame")
    serial = grid_search(sc, "lame", grid, seeds=[0, 1], workers=1)
    parallel = grid_search(sc, "lame", grid, seeds=[0, 1], workers=2)
    assert np.array_equal(serial.acc, parallel.acc)
    assert serial.best_index == parallel.best_index
    assert results_to_csv(serial.runs) == results_to_csv(parallel.runs)


def test_grid_jobs_pool_is_capped_at_the_cells(monkeypatch):
    import concurrent.futures

    built = []

    class SerialPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cells = [scenario("A"), scenario("B")]
    two = run_grid_jobs(cells, [baseline_spec()], [0], workers=8)
    assert built == [2]
    one = run_grid_jobs(cells[:1], [baseline_spec()], [0], workers=8)
    assert built == [2]
    assert results_to_csv(two[:1]) == results_to_csv(one)


def test_grid_search_failing_cell_identified():
    bad = Scenario("X", ScenarioSpec(source="/nonexistent.bin", batch_size=4))
    with pytest.raises(Exception, match="scenario=X"):
        run_grid_jobs([bad], [baseline_spec()], [0], workers=1)


def test_grid_cell_errors_keep_their_kind(tmp_path, monkeypatch):
    # a method's ValueError reaches the CLI as a ValueError (exit code 1)
    # with the cell and the method named; anything else propagates unchanged
    rng = np.random.default_rng(0)
    path = tmp_path / "data.bin"
    save_embeddings(
        Dataset(rng.standard_normal((8, 3)), rng.standard_normal((8, 2)),
                np.arange(8) % 2, 2),
        path,
    )
    on_file = Scenario("F", ScenarioSpec(source=str(path), batch_size=4))
    spec = MethodSpec("entropy_min", adapt=AdaptConfig(lr=0.01))
    with pytest.raises(ValueError, match=r"scenario=F seed=0 method=entropy_min\[.*source"):
        run_grid_jobs([on_file], [spec], [0], workers=1)

    def broken(*args):
        raise KeyError("not a cell error")

    monkeypatch.setattr(harness, "run_online", broken)
    with pytest.raises(KeyError, match="not a cell error"):
        run_grid_jobs([scenario("A")], [baseline_spec()], [0], workers=1)


def test_cross_shift_matrix_hand_example():
    acc = np.array([[0.7, 0.3], [0.5, 0.6]])
    baseline = np.array([0.5, 0.5])
    m = cross_shift_matrix(acc, baseline, ["s1", "s2"])
    assert np.allclose(m.values, [[0.2, -0.2], [0.0, 0.1]], atol=1e-15)
    assert m.check_diagonal_dominance()


def test_cross_shift_matrix_single_point_identical_rows():
    acc = np.array([[0.7, 0.6, 0.5]])
    baseline = np.array([0.5, 0.5, 0.5])
    m = cross_shift_matrix(acc, baseline, ["a", "b", "c"])
    assert np.array_equal(m.values[0], m.values[1])
    assert np.array_equal(m.values[0], m.values[2])


def test_cross_shift_matrix_zero_when_equal_to_baseline():
    acc = np.array([[0.5, 0.4], [0.5, 0.4]])
    baseline = np.array([0.5, 0.4])
    m = cross_shift_matrix(acc, baseline, ["a", "b"])
    assert np.all(m.values == 0.0)


def test_cross_shift_diagonal_dominance_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(50):
        H, S = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        acc = rng.random((H, S))
        baseline = rng.random(S)
        m = cross_shift_matrix(acc, baseline, [str(j) for j in range(S)])
        assert m.check_diagonal_dominance()


def test_batch_size_sweep_baseline_flat_and_unit_batch_equal():
    sc = [scenario("D")]
    method = MethodSpec("lame", kernel=KernelSpec("knn", 5))
    points = batch_size_sweep(sc, method, [1, 8, 16], seeds=[0, 1])
    base_accs = {p.baseline_acc for p in points}
    assert len(base_accs) == 1  # per-sample predictions ignore batching
    unit = points[0]
    assert unit.batch_size == 1
    assert unit.method_acc == unit.baseline_acc
    assert unit.gain == 0.0


def test_aggregate_report_examples():
    def fake(scenario_id, acc, seed):
        return {"scenario": scenario_id, "method": "m", "seed": str(seed), "accuracy": repr(acc)}

    rows = aggregate_report([fake("s", 0.4, 0), fake("s", 0.6, 1)])
    assert rows[0]["mean_accuracy"] == pytest.approx(0.5)
    assert rows[0]["std_accuracy"] == pytest.approx(0.14142135623730953, rel=1e-12)
    single = aggregate_report([fake("s", 0.4, 0)])
    assert single[0]["std_accuracy"] == 0.0
    # order invariance
    rows2 = aggregate_report([fake("s", 0.6, 1), fake("s", 0.4, 0)])
    assert rows == rows2


def test_results_csv_round_trip():
    sc = [scenario("A")]
    out = grid_search(sc, "lame", default_grid("lame"), seeds=[0])
    text = results_to_csv(out.runs)
    rows = rows_from_csv(text)
    assert len(rows) == len(out.runs)
    assert {r["method"] for r in rows} == {run.method for run in out.runs}
    m = matrix_from_rows(rows)
    assert m.scenarios == ["A"]
    assert m.check_diagonal_dominance()


def test_rows_from_csv_parses_each_accuracy_once():
    header = ",".join(RESULT_COLUMNS)
    rows = rows_from_csv(f"{header}\nA,m,,,,,,,,0,10,2,0.25\n")
    assert rows[0]["accuracy"] == 0.25
    # a short row has no accuracy cell at all
    with pytest.raises(ValueError, match="line 3: accuracy None is not"):
        rows_from_csv(f"{header}\nA,m,,,,,,,,0,10,2,1\nA,m\n")


def test_seed_means_keep_first_appearance_order():
    means = seed_means([("m", "B", 0.5), ("b", "A", 1.0), ("m", "B", 0.25), ("m", "A", 0.0)])
    assert list(means) == [("m", "B"), ("b", "A"), ("m", "A")]
    assert means == {("m", "B"): 0.375, ("b", "A"): 1.0, ("m", "A"): 0.0}


def test_matrix_from_grid_csv_equals_the_grid_tables():
    # `lame matrix` reads back the seed means `lame grid` selected with:
    # a family listed as D,A comes back in sorted order, bit for bit
    scenarios, seeds = family_from_kv(
        {"source": "synthetic:K=4,d=6,n_per_class=60,spread=0.3,rotation=0.4,noise=0.25",
         "scenarios": "D,A", "batch_size": "16", "seeds": "0,1"}
    )
    result = grid_search(scenarios, "lame", seeds=seeds)
    assert result.scenario_ids == ["D", "A"]
    got = matrix_from_rows(rows_from_csv(results_to_csv(result.runs)))
    want = cross_shift_matrix(result.acc[:, ::-1], result.baseline_acc[::-1], ["A", "D"])
    assert got.scenarios == want.scenarios == ["A", "D"]
    assert got.chosen == want.chosen
    assert got.values.tobytes() == want.values.tobytes()


def test_matrix_from_rows_requires_baseline():
    rows = [
        {
            "scenario": "A",
            "method": "lame[kernel=knn;k=5]",
            "kind": "lame",
            "accuracy": "0.5",
        }
    ]
    with pytest.raises(ValueError, match="baseline"):
        matrix_from_rows(rows)


def test_default_grids_match_declared_sizes():
    assert len(default_grid("lame")) == 3
    assert len(default_grid("entropy_min")) == 3 * 2 * 3 * 3
    assert len(default_grid("restandardize_only")) == 2
    with pytest.raises(ValueError):
        default_grid("unknown")
    # grid_search always runs the baseline, so it is never a grid of its own
    with pytest.raises(ValueError, match="baseline has no hyperparameter grid"):
        default_grid("baseline")
    with pytest.raises(ValueError, match="baseline has no hyperparameter grid"):
        grid_search([scenario("A")], "baseline", [baseline_spec()])


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("entropy_min")
    with pytest.raises(ValueError):
        MethodSpec("bogus")
    label = MethodSpec("lame", kernel=KernelSpec("knn", 3)).label()
    assert "k=3" in label and label.startswith("lame")
