import io
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from lame_tta import csvrows
from lame_tta.affinity import KernelSpec
from lame_tta.cli import main
from lame_tta.config import (
    ConfigError,
    family_from_kv,
    parse_kv,
    parse_source,
    scenario_from_kv,
)
from lame_tta.mapping import load_mapping, pool_rows
from lame_tta.numerics import softmax_rows
from lame_tta.solver import SolverConfig
from lame_tta.streams import Dataset, SyntheticConfig, load_embeddings, save_embeddings
from oracles import reference_corrected_csv, reference_csv_rows

SMALL_SOURCE = "synthetic:K=4,d=6,n_per_class=50,spread=0.3,rotation=0.4,noise=0.25"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def make_embedding_file(tmp_path, N=48, K=3, d=4, seed=0, labels=True):
    rng = np.random.default_rng(seed)
    data = Dataset(
        features=rng.standard_normal((N, d)).astype(np.float32).astype(np.float64),
        logits=rng.standard_normal((N, K)).astype(np.float32).astype(np.float64),
        labels=np.sort(np.arange(N) % K) if labels else None,
        class_count=K,
    )
    path = tmp_path / "data.bin"
    save_embeddings(data, path)
    return path


def read_outputs(out: Path, exclude=("timings.json",)) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name not in exclude
    }


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_kv_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv("a = 1\na = 2\n")


def test_scenario_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        scenario_from_kv({"source": "synthetic", "typo_key": "1"})


def test_family_config_roundtrip():
    scenarios, seeds = family_from_kv(
        {
            "source": SMALL_SOURCE,
            "scenarios": "A,D",
            "zipf_s": "1.0",
            "batch_size": "16",
            "seeds": "0,1",
        }
    )
    assert seeds == [0, 1]
    assert [sc.scenario_id for sc in scenarios] == ["A", "D"]
    a, d = (sc.spec for sc in scenarios)
    assert isinstance(a.source, SyntheticConfig) and a.source is d.source
    assert a.source.K == 4
    assert (a.sampling, a.prior_shift, a.batch_size) == ("iid", None, 16)
    assert (d.sampling, d.prior_shift, d.batch_size) == ("non_iid", 1.0, 16)


def test_family_config_shares_scenario_key_checks():
    with pytest.raises(ConfigError, match="unknown"):
        family_from_kv({"source": SMALL_SOURCE, "seed": "1"})
    with pytest.raises(ConfigError, match="'source'"):
        family_from_kv({"scenarios": "A"})
    with pytest.raises(ConfigError, match="zipf_s"):
        family_from_kv({"source": SMALL_SOURCE, "scenarios": "A,C", "zipf_s": "none"})


def test_parse_source_variants():
    cfg = parse_source("synthetic:K=3,d=2,n_per_class=5")
    assert (cfg.K, cfg.d, cfg.n_per_class) == (3, 2, 5)
    assert parse_source("some/path.bin") == "some/path.bin"
    with pytest.raises(ConfigError):
        parse_source("synthetic:unknown=1")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_correct_outputs_and_zero_affinity_identity(tmp_path, capsys):
    inp = make_embedding_file(tmp_path)
    out = tmp_path / "out"
    # batch size 1 zeroes the affinity: outputs equal pooled softmax probs
    code = main(
        [
            "correct",
            "--input", str(inp),
            "--kernel", "knn",
            "--k", "5",
            "--batch-size", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "corrected.csv").read_text().strip().splitlines()
    assert lines[0].startswith("sample,prediction,p0")
    data = load_embeddings(inp)
    probs = softmax_rows(data.logits)
    first = lines[1].split(",")
    assert int(first[1]) == int(np.argmax(probs[0]))
    assert np.allclose([float(x) for x in first[2:]], probs[0], atol=1e-9)
    diags = json.loads((out / "diagnostics.json").read_text())
    assert len(diags) == len(data)
    assert all(d["converged"] for d in diags)


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_correct_rejects_non_positive_batch_size(tmp_path, capsys, batch_size):
    inp = make_embedding_file(tmp_path)
    out = tmp_path / "out"
    assert main(["correct", "--input", str(inp), "--batch-size", batch_size,
                 "--out", str(out)]) == 1
    assert "--batch-size must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_correct_rerun_byte_identical(tmp_path):
    inp = make_embedding_file(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["correct", "--input", str(inp), "--kernel", "rbf", "--k", "3",
            "--batch-size", "16"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read_outputs(out1) == read_outputs(out2)


def test_correct_mapping_mismatch_exit_code(tmp_path):
    inp = make_embedding_file(tmp_path, K=3)
    mapping = write(tmp_path / "m.tsv", "0\tA\n1\tB\n2\tB\n9\tC\n")
    code = main(
        ["correct", "--input", str(inp), "--mapping", str(mapping), "--out",
         str(tmp_path / "out")]
    )
    assert code == 1


def test_correct_missing_input_is_io_error(tmp_path):
    code = main(["correct", "--input", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o")])
    assert code == 2


def main_bounded(argv, seconds=120):
    """``main(argv)`` in a thread that must finish within ``seconds``."""
    result = []
    worker = threading.Thread(target=lambda: result.append(main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"lame {argv[0]} still running after {seconds} s"
    return result[0]


WIDE_ROWS, WIDE_K = 160, 1000  # 160k values, many formatter chunks


@pytest.mark.parametrize("kernel", ["knn", "rbf", "linear"])
def test_correct_thousand_classes_match_reference(tmp_path, kernel):
    inp = make_embedding_file(tmp_path, N=WIDE_ROWS, K=WIDE_K, d=8)
    out = tmp_path / "out"
    assert main_bounded(
        ["correct", "--input", str(inp), "--kernel", kernel, "--k", "3",
         "--batch-size", "64", "--out", str(out)]
    ) == 0
    outputs = read_outputs(out)
    assert set(outputs) == {"corrected.csv", "diagnostics.json", "manifest.json"}
    data = load_embeddings(inp)
    expected = reference_corrected_csv(
        softmax_rows(data.logits), data.features, KernelSpec(kernel, 3), 64, SolverConfig()
    )
    assert outputs["corrected.csv"].decode() == expected


def test_correct_small_output_with_mapping_matches_reference(tmp_path):
    inp = make_embedding_file(tmp_path, N=40, K=3)
    mapping = write(tmp_path / "m.tsv", "0\tA\n1\tB\n2\tB\n")
    out = tmp_path / "out"
    assert main_bounded(
        ["correct", "--input", str(inp), "--mapping", str(mapping), "--batch-size", "16",
         "--out", str(out)]
    ) == 0
    data = load_embeddings(inp)
    probs = pool_rows(softmax_rows(data.logits), load_mapping(mapping, source_count=3))
    expected = reference_corrected_csv(
        probs, data.features, KernelSpec("knn", 5), 16, SolverConfig()
    )
    assert (out / "corrected.csv").read_text() == expected


def test_correct_empty_container_writes_header_only(tmp_path):
    inp = make_embedding_file(tmp_path, N=0, K=3)
    out = tmp_path / "out"
    assert main(["correct", "--input", str(inp), "--out", str(out)]) == 0
    assert (out / "corrected.csv").read_text() == "sample,prediction,p0,p1,p2\n"
    assert json.loads((out / "diagnostics.json").read_text()) == []


CORRECT_TIMINGS = {"load_s", "affinity_s", "solve_s", "csv_s"}


def test_correct_timings_json_leaves_the_other_outputs_alone(tmp_path):
    inp = make_embedding_file(tmp_path, N=WIDE_ROWS, K=WIDE_K, d=8)
    argv = ["correct", "--input", str(inp), "--batch-size", "64"]
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main_bounded(argv + ["--out", str(out)]) == 0
    timings = json.loads((outs[0] / "timings.json").read_text())
    assert set(timings) == CORRECT_TIMINGS
    assert all(math.isfinite(v) and v >= 0 for v in timings.values())
    assert set(read_outputs(outs[0])) == {"corrected.csv", "diagnostics.json", "manifest.json"}
    assert read_outputs(outs[0]) == read_outputs(outs[1])


def test_correct_ragged_batches_keep_bytes_and_batch_order(tmp_path):
    # 160 rows in batches of 48: three full, one of 16
    inp = make_embedding_file(tmp_path, N=WIDE_ROWS, K=WIDE_K, d=8)
    out = tmp_path / "out"
    assert main_bounded(
        ["correct", "--input", str(inp), "--kernel", "rbf", "--k", "3",
         "--batch-size", "48", "--out", str(out)]
    ) == 0
    outputs = read_outputs(out)
    diags = json.loads(outputs["diagnostics.json"])
    assert [(d["batch"], d["size"]) for d in diags] == [(0, 48), (1, 48), (2, 48), (3, 16)]
    data = load_embeddings(inp)
    expected = reference_corrected_csv(
        softmax_rows(data.logits), data.features, KernelSpec("rbf", 3), 48, SolverConfig()
    )
    assert outputs["corrected.csv"].decode() == expected


def test_correct_later_batch_error_leaves_no_csv(tmp_path, capsys):
    # the first two batches are solved and written; then the last one, 32
    # coincident rows, has a zero rbf bandwidth
    rng = np.random.default_rng(3)
    features = rng.standard_normal((WIDE_ROWS, 8))
    features[128:] = features[128]
    data = Dataset(
        features=features.astype(np.float32).astype(np.float64),
        logits=rng.standard_normal((WIDE_ROWS, WIDE_K)).astype(np.float32).astype(np.float64),
        labels=None,
        class_count=WIDE_K,
    )
    inp = tmp_path / "data.bin"
    save_embeddings(data, inp)
    out = tmp_path / "out"
    assert main_bounded(
        ["correct", "--input", str(inp), "--kernel", "rbf", "--batch-size", "64",
         "--out", str(out)]
    ) == 1
    assert "rbf bandwidth is zero" in capsys.readouterr().err
    assert not (out / "corrected.csv").exists()


def test_correct_overflowing_features_exit_1_without_csv(tmp_path, capsys):
    # the container holds float32 features, so rows near 1e200 arrive as inf
    # and the loader rejects them; finite float32 rows never overflow the
    # kernels' float64 distances (test_affinity covers that check)
    inp = make_embedding_file(tmp_path, N=16, K=3)
    data = load_embeddings(inp)
    with np.errstate(over="ignore"):
        save_embeddings(
            Dataset(data.features * 1e200, data.logits, data.labels, data.class_count), inp
        )
    for kernel in ("knn", "rbf", "linear"):
        out = tmp_path / kernel
        assert main(["correct", "--input", str(inp), "--kernel", kernel, "--k", "3",
                     "--batch-size", "8", "--out", str(out)]) == 1
        assert "non-finite features" in capsys.readouterr().err
        assert not (out / "corrected.csv").exists()


def test_correct_pooled_twenty_thousand_values_match_reference(tmp_path):
    # 1024 rows of 40 classes pooled onto 20: 20,480 values in two batches
    inp = make_embedding_file(tmp_path, N=1024, K=40, d=8)
    mapping = write(tmp_path / "m.tsv", "".join(f"{c}\tG{c % 20:02d}\n" for c in range(40)))
    out = tmp_path / "out"
    assert main_bounded(
        ["correct", "--input", str(inp), "--kernel", "rbf", "--mapping", str(mapping),
         "--batch-size", "512", "--out", str(out)]
    ) == 0
    data = load_embeddings(inp)
    probs = pool_rows(softmax_rows(data.logits), load_mapping(mapping, source_count=40))
    expected = reference_corrected_csv(
        probs, data.features, KernelSpec("rbf", 5), 512, SolverConfig()
    )
    assert (out / "corrected.csv").read_text() == expected


def test_correct_collapsed_rbf_rows_with_exact_ones_match_reference(tmp_path):
    # dense rbf at batch 128 collapses rows onto one class: their cells are
    # exact 1.0 next to values far below 1e-16
    inp = make_embedding_file(tmp_path, N=256, K=12, d=6, seed=8)
    out = tmp_path / "out"
    assert main(["correct", "--input", str(inp), "--kernel", "rbf", "--batch-size", "128",
                 "--out", str(out)]) == 0
    data = load_embeddings(inp)
    expected = reference_corrected_csv(
        softmax_rows(data.logits), data.features, KernelSpec("rbf", 5), 128, SolverConfig()
    )
    text = (out / "corrected.csv").read_text()
    assert text == expected
    assert text.count(",1.0,") + text.count(",1.0\n") >= 10


def test_csvrows_helper_formats_edge_values_like_repr():
    values = np.array([[0.0, 5e-324, 1e-05], [0.0001, 0.1, 1.0]])
    fh = io.BytesIO()
    csvrows.write_rows(fh, 7, values)
    assert fh.getvalue().decode() == reference_csv_rows(7, np.argmax(values, axis=1), values)
    assert fh.getvalue() == b"7,2,0.0,5e-324,1e-05\n8,2,0.0001,0.1,1.0\n"


def test_simulate_writes_dataset_stream_manifest(tmp_path):
    cfg = write(
        tmp_path / "scenario.cfg",
        f"source = {SMALL_SOURCE}\nsampling = non_iid\nzipf_s = 1.0\n"
        "batch_size = 16\nseed = 3\n",
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    stream = (out / "stream.csv").read_text().strip().splitlines()
    summary = json.loads((out / "summary.json").read_text())
    assert len(stream) - 1 == summary["n_samples_stream"]
    assert (out / "dataset.lame.bin").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 3


def test_simulate_override_and_seed_flag(tmp_path):
    cfg = write(
        tmp_path / "scenario.cfg",
        f"source = {SMALL_SOURCE}\nsampling = iid\nbatch_size = 16\nseed = 0\n",
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
    assert main(
        ["simulate", "--config", str(cfg), "--set", "seed=7", "--out", str(out2)]
    ) == 0
    assert read_outputs(out1) == read_outputs(out2)


def test_simulate_unknown_override_rejected(tmp_path):
    cfg = write(tmp_path / "s.cfg", f"source = {SMALL_SOURCE}\n")
    code = main(
        ["simulate", "--config", str(cfg), "--set", "bogus=1", "--out", str(tmp_path / "o")]
    )
    assert code == 1


def test_manifest_round_trip_reproduces_simulation(tmp_path):
    cfg = write(
        tmp_path / "scenario.cfg",
        f"source = {SMALL_SOURCE}\nsampling = non_iid\nbatch_size = 8\nseed = 5\n",
    )
    out1 = tmp_path / "r1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg2 = write(
        tmp_path / "from_manifest.cfg",
        "".join(f"{k} = {v}\n" for k, v in manifest["config"].items()),
    )
    out2 = tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert read_outputs(out1) == read_outputs(out2)


def test_toy2d_outputs(tmp_path):
    out = tmp_path / "toy"
    code = main(
        ["toy2d", "--lrs", "0.001,0.1", "--seeds", "0,1", "--batches", "50",
         "--batch-size", "16", "--out", str(out)]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names >= {
        "toy2d_entropy_lr0.001.csv",
        "toy2d_entropy_lr0.1.csv",
        "toy2d_accuracy_lr0.001.csv",
        "toy2d_accuracy_lr0.1.csv",
        "toy2d_accuracy_baseline.csv",
        "manifest.json",
    }
    series = (out / "toy2d_accuracy_lr0.1.csv").read_text().strip().splitlines()
    assert series[0] == "x,y"
    assert len(series) == 51
    for path in out.glob("toy2d_*.csv"):
        for line in path.read_text().strip().splitlines()[1:]:
            float(line.split(",")[1])


def test_grid_matrix_sweep_report_pipeline(tmp_path):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A,D\nzipf_s = 1.0\n"
        "batch_size = 16\nseeds = 0,1\n",
    )
    grid_out = tmp_path / "grid"
    assert main(
        ["grid", "--config", str(cfg), "--method", "lame", "--out", str(grid_out),
         "--workers", "1"]
    ) == 0
    results = grid_out / "grid_results.csv"
    assert results.exists()
    best = json.loads((grid_out / "best.json").read_text())
    assert best["method"] == "lame"
    table = (grid_out / "grid_table.csv").read_text().strip().splitlines()
    assert table[0] == "method,A,D"
    assert len(table) == 1 + 3 + 1  # header + grid points + baseline row

    matrix_out = tmp_path / "matrix"
    assert main(
        ["matrix", "--grid-results", str(results), "--out", str(matrix_out)]
    ) == 0
    lines = (matrix_out / "matrix.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 scenarios
    meta = json.loads((matrix_out / "matrix_meta.json").read_text())
    assert meta["diagonal_column_max"] is True

    sweep_out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", str(cfg), "--sizes", "1,8", "--out", str(sweep_out),
         "--workers", "1"]
    ) == 0
    sweep_lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()
    assert sweep_lines[0] == "batch_size,lame_accuracy,baseline_accuracy,gain"
    assert len(sweep_lines) == 3
    row1 = sweep_lines[1].split(",")
    assert row1[0] == "1" and float(row1[3]) == 0.0

    report_out = tmp_path / "report"
    assert main(["report", "--results", str(results), "--out", str(report_out)]) == 0
    summary = json.loads((report_out / "summary.json").read_text())
    methods = {row["method"] for row in summary}
    rows = results.read_text().strip().splitlines()
    assert len(summary) == len({(r.split(",")[0], r.split(",")[1]) for r in rows[1:]})
    assert "baseline" in methods


def test_grid_rerun_byte_identical(tmp_path):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A\nbatch_size = 16\nseeds = 0\n",
    )
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    for out in (out1, out2):
        assert main(
            ["grid", "--config", str(cfg), "--method", "lame", "--out", str(out),
             "--workers", "2"]
        ) == 0
    assert read_outputs(out1) == read_outputs(out2)


@pytest.mark.parametrize(
    "argv",
    [
        ["correct", "--input", "d.bin", "--workers", "2"],
        ["simulate", "--config", "s.cfg", "--workers", "2"],
        ["toy2d", "--workers", "2"],
        ["matrix", "--grid-results", "r.csv", "--workers", "2"],
        ["report", "--results", "r.csv", "--workers", "2"],
        ["correct", "--input", "d.bin", "--seed", "3"],
        ["matrix", "--grid-results", "r.csv", "--seed", "3"],
        ["report", "--results", "r.csv", "--seed", "3"],
        ["toy2d", "--seed", "3", "--batches", "1", "--batch-size", "4"],
        ["correct", "--inp", "d.bin", "--batch", "8"],
        ["grid", "--conf", "s.cfg", "--method", "lame"],
    ],
)
def test_workers_only_on_subcommands_that_use_it(tmp_path, argv):
    # --workers and --seed are offered only where they are honoured, and a
    # prefix of an option (toy2d's --seeds, correct's --input) is an error,
    # so a removed or mistyped flag cannot run as another one
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("subcommand", ["correct", "grid", "sweep"])
def test_non_positive_workers_rejected(tmp_path, capsys, subcommand, workers):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A\nbatch_size = 16\nseeds = 0\n",
    )
    argv = {
        "correct": ["--input", str(make_embedding_file(tmp_path))],
        "grid": ["--config", str(cfg), "--method", "lame"],
        "sweep": ["--config", str(cfg), "--sizes", "8"],
    }[subcommand]
    out = tmp_path / "out"
    assert main([subcommand, *argv, "--workers", workers, "--out", str(out)]) == 1
    # correct has no --workers at all, so the flag is a parse error there
    expected = {
        "correct": f"unrecognized arguments: --workers {workers}",
    }.get(subcommand, "--workers must be positive")
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("failure", ["missing_source", "partial_mapping"])
@pytest.mark.parametrize("subcommand", ["grid", "sweep"])
def test_grid_and_sweep_cell_errors_exit_with_their_code(
    tmp_path, capsys, subcommand, failure, workers
):
    # a cell's I/O error exits 2 and its validation error 1, as in every
    # other subcommand, with the cell named and no traceback
    mapping = write(tmp_path / "map.tsv", "0\tA\n1\tB\n")  # 2 of the 8 classes
    source, extra, code, message = {
        "missing_source": (tmp_path / "missing.bin", "", 2, "i/o error: "),
        "partial_mapping": ("synthetic:K=8,d=6,n_per_class=20", f"mapping = {mapping}\n",
                            1, "error: "),
    }[failure]
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {source}\nscenarios = A\nbatch_size = 16\nseeds = 0\n{extra}",
    )
    argv = {"grid": ["--method", "lame"], "sweep": ["--sizes", "8"]}[subcommand]
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), *argv, "--workers", workers,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message + "grid cell failed: scenario=A seed=0 (building the stream)")
    assert ("missing.bin" if code == 2 else "mapping covers 2 source classes") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_seed_flag_replaces_the_config_seeds(tmp_path):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = B\nbatch_size = 16\nseeds = 0\n",
    )
    outs = {}
    for name, extra in (("flag", ["--seed", "7"]), ("set", ["--set", "seeds=7"]),
                        ("config", [])):
        outs[name] = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--sizes", "4,16", "--workers", "1",
                     "--out", str(outs[name]), *extra]) == 0
    flag = read_outputs(outs["flag"], exclude=("timings.json", "manifest.json"))
    assert flag == read_outputs(outs["set"], exclude=("timings.json", "manifest.json"))
    assert flag["sweep.csv"] != (outs["config"] / "sweep.csv").read_bytes()
    assert json.loads((outs["flag"] / "manifest.json").read_text())["seed"] == [7]


RESULTS_HEADER = (
    "scenario,method,kind,kernel,k,lr,momentum,stat_momentum,partition,"
    "seed,n_samples,n_batches,accuracy"
)


def test_results_header_and_reading_the_old_normalize_features_column(tmp_path):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A,D\nbatch_size = 16\nseeds = 0\n",
    )
    grid_out = tmp_path / "grid"
    assert main(["grid", "--config", str(cfg), "--method", "lame", "--out", str(grid_out),
                 "--workers", "1"]) == 0
    new = grid_out / "grid_results.csv"
    lines = new.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert "lame[kernel=knn;k=5]" in {line.split(",")[1] for line in lines[1:]}
    # results written before the column was dropped carry an (always
    # empty) normalize_features cell after k; matrix and report skip it
    k = lines[0].split(",").index("k")
    old_lines = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        cells.insert(k + 1, "" if i else "normalize_features")
        old_lines.append(",".join(cells))
    old = write(tmp_path / "old_results.csv", "\n".join(old_lines) + "\n")
    for subcommand, flag in (("matrix", "--grid-results"), ("report", "--results")):
        outs = []
        for name, results in (("new", new), ("old", old)):
            outs.append(tmp_path / f"{subcommand}_{name}")
            assert main([subcommand, flag, str(results), "--out", str(outs[-1])]) == 0
        assert read_outputs(outs[0], exclude=("manifest.json",)) == read_outputs(
            outs[1], exclude=("manifest.json",)
        )


def test_matrix_requires_complete_table(tmp_path):
    bad = write(
        tmp_path / "r.csv",
        "scenario,method,kind,kernel,k,normalize_features,lr,momentum,"
        "stat_momentum,partition,seed,n_samples,n_batches,accuracy\n"
        "A,lame[k=1],lame,knn,1,,,,,,0,10,2,0.5\n",
    )
    assert main(["matrix", "--grid-results", str(bad), "--out", str(tmp_path / "m")]) == 1
