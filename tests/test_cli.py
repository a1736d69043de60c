import argparse
import io
import json
import math
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lame_tta import cli, csvrows, streams
from lame_tta.affinity import KernelSpec
from lame_tta.cli import CORRECT_OUTPUTS, MANIFEST_EXCLUDED, build_parser, main
from lame_tta.config import (
    FAMILY_KEYS,
    ConfigError,
    apply_overrides,
    family_from_kv,
    parse_kv,
    parse_list,
    parse_source,
    scenario_from_kv,
)
from lame_tta.mapping import load_mapping, pool_rows
from lame_tta.numerics import softmax_rows
from lame_tta.solver import lame_correct
from lame_tta.harness import SOLVER_COUNTERS, grid_search, synthetic_family
from lame_tta.streams import (
    Dataset,
    ScenarioSpec,
    SyntheticConfig,
    generate_synthetic,
    load_embeddings,
    make_stream,
    save_embeddings,
)
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


def test_grid_prior_shift_scenario_without_zipf_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "family.cfg",
                f"source = {SMALL_SOURCE}\nscenarios = A,C\nzipf_s = none\nbatch_size = 16\n")
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--method", "lame", "--workers", "1",
                 "--out", str(out)]) == 1
    assert "prior-shift scenarios need a zipf_s value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["scenarios=A,D,A", "seeds=1,0,1"])
def test_family_config_rejects_repeated_letters_and_seeds(tmp_path, capsys, override):
    # a repeated letter or seed would run every one of its cells twice
    key, value = override.split("=")
    with pytest.raises(ConfigError, match="repeated"):
        family_from_kv({"source": SMALL_SOURCE, key: value})
    cfg = write(tmp_path / "family.cfg", f"source = {SMALL_SOURCE}\nbatch_size = 16\n")
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--method", "lame", "--set", override,
                 "--workers", "1", "--out", str(out)]) == 1
    assert "repeated" in capsys.readouterr().err
    assert not out.exists()


def test_parse_list_is_one_rule_for_every_comma_list():
    assert parse_list(" 3, ,1 ,", int, "xs") == [3, 1]
    assert parse_list("d,a", str.upper, "scenarios") == ["D", "A"]
    for text, match in (
        ("1,x", "bad xs list '1,x'"),
        (" , ", "xs list is empty"),
        ("1,2,1", r"repeated xs value\(s\) \[1\]: each would run twice"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_list(text, int, "xs")


def test_parse_source_variants():
    cfg = parse_source("synthetic:K=3,d=2,n_per_class=5")
    assert (cfg.K, cfg.d, cfg.n_per_class) == (3, 2, 5)
    assert parse_source("some/path.bin") == "some/path.bin"
    with pytest.raises(ConfigError):
        parse_source("synthetic:unknown=1")


def test_one_key_value_rule_for_lines_overrides_and_synthetic_parameters():
    for text, where in (("a", "line 1"), ("= 1", "line 1")):
        with pytest.raises(ConfigError, match=where):
            parse_kv(text)
    with pytest.raises(ConfigError, match="override '=1'"):
        apply_overrides({}, ["=1"])
    with pytest.raises(ConfigError, match="synthetic parameter 'K'"):
        parse_source("synthetic:K")
    # overrides apply in turn: a later one wins over the file and earlier ones
    assert apply_overrides({"a": "1"}, ["a=2", " a = 3 "]) == {"a": "3"}


def test_absent_config_keys_take_the_library_defaults():
    assert parse_source("synthetic") == SyntheticConfig()
    assert scenario_from_kv({"source": "synthetic"}) == ScenarioSpec(SyntheticConfig())
    scenarios, seeds = family_from_kv({"source": "synthetic"})
    assert scenarios == synthetic_family(SyntheticConfig()) and seeds == [ScenarioSpec.seed]


def test_repeated_synthetic_parameter_is_an_error(tmp_path, capsys):
    cfg = write(tmp_path / "s.cfg", f"source = {SMALL_SOURCE},K=6\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "synthetic parameter 'K=6': duplicate key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [
        (f"source = {SMALL_SOURCE}\nbatch_size = abc\n", "'abc' for config key 'batch_size'"),
        ("source = synthetic:d=4,spread=abc\n", "'abc' for synthetic parameter 'spread'"),
        (f"source = {SMALL_SOURCE}\nzipf_s = abc\n", "'abc' for config key 'zipf_s'"),
        ("source = synthetic:K=abc\n", "'abc' for synthetic parameter 'k'"),
    ],
    ids=["int", "float", "zipf_s", "synthetic_int"],
)
def test_config_value_that_fails_to_parse_names_its_key(tmp_path, capsys, text, named):
    cfg = write(tmp_path / "s.cfg", text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"bad value {named}" in capsys.readouterr().err


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
        softmax_rows(data.logits), data.features, KernelSpec(kernel, 3), 64
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
    expected = reference_corrected_csv(probs, data.features, KernelSpec("knn", 5), 16)
    assert (out / "corrected.csv").read_text() == expected


def test_correct_empty_container_writes_header_only(tmp_path):
    inp = make_embedding_file(tmp_path, N=0, K=3)
    out = tmp_path / "out"
    assert main(["correct", "--input", str(inp), "--out", str(out)]) == 0
    assert (out / "corrected.csv").read_text() == "sample,prediction,p0,p1,p2\n"
    assert json.loads((out / "diagnostics.json").read_text()) == []


CORRECT_TIMINGS = {"load_s", "affinity_s", "solve_s", "csv_s", "csv_wait_s"}


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
        softmax_rows(data.logits), data.features, KernelSpec("rbf", 3), 48
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


def test_correct_failure_into_a_reused_out_leaves_no_outputs(tmp_path, capsys):
    # a good run, then runs into the same directory that fail: on a first
    # batch of coincident rows (zero rbf bandwidth) and on a missing input
    good = make_embedding_file(tmp_path, N=32, K=3)
    data = load_embeddings(good)
    bad = tmp_path / "coincident.bin"
    save_embeddings(Dataset(np.repeat(data.features[:1], 32, axis=0), data.logits,
                            data.labels, data.class_count), bad)
    out = tmp_path / "out"
    args = ["correct", "--kernel", "rbf", "--k", "3", "--batch-size", "16", "--out", str(out)]
    for failing, code, message in ((bad, 1, "rbf bandwidth is zero"),
                                   (tmp_path / "missing.bin", 2, "i/o error")):
        assert main(args + ["--input", str(good)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(CORRECT_OUTPUTS)
        assert main(args + ["--input", str(failing)]) == code
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


# five batches of 16 rows, written by the writer thread while the next is solved
PIPELINE_ARGS = ["correct", "--kernel", "knn", "--k", "3", "--batch-size", "16"]


def test_correct_solve_error_during_a_write_exits_1_and_joins_the_writer(
    tmp_path, capsys, monkeypatch
):
    inp = make_embedding_file(tmp_path, N=80, K=3)
    out = tmp_path / "out"
    writing, released = threading.Event(), threading.Event()
    solved, in_flight, overlapped = [], [], []
    write_rows, solve = csvrows.write_rows, cli.lame_correct

    def slow_write(fh, start, Z):
        if start // 16 == 2:
            writing.set()
            # batch 3 is solved while this write waits; then the write goes
            # on long enough that a writer left unjoined would still run
            overlapped.append(released.wait(10))
            time.sleep(0.2)
        write_rows(fh, start, Z)

    def failing_solve(Q, W):
        solved.append(len(solved))
        if solved[-1] == 3:
            assert writing.wait(10)
            in_flight.append(not released.is_set())
            released.set()
            raise ValueError("batch 3 does not solve")
        return solve(Q, W)

    monkeypatch.setattr(csvrows, "write_rows", slow_write)
    monkeypatch.setattr(cli, "lame_correct", failing_solve)
    threads = threading.active_count()
    assert main_bounded(PIPELINE_ARGS + ["--input", str(inp), "--out", str(out)]) == 1
    assert "batch 3 does not solve" in capsys.readouterr().err
    assert in_flight == overlapped == [True]
    assert solved == [0, 1, 2, 3]
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


def test_correct_write_error_exits_2_after_one_more_solve(tmp_path, capsys, monkeypatch):
    inp = make_embedding_file(tmp_path, N=80, K=3)
    out = tmp_path / "out"
    solved = []
    write_rows, solve = csvrows.write_rows, cli.lame_correct

    def failing_write(fh, start, Z):
        if start // 16 == 2:
            raise OSError("disk full on batch 2")
        write_rows(fh, start, Z)

    def counted_solve(Q, W):
        solved.append(len(solved))
        return solve(Q, W)

    monkeypatch.setattr(csvrows, "write_rows", failing_write)
    monkeypatch.setattr(cli, "lame_correct", counted_solve)
    threads = threading.active_count()
    assert main_bounded(PIPELINE_ARGS + ["--input", str(inp), "--out", str(out)]) == 2
    assert "disk full on batch 2" in capsys.readouterr().err
    # batch 3 was solved while batch 2 was written; batch 4 never is
    assert solved == [0, 1, 2, 3]
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


def test_correct_write_and_next_solve_both_failing_exit_1(tmp_path, capsys, monkeypatch):
    inp = make_embedding_file(tmp_path, N=80, K=3)
    out = tmp_path / "out"
    solving = threading.Event()
    solved = []
    write_rows, solve = csvrows.write_rows, cli.lame_correct

    def failing_write(fh, start, Z):
        if start // 16 == 2:
            # fails only once batch 3 is being solved
            assert solving.wait(10)
            raise OSError("disk full on batch 2")
        write_rows(fh, start, Z)

    def failing_solve(Q, W):
        solved.append(len(solved))
        if solved[-1] == 3:
            solving.set()
            raise ValueError("batch 3 does not solve")
        return solve(Q, W)

    monkeypatch.setattr(csvrows, "write_rows", failing_write)
    monkeypatch.setattr(cli, "lame_correct", failing_solve)
    threads = threading.active_count()
    assert main_bounded(PIPELINE_ARGS + ["--input", str(inp), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "batch 3 does not solve" in err and "disk full" not in err
    assert solved == [0, 1, 2, 3]
    assert list(out.iterdir()) == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("slow", ["writer", "solve"])
def test_correct_csv_equals_sequential_writes_whichever_side_is_slow(
    tmp_path, monkeypatch, slow
):
    inp = make_embedding_file(tmp_path, N=WIDE_ROWS, K=WIDE_K, d=8)
    data = load_embeddings(inp)
    probs = softmax_rows(data.logits)
    kernel = KernelSpec("knn", 3)
    expected = io.BytesIO()
    csvrows.write_header(expected, WIDE_K)
    for start in range(0, WIDE_ROWS, 32):
        sl = slice(start, start + 32)
        Z, _ = lame_correct(probs[sl], kernel.build(data.features[sl]))
        csvrows.write_rows(expected, start, Z)

    target, name = (csvrows, "write_rows") if slow == "writer" else (cli, "lame_correct")
    fn = getattr(target, name)

    def slowed(*args):
        time.sleep(0.02)
        return fn(*args)

    monkeypatch.setattr(target, name, slowed)
    out = tmp_path / "out"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the two threads trade the interpreter often
    try:
        assert main_bounded(["correct", "--input", str(inp), "--kernel", "knn", "--k", "3",
                             "--batch-size", "32", "--out", str(out)]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert (out / "corrected.csv").read_bytes() == expected.getvalue()


def test_correct_overflowing_features_exit_1_without_csv(tmp_path, capsys):
    # the container holds float32 features, so rows near 1e200 can only
    # arrive as inf, and the loader rejects them; finite float32 rows never
    # overflow the kernels' float64 distances (test_affinity covers that check)
    inp = make_embedding_file(tmp_path, N=16, K=3)
    data = load_embeddings(inp)
    save_embeddings(
        Dataset(np.copysign(np.inf, data.features), data.logits, data.labels,
                data.class_count), inp
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
    expected = reference_corrected_csv(probs, data.features, KernelSpec("rbf", 5), 512)
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
        softmax_rows(data.logits), data.features, KernelSpec("rbf", 5), 128
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


def test_simulate_stream_csv_rebuilds_every_batch(tmp_path):
    # sample_index is the dataset row of each stream position, so the
    # container and stream.csv alone give back each batch's samples
    cfg = write(
        tmp_path / "scenario.cfg",
        f"source = {SMALL_SOURCE}\nsampling = non_iid\nzipf_s = 1.0\n"
        "batch_size = 16\nseed = 3\n",
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    saved = load_embeddings(out / "dataset.lame.bin")
    table = np.loadtxt(out / "stream.csv", delimiter=",", skiprows=1, dtype=np.int64)
    spec = scenario_from_kv(json.loads((out / "manifest.json").read_text())["config"])
    data, _, _ = generate_synthetic(spec.source, spec.seed)
    stream = make_stream(data, spec)
    assert np.array_equal(table[:, 0], np.repeat(np.arange(len(stream)), [len(b) for b in stream]))
    for b, batch in enumerate(stream):
        rows = table[table[:, 0] == b, 1]
        assert np.array_equal(saved.features[rows], batch.features.astype(np.float32))
        assert np.array_equal(saved.labels[rows], batch.labels)


def test_simulate_builds_no_probabilities(tmp_path, monkeypatch):
    # stream.csv and summary.json come from the stream order alone, so a
    # mapped stream is written without any softmax or pooling
    def refuse(logits, mapping):
        raise ValueError("simulate built source probabilities")

    monkeypatch.setattr(streams, "source_probs", refuse)
    mapping = write(tmp_path / "map.tsv", "0\tA\n1\tA\n2\tB\n3\tB\n")
    cfg = write(
        tmp_path / "scenario.cfg",
        f"source = {SMALL_SOURCE}\nsampling = non_iid\nzipf_s = 1.0\n"
        f"batch_size = 16\nmapping = {mapping}\n",
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0


def test_simulate_mapping_leaves_trailing_classes_unmapped(tmp_path):
    # a mapping that lists classes 0-3 of 8 leaves 4-7 unmapped, in a
    # config as in `lame correct`
    mapping = write(tmp_path / "map.tsv", "0\tA\n1\tA\n2\tB\n3\tB\n")
    cfg = write(
        tmp_path / "scenario.cfg",
        "source = synthetic:K=8,d=6,n_per_class=20\nbatch_size = 16\n"
        f"mapping = {mapping}\n",
    )
    out = tmp_path / "sim"
    with pytest.warns(UserWarning, match="dropping 80 samples whose source class is unmapped"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_samples_stream"] == 80 and summary["class_count"] == 8
    rows = np.loadtxt(out / "stream.csv", delimiter=",", skiprows=1, dtype=np.int64)[:, 1]
    assert np.all(load_embeddings(out / "dataset.lame.bin").labels[rows] < 4)


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


def test_grid_manifest_round_trip_with_seed_flag(tmp_path):
    # the manifest echoes the --seed that ran, not the config's seeds
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A,D\nbatch_size = 16\nseeds = 0,1\n",
    )
    out1 = tmp_path / "g1"
    assert main(["grid", "--config", str(cfg), "--method", "lame", "--seed", "4",
                 "--workers", "1", "--out", str(out1)]) == 0
    config = json.loads((out1 / "manifest.json").read_text())["config"]
    cfg2 = write(
        tmp_path / "from_manifest.cfg",
        "".join(f"{k} = {config[k]}\n" for k in FAMILY_KEYS if k in config),
    )
    out2 = tmp_path / "g2"
    assert main(["grid", "--config", str(cfg2), "--method", config["method"],
                 "--workers", "1", "--out", str(out2)]) == 0
    names = ("grid_results.csv", "grid_table.csv", "best.json")
    assert [(out1 / n).read_bytes() for n in names] == [(out2 / n).read_bytes() for n in names]


def test_manifest_echoes_every_parsed_argument(tmp_path):
    # a new flag cannot drop out of the manifest: each destination of each
    # subcommand is echoed or deliberately excluded
    family = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A\nbatch_size = 16\nseeds = 0\n",
    )
    scenario = write(tmp_path / "scenario.cfg", f"source = {SMALL_SOURCE}\nbatch_size = 16\n")
    results = tmp_path / "grid" / "grid_results.csv"
    runs = {
        "correct": ["--input", str(make_embedding_file(tmp_path))],
        "simulate": ["--config", str(scenario)],
        "toy2d": ["--lrs", "0.1", "--seeds", "0", "--batches", "2", "--batch-size", "4"],
        "grid": ["--config", str(family), "--method", "lame", "--workers", "1"],
        "matrix": ["--grid-results", str(results)],
        "sweep": ["--config", str(family), "--sizes", "8", "--workers", "1"],
        "report": ["--results", str(results)],
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(runs)
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([name, *argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == name
        dests = {a.dest for a in sub.choices[name]._actions if a.default is not argparse.SUPPRESS}
        assert dests - MANIFEST_EXCLUDED <= set(manifest["config"]), name


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


def test_toy2d_steps_a_listed_zero_lr_once(tmp_path, monkeypatch):
    # lr 0 is also the baseline; listing it must not run it a second time
    from lame_tta import toy

    calls = []
    step = toy.STEP_FUNCTIONS["entropy_min"]

    def counting_step(*args):
        calls.append(args[2].lr)
        return step(*args)

    monkeypatch.setitem(toy.STEP_FUNCTIONS, "entropy_min", counting_step)
    out = tmp_path / "toy"
    assert main(["toy2d", "--lrs", "0,0.1", "--seeds", "0,1", "--batches", "5",
                 "--batch-size", "8", "--out", str(out)]) == 0
    assert sorted(calls) == [0.0] * 10 + [0.1] * 10
    assert (out / "toy2d_accuracy_lr0.csv").read_bytes() == (
        out / "toy2d_accuracy_baseline.csv").read_bytes()


@pytest.mark.parametrize(
    "batches, batch_size, message",
    [
        ("0", "16", "--batches must be positive, got 0"),
        ("4", "-1", "--batch-size must be positive, got -1"),
        ("1", "1", "--batches times --batch-size must be at least 2 samples, got 1"),
    ],
)
def test_toy2d_bad_stream_size_names_its_flags(tmp_path, capsys, batches, batch_size, message):
    out = tmp_path / "toy"
    assert main(["toy2d", "--lrs", "0.1", "--seeds", "0", "--batches", batches,
                 "--batch-size", batch_size, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--sizes", "8,8"], r"repeated --sizes value(s) [8]"),
        (["sweep", "--sizes", ","], "--sizes list is empty"),
        (["toy2d", "--seeds", "0,1,1"], r"repeated --seeds value(s) [1]"),
        (["toy2d", "--seeds", "0", "--lrs", "0.1,0.1"], r"repeated --lrs value(s) [0.1]"),
    ],
)
def test_repeated_or_empty_list_values_exit_1(tmp_path, capsys, argv, message):
    # a repeated size, seed or learning rate would run (or average) twice
    if argv[0] == "sweep":
        cfg = write(tmp_path / "family.cfg", f"source = {SMALL_SOURCE}\nbatch_size = 16\n")
        argv = [*argv, "--config", str(cfg), "--workers", "1"]
    else:
        argv = [*argv, "--batches", "4", "--batch-size", "8"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_grid_best_json_sums_the_best_specs_solver_counters(tmp_path):
    cfg = write(
        tmp_path / "family.cfg",
        f"source = {SMALL_SOURCE}\nscenarios = A,D\nbatch_size = 16\nseeds = 0,1\n",
    )
    scenarios, seeds = family_from_kv({"source": SMALL_SOURCE, "scenarios": "A,D",
                                       "batch_size": "16", "seeds": "0,1"})
    for method in ("lame", "entropy_min"):
        out = tmp_path / method
        assert main(["grid", "--config", str(cfg), "--method", method, "--workers", "1",
                     "--out", str(out)]) == 0
        best = json.loads((out / "best.json").read_text())
        runs = [r for r in grid_search(scenarios, method, seeds=seeds).runs
                if r.method == best["best"]]
        assert len(runs) == 4  # two scenarios x two seeds
        totals = {key: best[key] for key in SOLVER_COUNTERS}
        if method == "lame":
            # every batch of every run takes at least one iteration
            assert totals["solver_iterations"] >= sum(r.n_batches for r in runs)
            assert totals == {key: sum(getattr(r, key) for r in runs)
                              for key in SOLVER_COUNTERS}
        else:
            assert totals == dict.fromkeys(SOLVER_COUNTERS, 0)


def test_readme_cli_section_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{name} {option}"
        for name, parser in sub.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        # --k must not count as named by --kernel
        if not re.search(re.escape(option) + r"(?![\w-])", section)
    ]
    assert missing == []


def test_readme_library_table_names_every_public_export():
    import lame_tta

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    missing = [
        name for name in lame_tta.__all__
        if not isinstance(getattr(lame_tta, name), type(lame_tta))
        and not re.search("`" + re.escape(name) + r"\b", table)
    ]
    assert missing == []


# backticked words of the library table that are not attributes
README_NON_ATTRIBUTES = {"corrected.csv", "repr", "lame"}


def test_readme_library_table_names_only_existing_names():
    import importlib

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(lame_tta\.\w+)` \|(.*)\|$", section, re.MULTILINE)
    assert len(rows) >= 9
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", contents):
            path = name.split("(", 1)[0]
            if path in README_NON_ATTRIBUTES:
                continue
            target = module
            for part in path.split("."):
                target = getattr(target, part, None)
            if target is None:
                missing.append(f"{module_name}: {name}")
    assert missing == []


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


@pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
def test_correct_has_no_solver_flags(tmp_path, capsys, flag):
    # correct solves with the library's default stopping rule
    argv = ["correct", "--input", str(make_embedding_file(tmp_path)), flag, "1e-6"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
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
    mapping = write(tmp_path / "map.tsv", "0\tA\n9\tB\n")  # lists class 9 of K=8
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
    assert ("missing.bin" if code == 2 else "mapping covers 10 source classes") in err
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
    flag = read_outputs(outs["flag"])
    assert flag == read_outputs(outs["set"])  # the manifests too
    assert flag["sweep.csv"] != (outs["config"] / "sweep.csv").read_bytes()
    assert json.loads(flag["manifest.json"])["seed"] == [7]


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
