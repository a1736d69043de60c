"""Tests of the benchmark itself; the repository's test suite does not
collect this file. Run from the root of the checkout::

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
from lame_tta import cli, harness, solver  # noqa: E402
from lame_tta.affinity import KernelSpec  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import make_workload, read_container  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    p = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
              "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _input_digest(workload: str, seed: int, workdir: Path) -> str:
    w = make_workload(workload, tiny=True)
    items = w.setup(seed, workdir)
    h = hashlib.sha256()
    for item in items:
        if workload == "online-synth":
            for b in item.stream:
                for a in (b.features, b.probs, b.labels):
                    h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(item.path.read_bytes())
    if getattr(w, "mapping_path", None):
        h.update(w.mapping_path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        digests.append(_input_digest(workload, seed, tmp_path / sub))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_accuracy(workload):
    first = tiny_run(workload, 4, 0)["metrics"]["accuracy"]["value"]
    again = tiny_run(workload, 4, 0)["metrics"]["accuracy"]["value"]
    assert first == again


def _batch(seed=0, n=48, d=6, k=7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    Q = ref.softmax(2.0 * rng.standard_normal((n, k)))
    return X, Q


@pytest.mark.parametrize("kind", ["knn", "rbf"])
def test_reference_matches_the_library(kind):
    X, Q = _batch()
    Z, diag = solver.lame_correct(Q, KernelSpec(kind, 5).build(X))
    Z_ref, iterations = ref.solve(Q, ref.affinity(X, kind, 5))
    assert ref.check(Z, Z_ref, Z.argmax(axis=1)) is None
    assert iterations == diag.iterations


def test_reference_gate_rejects_a_perturbed_z():
    X, Q = _batch()
    Z, _ = solver.lame_correct(Q, KernelSpec("knn", 5).build(X))
    Z_ref, _ = ref.solve(Q, ref.affinity(X, "knn", 5))
    moved = Z.copy()
    a, b = np.argsort(moved[0])[-2:]
    moved[0, a] -= 1e-6  # mass moved within a row: still on the simplex
    moved[0, b] += 1e-6
    assert "Z_ref" in ref.check(moved, Z_ref)
    off = Z.copy()
    off[3, 0] += 1e-6
    assert ref.check(off, Z_ref) == "row off the simplex"
    assert ref.check(np.full_like(Z, np.nan), Z_ref) == "non-finite probability"
    flipped = Z.argmax(axis=1)
    flipped[0] = (flipped[0] + 1) % Z.shape[1]
    assert "argmax" in ref.check(Z, Z_ref, flipped)


def test_reference_pooling_and_softmax():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 6))
    P = ref.softmax(logits)
    assert np.allclose(P.sum(axis=1), 1.0)
    pooled = ref.pool_mean(P, np.array([0, 0, 1, -1, 1, 1]), 2)
    expect = np.stack([P[:, :2].mean(axis=1), P[:, [2, 4, 5]].mean(axis=1)], axis=1)
    assert np.allclose(pooled, expect / expect.sum(axis=1, keepdims=True))


def test_correct_check_rejects_a_tampered_csv(tmp_path):
    w = make_workload("correct-k1000", tiny=True)
    item = w.setup(2, tmp_path)[0]
    tracer = spans.Tracer()
    res = w.run(item, w.prepare(item), tracer)
    csv = tmp_path / "out" / "corrected.csv"
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    top = 2 + int(fields[1])  # moving mass off the top class keeps the row valid
    other = 2 if top != 2 else 3
    fields[top] = repr(float(fields[top]) - 1e-6)
    fields[other] = repr(float(fields[other]) + 1e-6)
    csv.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    w.check(item, res, [])
    assert res.failed == 1 and "Z_ref" in res.errors[0]


def test_tracer_restores_every_patched_attribute():
    before = (cli.lame_correct, harness.lame_correct, harness.run_online,
              KernelSpec.__dict__["build"])
    tracer = spans.Tracer()
    with tracer.installed(spans.TRACED_LAYERS):
        assert cli.lame_correct is not before[0]
        assert harness.lame_correct is cli.lame_correct
    after = (cli.lame_correct, harness.lame_correct, harness.run_online,
             KernelSpec.__dict__["build"])
    assert before == after


def test_spans_nest_and_self_time_never_exceeds_wall(tmp_path):
    w = make_workload("online-synth", tiny=True)
    item = w.setup(1, tmp_path)[0]
    tracer = spans.Tracer(capture_z=True)
    with tracer.installed(spans.TRACED_LAYERS), tracer.span("bench.item"):
        w.run(item, None, tracer)
    own = spans.self_times(tracer.spans)
    dur = np.array([s[2] - s[1] for s in tracer.spans])
    assert np.all(own >= 0) and np.all(own <= dur)
    for s in tracer.spans[1:]:
        parent = tracer.spans[s[3]]
        assert parent[1] <= s[1] <= s[2] <= parent[2]
    assert own.sum() == pytest.approx(dur[0], rel=1e-9)
    solver_batches = [s[4] for s in tracer.spans if tracer.names[s[0]] == "solver.lame_correct"]
    assert solver_batches == list(range(len(item.stream)))


def test_container_reader_matches_the_library(tmp_path):
    w = make_workload("correct-rbf-pooled", tiny=True)
    item = w.setup(3, tmp_path)[0]
    X, logits, labels = read_container(item.path)
    data = cli.load_embeddings(item.path)
    assert np.array_equal(X, data.features) and np.array_equal(logits, data.logits)
    assert np.array_equal(labels, data.labels)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "online-synth", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
