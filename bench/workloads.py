"""The benchmark's workloads.

A workload turns the seed into a pool of items (``setup``), runs one item
(``run``, the timed part, as one closed-loop caller) and checks the item's
outputs against the plain-numpy reference (``check``, untimed). Items are
independent, so the timed loop can cycle through the pool.

* ``online-synth``: the frozen acceptance benchmark. Per item (one scenario
  stream A-D of one sub-seed) every LAME batch is one ``harness.run_online``
  call over a one-batch stream; LAME keeps no state between batches, so
  this is the same work as one call over the stream. Then entropy
  minimization and the baseline each run once over the whole stream.
* ``correct-k1000``: ``lame correct`` (in-process ``cli.main``) on a
  container with K=1000 classes, kNN at batch 64.
* ``correct-rbf-pooled``: ``lame correct`` with the RBF kernel at batch 512
  on K=200 source classes pooled through a mapping file onto superclasses,
  some source classes unmapped.

The two ``correct`` workloads also run entropy minimization over the same
rows, so the LAME-versus-adaptation cost is measured at their shapes too.
"""

from __future__ import annotations

import math
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from lame_tta import cli, harness, streams
from lame_tta.affinity import KernelSpec
from lame_tta.harness import MethodSpec, Scenario
from lame_tta.streams import Dataset, ScenarioSpec, SyntheticConfig
from lame_tta.toy import AdaptConfig

K_NEIGHBOURS = 5
ADAPT = MethodSpec("entropy_min", adapt=AdaptConfig(lr=0.01))
# Entropy minimization over one stream takes milliseconds, so each item
# times this many runs back to back.
ADAPT_ROUNDS = 3


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent per-item seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class ItemResult:
    """Timed figures of one item, then what its check found."""

    samples: int = 0
    lame_s: float = 0.0
    batch_s: list[float] = field(default_factory=list)
    adapt_samples: int = 0
    adapt_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    hits: int = 0
    labeled: int = 0
    output_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: object = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.errors.append(why)


def _run_adaptation(res: ItemResult, stream, source, seed: int):
    t0 = perf_counter()
    try:
        for _ in range(ADAPT_ROUNDS):
            out = harness.run_online(stream, ADAPT, seed, "adapt", source)
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    res.adapt_s = perf_counter() - t0
    res.adapt_samples = ADAPT_ROUNDS * sum(len(b) for b in stream)
    return out


def _check_adaptation(res: ItemResult, out, n_batches: int, class_count: int) -> None:
    res.attempted += 1
    if isinstance(out, Exception):
        res.fail(1, f"entropy_min raised {out!r}")
    elif (
        out.n_batches != n_batches
        or not math.isfinite(out.overall_accuracy)
        or any(p.min(initial=0) < 0 or p.max(initial=0) >= class_count
               for p in out.batch_predictions)
    ):
        res.fail(1, "entropy_min returned malformed predictions")


# ---------------------------------------------------------------------------
# online-synth
# ---------------------------------------------------------------------------


@dataclass
class SynthItem:
    scenario: str
    seed: int
    stream: list
    source: tuple


class OnlineSynth:
    name = "online-synth"
    capture_z = True
    trace_items = 4  # the traced run repeats scenarios A-D of one sub-seed
    lame = MethodSpec("lame", kernel=KernelSpec("knn", K_NEIGHBOURS))
    baseline = MethodSpec("baseline")
    batch_size = 32
    zipf_s = 1.0

    def __init__(self, tiny: bool = False):
        n_per_class = 40 if tiny else 600
        self.config = SyntheticConfig(
            K=8, d=16, n_per_class=n_per_class,
            cluster_spread=0.35, rotation_angle=0.5, noise_sigma=0.25,
        )
        self.sub_seed_count = 1 if tiny else 3

    def setup(self, seed: int, workdir: Path) -> list[SynthItem]:
        items = []
        for sub in sub_seeds(seed, self.sub_seed_count):
            for scenario in harness.synthetic_family(self.config, self.batch_size, self.zipf_s):
                stream, source = scenario.build(sub)
                items.append(SynthItem(scenario.scenario_id, sub, stream, source))
        return items

    def warm_up(self, items: list[SynthItem], workdir: Path) -> None:
        item = items[0]
        harness.run_online(item.stream[:1], self.lame, item.seed, item.scenario)
        harness.run_online(item.stream[:2], ADAPT, item.seed, item.scenario, item.source)

    def prepare(self, item: SynthItem):
        return None

    def run(self, item: SynthItem, prepared, tracer) -> ItemResult:
        res = ItemResult()
        predictions = []
        for batch in item.stream:
            tracer.new_batch()
            t0 = perf_counter()
            try:
                out = harness.run_online([batch], self.lame, item.seed, item.scenario)
                predictions.append(out.batch_predictions[0])
            except Exception as exc:  # a failed batch is counted, not fatal
                predictions.append(exc)
            res.batch_s.append(perf_counter() - t0)
        tracer.batch = -1
        res.samples = sum(len(b) for b in item.stream)
        res.lame_s = sum(res.batch_s)
        adapted = _run_adaptation(res, item.stream, item.source, item.seed)
        try:
            baseline = harness.run_online(item.stream, self.baseline, item.seed, item.scenario)
        except Exception as exc:  # counted in check
            baseline = exc
        res.outputs = (predictions, adapted, baseline)
        return res

    def check(self, item: SynthItem, res: ItemResult, solves) -> None:
        predictions, adapted, baseline = res.outputs
        if len(solves) != len(item.stream):
            res.errors.append(f"{len(solves)} solver calls seen for {len(item.stream)} batches")
            solves = [None] * len(item.stream)
        for batch, pred, solve in zip(item.stream, predictions, solves):
            res.attempted += 1
            if isinstance(pred, Exception):
                res.fail(1, f"run_online raised {pred!r}")
                continue
            Z_ref, _ = ref.solve(batch.probs, ref.affinity(batch.features, "knn", K_NEIGHBOURS))
            why = ref.check(solve.Z if solve else None, Z_ref, pred)
            if why:
                res.fail(1, f"{item.scenario}/{item.seed}: {why}")
            res.hits += int((pred == batch.labels).sum())
            res.labeled += len(batch)
        _check_adaptation(res, adapted, len(item.stream), self.config.K)
        res.attempted += 1
        if isinstance(baseline, Exception):
            res.fail(1, f"baseline raised {baseline!r}")
        elif any(ref.check_predictions(p, b.probs)
                 for p, b in zip(baseline.batch_predictions, item.stream)):
            res.fail(1, "baseline predictions differ from the source argmax")
        res.outputs = None


# ---------------------------------------------------------------------------
# lame correct on an embedding container
# ---------------------------------------------------------------------------

# A milder shift than the online benchmark's, so the source logits stay
# informative at these class counts.
CORRECT_SHIFT = dict(cluster_spread=0.25, rotation_angle=0.2, noise_sigma=0.1)
NULL_LABEL = "__null__"
WARM_UP_ROWS = 64
_HEADER = struct.Struct("<4sIQIII")


@dataclass
class CorrectItem:
    path: Path
    seed: int
    rows: int
    source: tuple


class CorrectContainer:
    capture_z = False

    def __init__(self, name, K, d, n_per_class, rows, batch_size, kernel, containers, pooled,
                 trace_items):
        self.name = name
        self.rows = rows
        self.trace_items = trace_items
        self.config = SyntheticConfig(K=K, d=d, n_per_class=n_per_class, **CORRECT_SHIFT)
        self.batch_size = batch_size
        self.kernel = kernel
        self.containers = containers
        self.pooled = pooled
        self.mapping_path: Path | None = None
        self.targets: np.ndarray | None = None

    def _write_mapping(self, rng, workdir: Path) -> None:
        """Source classes split evenly over K/10 superclasses, with K/10 of
        them unmapped; file lines in source order."""
        K = self.config.K
        order = rng.permutation(K)
        group = np.full(K, -1)
        groups = K // 10
        group[order[groups:]] = np.arange(K - groups) % groups
        lines = [f"{c}\t{NULL_LABEL if g < 0 else f'super{g:02d}'}" for c, g in enumerate(group)]
        self.mapping_path = workdir / "mapping.tsv"
        self.mapping_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # target indices follow the first appearance of each label
        first_seen: dict[int, int] = {}
        for g in group:
            if g >= 0:
                first_seen.setdefault(int(g), len(first_seen))
        self.targets = np.array([first_seen.get(int(g), -1) for g in group])

    def _container(self, sub: int, rows: slice = slice(None)) -> tuple[Dataset, tuple]:
        data, model, stats = streams.generate_synthetic(self.config, sub)
        order = np.random.default_rng(sub).permutation(len(data))[rows]
        data = Dataset(data.features[order], data.logits[order], data.labels[order],
                       data.class_count)
        return data, (model, stats)

    def setup(self, seed: int, workdir: Path) -> list[CorrectItem]:
        if self.pooled:
            self._write_mapping(np.random.default_rng(seed), workdir)
        items = []
        for j, sub in enumerate(sub_seeds(seed, self.containers)):
            data, source = self._container(sub, slice(0, self.rows))
            path = workdir / f"container{j}.lame.bin"
            streams.save_embeddings(data, path)
            items.append(CorrectItem(path, sub, len(data), source))
        return items

    def warm_up(self, items: list[CorrectItem], workdir: Path) -> None:
        item = items[0]
        data, _ = self._container(item.seed, slice(0, WARM_UP_ROWS))
        path = workdir / "warm.lame.bin"
        streams.save_embeddings(data, path)
        cli.main(self._argv(path, workdir / "warm"))
        stream = self.prepare(CorrectItem(path, item.seed, len(data), item.source))
        harness.run_online(stream, ADAPT, item.seed, "adapt", item.source)

    def _argv(self, path: Path, out: Path) -> list[str]:
        argv = [
            "correct", "--input", str(path), "--out", str(out),
            "--kernel", self.kernel, "--k", str(K_NEIGHBOURS),
            "--batch-size", str(self.batch_size),
        ]
        if self.pooled:
            argv += ["--mapping", str(self.mapping_path)]
        return argv

    def prepare(self, item: CorrectItem):
        """Clear the last invocation's output; return the container's rows as
        an i.i.d. stream for entropy minimization (source classes, since
        the toy model predicts those)."""
        shutil.rmtree(item.path.parent / "out", ignore_errors=True)
        spec = ScenarioSpec(source=str(item.path), batch_size=self.batch_size)
        stream, _ = Scenario("adapt", spec).build(item.seed)
        return stream

    def run(self, item: CorrectItem, stream, tracer) -> ItemResult:
        res = ItemResult()
        out = item.path.parent / "out"
        tracer.batch = -1
        tracer.count_batches = True
        t0 = perf_counter()
        try:
            code = cli.main(self._argv(item.path, out))
        except Exception as exc:  # counted in check
            code = exc
        res.lame_s = perf_counter() - t0
        tracer.count_batches = False
        tracer.batch = -1
        res.output_bytes = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        res.samples = item.rows
        # the CLI shows no per-batch timing: each batch of the container
        # counts with the invocation's wall per batch
        batches = -(-item.rows // self.batch_size)
        res.batch_s = [res.lame_s / batches] * batches
        adapted = _run_adaptation(res, stream, item.source, item.seed)
        res.outputs = (code, out / "corrected.csv", adapted, len(stream))
        return res

    def check(self, item: CorrectItem, res: ItemResult, solves) -> None:
        code, csv_path, adapted, adapt_batches = res.outputs
        res.outputs = None
        n_batches = len(res.batch_s)
        res.attempted += n_batches
        _check_adaptation(res, adapted, adapt_batches, self.config.K)
        if code != 0:
            res.fail(n_batches, f"lame correct exited with {code!r}")
            return
        X, logits, labels = read_container(item.path)
        Q = ref.softmax(logits)
        if self.pooled:
            Q = ref.pool_mean(Q, self.targets, int(self.targets.max()) + 1)
            labels = self.targets[labels]
        try:
            Z, predictions = read_corrected(csv_path, item.rows, Q.shape[1])
        except ValueError as exc:
            res.fail(n_batches, f"corrected.csv: {exc}")
            return
        for start in range(0, item.rows, self.batch_size):
            sl = slice(start, start + self.batch_size)
            Z_ref, _ = ref.solve(Q[sl], ref.affinity(X[sl], self.kernel, K_NEIGHBOURS))
            why = ref.check(Z[sl], Z_ref, predictions[sl])
            if why:
                res.fail(1, f"container {item.seed} rows {start}+: {why}")
        scored = labels >= 0
        res.hits += int((predictions[scored] == labels[scored]).sum())
        res.labeled += int(scored.sum())


def read_container(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, logits and labels of a labeled embedding container, read
    straight from its documented byte layout."""
    blob = Path(path).read_bytes()
    _, _, n, d, k, _ = _HEADER.unpack_from(blob, 0)
    rec = np.frombuffer(
        blob,
        dtype=np.dtype([("x", "<f4", (d,)), ("logits", "<f4", (k,)), ("label", "<u4")]),
        count=n,
        offset=_HEADER.size,
    )
    return (
        rec["x"].astype(np.float64),
        rec["logits"].astype(np.float64),
        rec["label"].astype(np.int64),
    )


def read_corrected(path: Path, rows: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z, predictions) from ``corrected.csv``; raises ValueError when the
    file does not hold one well-formed line per input row."""
    Z = np.empty((rows, classes))
    predictions = np.empty(rows, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["sample", "prediction"] + [f"p{k}" for k in range(classes)]:
            raise ValueError("unexpected header")
        i = -1
        for i, line in enumerate(fh):
            fields = line.split(",")
            if i >= rows or len(fields) != classes + 2 or int(fields[0]) != i:
                raise ValueError(f"malformed line {i + 2}")
            predictions[i] = int(fields[1])
            Z[i] = np.array(fields[2:], dtype=float)
    if i + 1 != rows:
        raise ValueError(f"{i + 1} rows for {rows} inputs")
    return Z, predictions


def make_workload(name: str, tiny: bool = False):
    if name == "online-synth":
        return OnlineSynth(tiny)
    # Many small containers, each from its own mixture, so that one seed's
    # figures average over several draws of class centres.
    if name == "correct-k1000":
        shape = dict(K=50, d=8, n_per_class=2, rows=100) if tiny else dict(
            K=1000, d=64, n_per_class=1, rows=256)
        return CorrectContainer(name, **shape, batch_size=64, kernel="knn",
                                containers=2 if tiny else 6, pooled=False,
                                trace_items=1 if tiny else 2)
    if name == "correct-rbf-pooled":
        shape = dict(K=20, d=8, n_per_class=10, rows=200) if tiny else dict(
            K=200, d=32, n_per_class=10, rows=1024)
        return CorrectContainer(name, **shape, batch_size=512, kernel="rbf",
                                containers=2 if tiny else 5, pooled=True,
                                trace_items=1 if tiny else 2)
    raise ValueError(f"unknown workload {name!r}")

