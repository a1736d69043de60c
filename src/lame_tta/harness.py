"""Online evaluation loop, grids, cross-shift transfer matrices, reports.

One loop, :func:`_online`, steps every method through a stream; both
:func:`run_online` and :func:`collapse_demo` consume it.

The harness treats (scenario x method x seed) runs as independent jobs:
every run rebuilds its stream from the seed, processes batches in order
while predicting and adapting simultaneously, and records per-batch
accuracy plus per-stage wall time. Results merge in a canonical order so
reports are identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from .affinity import KernelSpec
from .solver import lame_correct
from .streams import Batch, ScenarioSpec, SyntheticConfig, load_source, make_stream
from .toy import (STEP_FUNCTIONS, AdaptConfig, RunningStats, ToyModel, _entropy, blend_stats,
                  toy_predict)

METHOD_KINDS = ("baseline", "lame", "entropy_min", "pseudo_label", "shot_im", "restandardize_only")
NAM_KINDS = ("entropy_min", "pseudo_label", "shot_im")
SOURCE_MODEL_KINDS = NAM_KINDS + ("restandardize_only",)

STAGES = ("forward_emulation", "optimization", "second_forward")


@dataclass(frozen=True)
class MethodSpec:
    """A method plus its hyperparameters.

    ``kernel`` applies to the lame kind, ``adapt`` to the network-adaptation
    toys and to restandardize_only (which reads only its stat_momentum).
    """

    kind: str
    kernel: KernelSpec | None = None
    adapt: AdaptConfig | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.kind == "lame" and self.kernel is None:
            object.__setattr__(self, "kernel", KernelSpec())
        if self.kind in SOURCE_MODEL_KINDS and self.adapt is None:
            raise ValueError(f"{self.kind} needs an AdaptConfig")

    def hyperparameters(self) -> dict:
        hp: dict = {"kind": self.kind}
        if self.kind == "lame":
            hp.update(kernel=self.kernel.kind, k=self.kernel.k)
        elif self.adapt is not None:
            hp.update(
                lr=self.adapt.lr,
                momentum=self.adapt.momentum,
                stat_momentum=self.adapt.stat_momentum,
                partition=self.adapt.partition,
            )
        return hp

    def label(self) -> str:
        hp = self.hyperparameters()
        inner = ";".join(f"{k}={v}" for k, v in hp.items() if k != "kind")
        return self.kind if not inner else f"{self.kind}[{inner}]"


def baseline_spec() -> MethodSpec:
    return MethodSpec(kind="baseline")


@dataclass
class RunResult:
    scenario_id: str
    method: str
    hyperparameters: dict
    seed: int
    batch_predictions: list[np.ndarray]
    n_samples: int
    overall_accuracy: float
    timings: dict[str, float]
    # LAME solver health summed over the batches; 0 for the other methods
    solver_iterations: int = 0
    nonconverged_batches: int = 0
    nonmonotone_batches: int = 0

    @property
    def n_batches(self) -> int:
        return len(self.batch_predictions)


# RunResult's solver-health counters; `grid` sums them over the runs of
# its best spec
SOLVER_COUNTERS = ("solver_iterations", "nonconverged_batches", "nonmonotone_batches")


@dataclass(frozen=True)
class Scenario:
    """Named scenario; ``build(seed)`` materializes the stream (and the
    frozen source model for synthetic sources)."""

    scenario_id: str
    spec: ScenarioSpec

    def build(self, seed: int) -> tuple[list[Batch], tuple[ToyModel, RunningStats] | None]:
        data, source = load_source(self.spec.source, seed)
        return make_stream(data, replace(self.spec, seed=seed)), source


# Scenario-letter convention used in transfer matrices and reports:
# A = i.i.d., B = non-i.i.d., C = i.i.d. + prior shift, D = non-i.i.d. + prior shift.
SCENARIO_LETTERS = ("A", "B", "C", "D")


def synthetic_family(
    source: SyntheticConfig | str,
    batch_size: int = 32,
    zipf_s: float | None = 1.0,
    letters: tuple[str, ...] = SCENARIO_LETTERS,
    mapping=None,
) -> list[Scenario]:
    out = []
    for letter in letters:
        if letter not in SCENARIO_LETTERS:
            raise ValueError(f"unknown scenario letter {letter!r}")
        if letter in ("C", "D") and zipf_s is None:
            raise ValueError("prior-shift scenarios need a zipf_s value")
        sampling = "iid" if letter in ("A", "C") else "non_iid"
        shift = zipf_s if letter in ("C", "D") else None
        out.append(
            Scenario(
                scenario_id=letter,
                spec=ScenarioSpec(
                    source=source,
                    sampling=sampling,
                    prior_shift=shift,
                    batch_size=batch_size,
                    mapping=mapping,
                ),
            )
        )
    return out


def default_grid(kind: str) -> list[MethodSpec]:
    """The declared hyperparameter grid for each method kind but the
    baseline, which has none: :func:`grid_search` always runs it."""
    if kind == "baseline":
        raise ValueError("the baseline has no hyperparameter grid")
    if kind == "lame":
        return [MethodSpec("lame", kernel=KernelSpec("knn", k)) for k in (1, 3, 5)]
    if kind in NAM_KINDS:
        grid = []
        for lr in (0.001, 0.01, 0.1):
            for momentum in (0.0, 0.9):
                for stat_momentum in (0.0, 0.1, 1.0):
                    for partition in ("pre_transform_only", "head_only", "all"):
                        grid.append(
                            MethodSpec(
                                kind,
                                adapt=AdaptConfig(
                                    lr=lr,
                                    momentum=momentum,
                                    stat_momentum=stat_momentum,
                                    partition=partition,
                                ),
                            )
                        )
        return grid
    if kind == "restandardize_only":
        return [
            MethodSpec("restandardize_only", adapt=AdaptConfig(lr=0.0, stat_momentum=sm))
            for sm in (0.1, 1.0)
        ]
    raise ValueError(f"unknown method kind {kind!r}")


def _validate_stream(stream: list[Batch]) -> tuple[int, int]:
    if not stream:
        raise ValueError("empty stream")
    d = stream[0].features.shape[1]
    K = stream[0].probs.shape[1]
    for i, b in enumerate(stream):
        if b.features.shape[1] != d or b.probs.shape[1] != K:
            raise ValueError(f"batch {i} dimensions disagree with the stream head")
        if b.labels is None:
            raise ValueError(f"batch {i} has no labels; online accuracy needs ground truth")
        if len(b) == 0:
            raise ValueError(f"batch {i} is empty")
    return d, K


def _online(
    stream: list[Batch],
    method: MethodSpec,
    source: tuple[ToyModel, RunningStats] | None,
    timings: dict[str, float],
):
    """Step ``method`` through ``stream`` in order, adding each stage's wall
    time to ``timings``. Yields each batch, its predicted probabilities
    (LAME's Z), their argmax and LAME's ``SolveDiagnostics`` (else None).

    The three timing stages split the per-batch work. For baseline and
    lame, ``forward_emulation`` materializes the source probabilities,
    ``optimization`` is the affinity build and the solve, and
    ``second_forward`` is exactly zero. For the adapted methods
    (entropy_min, pseudo_label, shot_im), ``forward_emulation`` is the
    running-statistics update, ``optimization`` the loss forward, the
    backward pass and the parameter update, and ``second_forward`` the
    re-prediction with the updated model. restandardize_only takes the
    same path without the step: its ``optimization`` is exactly zero.
    """
    d, K = _validate_stream(stream)
    if method.kind in SOURCE_MODEL_KINDS:
        if source is None:
            raise ValueError(f"{method.kind} needs the source model and statistics")
        model, stats = source
        if model.feature_dim != d or model.class_count != K:
            raise ValueError("source model dimensions disagree with the stream")
        velocity = None
        step = STEP_FUNCTIONS.get(method.kind)
    diag = None

    for batch in stream:
        X = batch.features
        if method.kind == "baseline":
            t0 = time.perf_counter()
            Q = np.asarray(batch.probs)
            preds = np.argmax(Q, axis=1)
            timings["forward_emulation"] += time.perf_counter() - t0
        elif method.kind == "lame":
            t0 = time.perf_counter()
            Q = np.asarray(batch.probs)
            timings["forward_emulation"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            Q, diag = lame_correct(Q, method.kernel.build(X))
            preds = np.argmax(Q, axis=1)
            timings["optimization"] += time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            stats = blend_stats(stats, X, method.adapt.stat_momentum)
            timings["forward_emulation"] += time.perf_counter() - t0
            if step is not None:
                t0 = time.perf_counter()
                model, velocity = step(model, X, method.adapt, stats, velocity)
                timings["optimization"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            Q = toy_predict(model, X, stats)
            preds = np.argmax(Q, axis=1)
            timings["second_forward"] += time.perf_counter() - t0
        yield batch, Q, preds, diag


def run_online(
    stream: list[Batch],
    method: MethodSpec,
    seed: int = 0,
    scenario_id: str = "",
    source: tuple[ToyModel, RunningStats] | None = None,
) -> RunResult:
    """Score :func:`_online`'s predictions of each batch against its
    labels; the adapted methods start from ``source``."""
    timings = dict.fromkeys(STAGES, 0.0)
    preds_per_batch: list[np.ndarray] = []
    correct = total = 0
    solver_iterations = nonconverged = nonmonotone = 0

    for batch, _, preds, diag in _online(stream, method, source, timings):
        if diag is not None:
            solver_iterations += diag.iterations
            nonconverged += not diag.converged
            nonmonotone += not diag.monotone
        preds_per_batch.append(preds)
        correct += int((preds == batch.labels).sum())
        total += len(batch)

    return RunResult(
        scenario_id=scenario_id,
        method=method.label(),
        hyperparameters=method.hyperparameters(),
        seed=seed,
        batch_predictions=preds_per_batch,
        n_samples=total,
        overall_accuracy=correct / total,
        timings=timings,
        solver_iterations=solver_iterations,
        nonconverged_batches=nonconverged,
        nonmonotone_batches=nonmonotone,
    )


def collapse_demo(
    lr_values: list[float],
    stream: list[Batch],
    model: ToyModel,
    stats: RunningStats,
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Online entropy minimization over a stream, once per distinct lr, run
    as :func:`run_online` runs it. Returns {lr: (entropy_series,
    accuracy_series)}: each batch's mean prediction entropy and the
    cumulative online accuracy."""
    out: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for lr in dict.fromkeys(map(float, lr_values)):
        # plain heavy-ball on the affine pre-transform with the source
        # statistics throughout exposes the failure mode most clearly, and
        # lr=0 reproduces the frozen model exactly
        method = MethodSpec("entropy_min", adapt=AdaptConfig(lr, momentum=0.9))
        correct = total = 0
        ent_series, acc_series = [], []
        timings = dict.fromkeys(STAGES, 0.0)
        for batch, Q, preds, _ in _online(stream, method, (model, stats), timings):
            correct += int((preds == batch.labels).sum())
            total += len(batch)
            ent_series.append(float(_entropy(Q)[0].mean()))
            acc_series.append(correct / total)
        out[lr] = (np.array(ent_series), np.array(acc_series))
    return out


# ---------------------------------------------------------------------------
# Grid search and transfer matrices
# ---------------------------------------------------------------------------


def _run_cell(args):
    """Every spec's run on one (scenario, seed) stream. A ValueError or an
    OSError comes out as the same kind, which the CLI maps to its exit
    code, with the failing cell named in the message."""
    scenario, seed, specs = args
    step = "(building the stream)"
    try:
        stream, source = scenario.build(seed)
        out = []
        for spec in specs:
            step = f"method={spec.label()}"
            out.append(run_online(stream, spec, seed, scenario.scenario_id, source))
    except (ValueError, OSError) as exc:
        kind = ValueError if isinstance(exc, ValueError) else OSError
        raise kind(
            f"grid cell failed: scenario={scenario.scenario_id} seed={seed} {step}: {exc}"
        ) from exc
    return out


def run_grid_jobs(
    scenarios: list[Scenario],
    specs: list[MethodSpec],
    seeds: list[int],
    workers: int = 1,
) -> list[RunResult]:
    """Run every (scenario, seed) job, evaluating all specs on a shared
    stream; results are returned in canonical (scenario, seed, spec) order
    regardless of scheduling. The pool has no more workers than jobs, and
    one job or one worker runs in this process."""
    jobs = [(sc, seed, specs) for sc in scenarios for seed in seeds]
    workers = min(workers, len(jobs))
    if workers <= 1:
        per_job = [_run_cell(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_job = list(pool.map(_run_cell, jobs))
    return [r for job_results in per_job for r in job_results]


@dataclass
class GridSearchResult:
    method_kind: str
    grid: list[MethodSpec]
    scenario_ids: list[str]
    acc: np.ndarray            # (H, S) seed-mean accuracy
    baseline_acc: np.ndarray   # (S,)
    runs: list[RunResult]
    best_index: int

    @property
    def best_spec(self) -> MethodSpec:
        return self.grid[self.best_index]

    @property
    def best_mean(self) -> float:
        return float(self.acc[self.best_index].mean())


def select_best(acc_table: np.ndarray) -> int:
    """Index of the grid point with the best unweighted mean across
    scenarios; ties go to the earliest declared point."""
    return int(np.argmax(np.asarray(acc_table).mean(axis=1)))


def seed_means(records) -> dict[tuple[str, str], float]:
    """Mean accuracy over seeds of each (method, scenario), from
    ``(method, scenario, accuracy)`` records; keys in first-appearance
    order."""
    groups: dict[tuple[str, str], list[float]] = {}
    for method, scenario, accuracy in records:
        groups.setdefault((method, scenario), []).append(accuracy)
    return {key: np.mean(values) for key, values in groups.items()}


def grid_search(
    scenarios: list[Scenario],
    method_kind: str,
    grid: list[MethodSpec] | None = None,
    seeds: list[int] = (0,),
    workers: int = 1,
) -> GridSearchResult:
    """Evaluate every grid point on every scenario (mean over seeds) and
    select the point with the best unweighted mean across scenarios, ties
    broken by declaration order. Baseline runs are always included."""
    if not scenarios:
        raise ValueError("need at least one scenario")
    if method_kind == "baseline":
        raise ValueError("the baseline has no hyperparameter grid")
    grid = default_grid(method_kind) if grid is None else list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    for spec in grid:
        if spec.kind != method_kind:
            raise ValueError(f"grid entry {spec.label()} is not of kind {method_kind}")
    runs = run_grid_jobs(scenarios, [baseline_spec()] + grid, seeds, workers)

    ids = [sc.scenario_id for sc in scenarios]
    means = seed_means((r.method, r.scenario_id, r.overall_accuracy) for r in runs)
    acc = np.array([[means[(spec.label(), sid)] for sid in ids] for spec in grid])
    return GridSearchResult(
        method_kind=method_kind,
        grid=grid,
        scenario_ids=ids,
        acc=acc,
        baseline_acc=np.array([means[(baseline_spec().label(), sid)] for sid in ids]),
        runs=runs,
        best_index=select_best(acc),
    )


@dataclass
class CrossShiftMatrix:
    """values[i, j]: improvement over baseline on scenario j when using the
    hyperparameters that are optimal for scenario i."""

    scenarios: list[str]
    values: np.ndarray
    chosen: list[int]

    def check_diagonal_dominance(self) -> bool:
        """Each diagonal entry is its column's maximum (exact: every column
        subtracts one baseline value, which preserves the argmax order)."""
        M = self.values
        return bool(np.all(M.diagonal()[None, :] >= M))


def cross_shift_matrix(
    acc_table: np.ndarray, baseline: np.ndarray, scenario_ids: list[str]
) -> CrossShiftMatrix:
    """Build the S x S transfer matrix from an (H, S) accuracy table.

    Row i uses h*_i = argmax_h acc[h, i] (ties by declaration order);
    entry (i, j) is acc[h*_i, j] - baseline[j].
    """
    acc_table = np.asarray(acc_table, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if acc_table.ndim != 2 or acc_table.shape[1] != baseline.shape[0]:
        raise ValueError("accuracy table and baseline disagree on scenario count")
    chosen = [int(np.argmax(acc_table[:, i])) for i in range(acc_table.shape[1])]
    values = np.array([acc_table[h] - baseline for h in chosen])
    return CrossShiftMatrix(scenarios=list(scenario_ids), values=values, chosen=chosen)


@dataclass
class SweepPoint:
    batch_size: int
    method_acc: float
    baseline_acc: float

    @property
    def gain(self) -> float:
        return self.method_acc - self.baseline_acc


def batch_size_sweep(
    scenarios: list[Scenario],
    method: MethodSpec,
    sizes: list[int],
    seeds: list[int] = (0,),
    workers: int = 1,
) -> list[SweepPoint]:
    """Re-run the scenarios at each batch size with the same seeds,
    reporting mean accuracy per size for the method and the baseline."""
    if not sizes or min(sizes) < 1:
        raise ValueError("sizes must be positive")
    points = []
    for size in sizes:
        resized = [
            Scenario(sc.scenario_id, replace(sc.spec, batch_size=size)) for sc in scenarios
        ]
        runs = run_grid_jobs(resized, [baseline_spec(), method], list(seeds), workers)
        m = np.mean([r.overall_accuracy for r in runs if r.method == method.label()])
        b = np.mean([r.overall_accuracy for r in runs if r.method == baseline_spec().label()])
        points.append(SweepPoint(batch_size=size, method_acc=float(m), baseline_acc=float(b)))
    return points


def aggregate_report(rows: list[dict]) -> list[dict]:
    """Per (scenario, method): mean, sample std, min, max of accuracy over
    the rows of a results CSV (:func:`rows_from_csv`, which checks each
    accuracy)."""
    groups: dict[tuple[str, str], list[float]] = {}
    for r in rows:
        groups.setdefault((r["scenario"], r["method"]), []).append(float(r["accuracy"]))
    rows = []
    for (scenario, method) in sorted(groups):
        vals = np.array(groups[(scenario, method)])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        rows.append(
            {
                "scenario": scenario,
                "method": method,
                "runs": len(vals),
                "mean_accuracy": float(vals.mean()),
                "std_accuracy": std,
                "min_accuracy": float(vals.min()),
                "max_accuracy": float(vals.max()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV emission / ingestion
# ---------------------------------------------------------------------------

# named as the keys of MethodSpec.hyperparameters()
HP_COLUMNS = (
    "kind",
    "kernel",
    "k",
    "lr",
    "momentum",
    "stat_momentum",
    "partition",
)
RESULT_COLUMNS = (
    "scenario",
    "method",
    *HP_COLUMNS,
    "seed",
    "n_samples",
    "n_batches",
    "accuracy",
)


def format_value(value) -> str:
    """A CSV cell: floats (numpy float64 too) by the ``repr`` of a Python
    float, None as empty, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header, rows) -> str:
    """CSV text, each line ending in a bare newline, every cell through
    :func:`format_value`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_value(v) for v in row] for row in rows)
    return buf.getvalue()


def results_to_csv(results: list[RunResult]) -> str:
    return csv_text(
        RESULT_COLUMNS,
        (
            [
                r.scenario_id,
                r.method,
                *(r.hyperparameters.get(column) for column in HP_COLUMNS),
                r.seed,
                r.n_samples,
                r.n_batches,
                r.overall_accuracy,
            ]
            for r in results
        ),
    )


def rows_from_csv(text: str) -> list[dict]:
    """The records of a results CSV, each ``accuracy`` parsed to a float:
    a cell that is not a finite number in [0, 1] is an error naming its
    CSV line."""
    reader = csv.DictReader(io.StringIO(text))
    missing = set(RESULT_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"results CSV missing columns: {sorted(missing)}")
    rows = []
    for row in reader:
        try:
            accuracy = float(row["accuracy"])
        except (TypeError, ValueError):  # a short row leaves the cell None
            accuracy = None
        # NaN fails the comparison
        if accuracy is None or not 0.0 <= accuracy <= 1.0:
            raise ValueError(
                f"results CSV line {reader.line_num}: accuracy {row['accuracy']!r} is "
                "not a finite number in [0, 1]"
            )
        rows.append({**row, "accuracy": accuracy})
    return rows


def matrix_from_rows(rows: list[dict]) -> CrossShiftMatrix:
    """Rebuild the transfer matrix from a grid-results CSV (which must
    contain baseline rows). Hyperparameter order follows first appearance."""
    means = seed_means(
        ("baseline" if row["kind"] == "baseline" else row["method"], row["scenario"],
         float(row["accuracy"]))
        for row in rows
    )
    scenario_ids = sorted({sid for _, sid in means})
    methods = list(dict.fromkeys(label for label, _ in means if label != "baseline"))
    if not methods:
        raise ValueError("no non-baseline rows in the results CSV")
    if any(("baseline", sid) not in means for sid in scenario_ids):
        raise ValueError("results CSV lacks baseline rows for every scenario")
    for label in methods:
        for sid in scenario_ids:
            if (label, sid) not in means:
                raise ValueError(f"incomplete table: no rows for {label} on scenario {sid}")
    acc = np.array([[means[(label, sid)] for sid in scenario_ids] for label in methods])
    baseline = np.array([means[("baseline", sid)] for sid in scenario_ids])
    return cross_shift_matrix(acc, baseline, scenario_ids)


def timings_payload(results: list[RunResult]) -> dict:
    out: dict = {}
    for r in results:
        out.setdefault(r.scenario_id or "_", {}).setdefault(r.method, {})[str(r.seed)] = {
            stage: r.timings.get(stage, 0.0) for stage in STAGES
        }
    return out
