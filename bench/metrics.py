"""End-to-end metrics of an untraced run and per-layer metrics of a traced
run. Names and units match BENCHMARK.json; bench/README.md defines them."""

from __future__ import annotations

import resource
import statistics
from time import perf_counter

import numpy as np

from lame_tta import solver
from spans import Tracer, descendants_of, self_times

HARNESS_METHODS = ("lame", "entropy_min", "baseline")
# the keys of RunResult.timings; fixed here so the metric names stay put
STAGES = ("forward_emulation", "optimization", "second_forward")
REPLAY_REPEATS = 3


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps, setup_s: float, attempted: int, failed: int) -> dict:
    """``reps[i]`` holds the ItemResults of item ``i``, one per pass. Each
    item and each batch counts with its median time over the passes;
    accuracy comes from the first pass (it is the same on every pass)."""
    first = [r[0] for r in reps]
    batch_ms = 1e3 * np.concatenate([_median_over_passes(r, "batch_s") for r in reps])
    lame_s = sum(statistics.median(x.lame_s for x in r) for r in reps)
    adapt_s = sum(statistics.median(x.adapt_s for x in r) for r in reps)
    return {
        "setup_s": _metric(setup_s, "s"),
        "samples_per_s": _metric(sum(r.samples for r in first) / lame_s, "1/s"),
        "batch_ms_p50": _metric(np.percentile(batch_ms, 50), "ms"),
        "batch_ms_p99": _metric(np.percentile(batch_ms, 99), "ms"),
        "adapt_samples_per_s": _metric(sum(r.adapt_samples for r in first) / adapt_s, "1/s"),
        "accuracy": _metric(sum(r.hits for r in first) / max(1, sum(r.labeled for r in first)),
                            "share"),
        "pass_share": _metric(1.0 - failed / max(1, attempted), "share"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def _median_over_passes(results, field: str) -> np.ndarray:
    """Element-wise median of a per-batch list over passes; the first
    pass alone when a failure left the passes with different lengths."""
    lists = [np.asarray(getattr(r, field)) for r in results]
    if len({len(x) for x in lists}) > 1:
        return lists[0]
    return np.median(lists, axis=0)


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(REPLAY_REPEATS):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def replay(pairs) -> dict[str, float]:
    """Median ms of the solver's building blocks on captured (Q, W) pairs,
    averaged over the pairs."""
    out = {"clamp_probs": [], "cccp_step": [], "lame_objective": []}
    for Q, W in pairs:
        Qc = solver.clamp_probs(Q)
        out["clamp_probs"].append(_median_ms(solver.clamp_probs, Q))
        out["cccp_step"].append(_median_ms(solver.cccp_step, Qc, Qc, W))
        out["lame_objective"].append(_median_ms(solver.lame_objective, Qc, Qc, W))
    return {k: float(np.mean(v)) if v else 0.0 for k, v in out.items()}


def per_layer(tracer: Tracer, untraced_wall: float, output_bytes: list[int],
              passes: int, setup_repeats: int) -> dict:
    """Per-layer figures from the spans of a traced run.

    Times and counts are per pass over the traced items, plus, for the
    ``streams`` and ``numerics`` functions that mostly run while setting
    up, per set-up. So for one seed every count repeats exactly. Shares are
    self time over the traced items' wall: nested calls count once, and the
    shares of all layers, ``bench`` included, sum to one."""
    spans, names = tracer.spans, tracer.names
    name_of = [names[s[0]] for s in spans]
    items = {i for i, n in enumerate(name_of) if n == "bench.item"}
    inside = descendants_of(spans, items)
    in_setup = descendants_of(spans, {i for i, n in enumerate(name_of) if n == "bench.setup"})
    dur = np.array([s[2] - s[1] for s in spans])
    own = self_times(spans)
    wall = float(dur[sorted(items)].sum())

    def named(name):
        return np.array([n == name for n in name_of], dtype=bool)

    def layer(prefix):
        return np.array([n.startswith(prefix) for n in name_of], dtype=bool) & inside

    def per_pass(values, mask):
        return float(values[mask & inside].sum()) / passes

    def per_run(values, mask):
        return float(values[mask & in_setup].sum()) / setup_repeats + per_pass(values, mask)

    def median_ms(name):
        d = dur[named(name) & inside]
        return 1e3 * float(np.median(d)) if len(d) else 0.0

    def share(mask):
        return float(own[mask & inside].sum()) / wall

    solves = [s for s in tracer.solves if inside[s.span]]
    iterations = sum(s.iterations for s in solves)
    solver_s = per_pass(dur, named("solver.lame_correct"))
    replayed = replay(tracer.replay)
    mapping = layer("mapping.")
    outer_mapping = np.array(
        [bool(m) and (s[3] < 0 or not name_of[s[3]].startswith("mapping."))
         for m, s in zip(mapping, spans)], dtype=bool)
    cli = named("cli.cmd_correct")
    loads = named("streams.load_embeddings")
    load_bytes = sum(size for idx, size in tracer.loads if inside[idx])
    load_s = per_pass(dur, loads)
    traced_layers = np.array([not n.startswith("bench.") for n in name_of], dtype=bool)

    m = {
        "solver.correct_s": (solver_s, "s"),
        "solver.share": (share(layer("solver.")), "share"),
        "solver.calls": (len(solves) / passes, "count"),
        "solver.iterations_total": (iterations / passes, "count"),
        "solver.iterations_max": (max((s.iterations for s in solves), default=0), "count"),
        "solver.ms_per_iter": (1e3 * solver_s * passes / iterations if iterations else 0.0, "ms"),
        "solver.nonconverged": (sum(not s.converged for s in solves) / passes, "count"),
        "solver.nonmonotone": (sum(not s.monotone for s in solves) / passes, "count"),
        # multiply-adds the coupling sum_j w_ij z_jk does over W's nonzeros,
        # once per iteration plus once for the initial objective
        "solver.coupling_mflop_computed": (
            sum(2.0 * s.nnz * s.k * (s.iterations + 1) for s in solves) / 1e6 / passes, "MFLOP"),
        "solver.clamp_probs_ms": (replayed["clamp_probs"], "ms"),
        "solver.cccp_step_ms": (replayed["cccp_step"], "ms"),
        "solver.lame_objective_ms": (replayed["lame_objective"], "ms"),
        "affinity.calls": (per_pass(np.ones(len(spans)), named("affinity.build")), "count"),
        "affinity.build_s": (per_pass(dur, named("affinity.build")), "s"),
        "affinity.build_ms_p50": (median_ms("affinity.build"), "ms"),
        "affinity.share": (share(layer("affinity.")), "share"),
        "affinity.w_mb_computed": (sum(8.0 * s.n * s.n for s in solves) / 1e6 / passes, "MB"),
        "mapping.pool_calls": (per_pass(np.ones(len(spans)), outer_mapping), "count"),
        "mapping.pool_s": (per_pass(own, mapping), "s"),
        "mapping.share": (share(mapping), "share"),
        "cli.correct_s": (per_pass(dur, cli), "s"),
        "cli.self_s": (per_pass(own, cli), "s"),
        "cli.self_share": (share(cli), "share"),
        "cli.output_mb": (float(np.mean(output_bytes)) / 1e6 if output_bytes else 0.0, "MB"),
        "streams.generate_synthetic_s": (per_run(dur, named("streams.generate_synthetic")), "s"),
        "streams.make_stream_s": (per_run(dur, named("streams.make_stream")), "s"),
        "streams.save_embeddings_s": (per_run(dur, named("streams.save_embeddings")), "s"),
        "streams.load_embeddings_s": (load_s, "s"),
        "streams.load_mb_per_s": (load_bytes / 1e6 / passes / load_s if load_s else 0.0, "MB/s"),
        "numerics.softmax_rows_s": (per_run(dur, named("numerics.softmax_rows")), "s"),
        "toy.predict_ms_p50": (median_ms("toy.predict"), "ms"),
        "toy.step_ms_p50": (median_ms("toy.step"), "ms"),
        "harness.self_s": (per_pass(own, named("harness.run_online")), "s"),
        "trace.overhead_share": (wall / untraced_wall - 1.0, "share"),
        "trace.accounted_share": (per_pass(own, traced_layers) * passes / untraced_wall, "share"),
    }
    stage_s = {(k, st): 0.0 for k in HARNESS_METHODS for st in STAGES}
    for idx, result in tracer.runs:
        kind = result.hyperparameters.get("kind")
        if inside[idx] and kind in HARNESS_METHODS:
            for st in STAGES:
                stage_s[(kind, st)] += result.timings.get(st, 0.0) / passes
    for (kind, st), v in stage_s.items():
        m[f"harness.{kind}.{st}_s"] = (v, "s")
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}
