"""The benchmark under ``bench/`` reaches into the package by attribute; a
rename or deletion here would only show up there as a traced run that
fails. This reads the benchmark's layer table and checks that every name
in it still resolves, that ``lame correct`` calls every traced layer
from the main thread, as the tracer's span nesting assumes, and that the
benchmark's reference solve stops by the library's rule."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

import pytest

PACKAGE = "lame_tta"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def traced_layers():
    return bench_module("spans").TRACED_LAYERS


@pytest.mark.parametrize("layer", traced_layers(), ids=lambda layer: layer.span)
def test_traced_layer_resolves(layer):
    target = importlib.import_module(layer.module)
    for part in layer.attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_lame_correct_reachable_from_cli_and_harness():
    from lame_tta import cli, harness, solver, toy

    assert cli.lame_correct is solver.lame_correct
    assert harness.lame_correct is solver.lame_correct
    # the tracer wraps toy.<kind>_step by name and the harness looks the
    # step up in STEP_FUNCTIONS; both must be the same object
    for kind in ("entropy_min", "pseudo_label", "shot_im"):
        assert toy.STEP_FUNCTIONS[kind] is getattr(toy, f"{kind}_step")
    assert harness.STEP_FUNCTIONS is toy.STEP_FUNCTIONS


def test_reference_solve_shares_the_library_stopping_rule():
    from lame_tta import numerics, solver

    ref = bench_module("reference")
    assert (solver.TOL, solver.MAX_ITER, numerics.PROB_FLOOR) == (
        ref.TOL, ref.MAX_ITER, ref.PROB_FLOOR)


def traced_correct(tmp_path, monkeypatch, rows, batch_size):
    """(span, on the main thread) of every traced call that ``lame correct``
    makes on ``rows`` random rows of 50 classes."""
    from lame_tta.cli import main
    from lame_tta.streams import Dataset, save_embeddings

    calls = []

    def on_main_thread(layer, fn):
        def checked(*args, **kwargs):
            calls.append((layer.span, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return checked

    # as the tracer installs its wrappers: on the class for a method, else
    # in every package module and dispatch table that holds the function
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    for layer in traced_layers():
        owner = importlib.import_module(layer.module)
        if "." in layer.attr:
            cls_name, meth = layer.attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, meth, on_main_thread(layer, cls.__dict__[meth]))
            continue
        orig = getattr(owner, layer.attr)
        checked = on_main_thread(layer, orig)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, name, checked)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            monkeypatch.setitem(value, key, checked)

    rng = np.random.default_rng(0)
    path = tmp_path / "data.bin"
    save_embeddings(Dataset(rng.standard_normal((rows, 4)), rng.standard_normal((rows, 50)),
                            None, 50), path)
    assert main(["correct", "--input", str(path), "--batch-size", str(batch_size),
                 "--out", str(tmp_path / "out")]) == 0
    return calls


def test_correct_calls_every_traced_layer_from_the_main_thread(tmp_path, monkeypatch):
    calls = traced_correct(tmp_path, monkeypatch, 100, 16)
    spans = [span for span, _ in calls]
    # seven batches: six of 16 rows and one of 4
    assert spans.count("affinity.build") == spans.count("solver.lame_correct") == 7
    assert spans.count("cli.cmd_correct") == 1
    assert [span for span, main_thread in calls if not main_thread] == []


def test_correct_builds_a_one_row_tail_batch_too(tmp_path, monkeypatch):
    # two batches of 16 and one of 1: the tracer opens each batch at its
    # build, so a tail that skipped it would file its solve under batch 1
    calls = traced_correct(tmp_path, monkeypatch, 33, 16)
    spans = [span for span, _ in calls if span.startswith(("affinity.", "solver."))]
    assert spans == ["affinity.build", "solver.lame_correct"] * 3
    assert all(main_thread for _, main_thread in calls)
