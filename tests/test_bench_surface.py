"""The benchmark under ``bench/`` reaches into the package by attribute; a
rename or deletion here would only show up there as a traced run that
fails. This reads the benchmark's layer table and checks that every name
in it still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TRACED_LAYERS


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
