"""In-memory spans around calls into the layers of ``lame_tta``.

A :class:`Tracer` replaces module attributes of the installed package with
timing wrappers while it is installed, and puts the originals back on
``uninstall``. Nothing inside the package is edited. Every ``lame_tta``
module that holds a reference to a wrapped function gets the wrapper, so a
call site that moves from one module to another is still traced.

A span is ``[name_id, start, end, parent, batch]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``batch`` the id of the LAME
batch the span belongs to (-1 outside any batch). Spans nest strictly
because the benchmark runs in one thread, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "lame_tta"


@dataclass(frozen=True)
class Layer:
    """One traced call: span name ``<layer>.<function>``, the module that
    defines the target, and the attribute (``Class.method`` for methods).
    ``starts_batch`` marks the call that opens a new LAME batch when the
    batches are not driven by the benchmark itself."""

    span: str
    module: str
    attr: str
    starts_batch: bool = False


# The two calls every LAME batch makes; installed in every run, because
# they give the Z to check and the batch ids of spans inside ``lame correct``.
LAME_LAYERS = (
    Layer("affinity.build", "lame_tta.affinity", "KernelSpec.build", starts_batch=True),
    Layer("solver.lame_correct", "lame_tta.solver", "lame_correct"),
)

# Everything the traced run records in addition.
TRACED_LAYERS = LAME_LAYERS + (
    Layer("mapping.pool_rows", "lame_tta.mapping", "pool_rows"),
    Layer("mapping.pool_average", "lame_tta.mapping", "pool_average"),
    Layer("numerics.softmax_rows", "lame_tta.numerics", "softmax_rows"),
    Layer("streams.generate_synthetic", "lame_tta.streams", "generate_synthetic"),
    Layer("streams.make_stream", "lame_tta.streams", "make_stream"),
    Layer("streams.save_embeddings", "lame_tta.streams", "save_embeddings"),
    Layer("streams.load_embeddings", "lame_tta.streams", "load_embeddings"),
    Layer("toy.predict", "lame_tta.toy", "toy_predict"),
    Layer("toy.step", "lame_tta.toy", "entropy_min_step"),
    Layer("harness.run_online", "lame_tta.harness", "run_online"),
    Layer("cli.cmd_correct", "lame_tta.cli", "cmd_correct"),
)

REPLAY_BATCHES = 4


@dataclass
class Solve:
    """What one traced ``lame_correct`` call returned."""

    span: int
    Z: np.ndarray | None
    iterations: int
    converged: bool
    monotone: bool
    n: int
    k: int
    nnz: int


class Tracer:
    def __init__(self, capture_z: bool = False):
        self.capture_z = capture_z
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.batch = -1
        self._next_batch = 0
        self.count_batches = False
        self.solves: list[Solve] = []
        self.runs: list[tuple[int, object]] = []
        self.replay: list[tuple[np.ndarray, np.ndarray]] = []
        self.loads: list[tuple[int, int]] = []
        self.full = False
        self._restore: list = []

    # -- batches ---------------------------------------------------------

    def new_batch(self) -> None:
        self.batch = self._next_batch
        self._next_batch += 1

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_id, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.batch])
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (``bench.*``)."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = t0
            self.spans[idx][2] = t1

    def _wrapper(self, layer: Layer, fn):
        name_id = self._name_id(layer.span)
        observe = {
            "solver.lame_correct": self._observe_solve,
            "harness.run_online": self._observe_run,
            "streams.load_embeddings": self._observe_load,
        }.get(layer.span)
        tracer = self

        def traced(*args, **kwargs):
            if layer.starts_batch and tracer.count_batches:
                tracer.new_batch()
            idx = tracer._open(name_id)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx][1] = t0
                tracer.spans[idx][2] = t1
            if observe is not None:
                observe(idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _observe_solve(self, idx, args, kwargs, out) -> None:
        Z, diag = out
        Q = args[0] if args else kwargs["Q"]
        W = args[1] if len(args) > 1 else kwargs["W"]
        nnz = int(np.count_nonzero(W)) if self.full else 0
        if self.full and len(self.replay) < REPLAY_BATCHES:
            self.replay.append((np.array(Q, dtype=float), np.array(W, dtype=float)))
        self.solves.append(
            Solve(
                span=idx,
                Z=Z if self.capture_z else None,
                iterations=int(diag.iterations),
                converged=bool(diag.converged),
                monotone=bool(diag.monotone),
                n=int(Z.shape[0]),
                k=int(Z.shape[1]),
                nnz=nnz,
            )
        )

    def _observe_run(self, idx, args, kwargs, out) -> None:
        self.runs.append((idx, out))

    def _observe_load(self, idx, args, kwargs, out) -> None:
        self.loads.append((idx, os.path.getsize(args[0] if args else kwargs["path"])))

    # -- installation ----------------------------------------------------

    def install(self, layers=LAME_LAYERS) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.full = layers is TRACED_LAYERS
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in layers:
            owner = sys.modules[layer.module]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(layer, orig))
                continue
            orig = getattr(owner, layer.attr)
            wrapped = self._wrapper(layer, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if name.startswith("__"):
                        continue
                    if value is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapped)
                    elif isinstance(value, dict):
                        # dispatch tables such as toy.STEP_FUNCTIONS
                        for key, entry in list(value.items()):
                            if entry is orig:
                                self._restore.append((value, key, orig))
                                value[key] = wrapped

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._restore = []
        self.full = False

    @contextmanager
    def installed(self, layers=LAME_LAYERS):
        self.install(layers)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading spans ---------------------------------------------------

    def clear(self) -> None:
        """Forget spans and what the wrapped calls returned."""
        self.spans.clear()
        self.solves.clear()
        self.runs.clear()
        self.loads.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "batch"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: list[list]) -> np.ndarray:
    """Duration minus the summed durations of direct children, >= 0."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return np.maximum(dur - child, 0.0)


def descendants_of(spans: list[list], roots: set[int]) -> np.ndarray:
    """Mask of spans that are one of ``roots`` or lie beneath one."""
    inside = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        inside[i] = i in roots or (s[3] >= 0 and inside[s[3]])
    return inside
