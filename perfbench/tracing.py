"""Span tracing from outside the package.

Every plain function bound in a traced module whose ``__module__`` is a
``gedalign`` layer module is replaced, under the name the caller looks it up
by, with a wrapper that records one span per call. ``from .kernel import
gradient`` binds the name in the importing module, so the kernel's
``gradient`` is patched as ``gedalign.solver.gradient``; a function added or
renamed later is traced without editing this file. Classes are left alone
(their identity matters to ``isinstance`` and dataclasses), and so are
generator functions, whose call returns before their work is done.

A span is ``(name, start, end, parent, op)``. Spans live in flat in-memory
arrays while the run lasts and are written out once at the end. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Modules whose bound names are patched: the package namespace (where the
#: benchmark itself looks up the public functions) and the layer modules that
#: call into other layers.
TRACED_MODULES = ("gedalign", "gedalign.solver", "gedalign.bench", "gedalign.editpath")

#: Root span names opened by the benchmark itself, not by a layer.
ROOTS = ("op", "setup")


class Tracer:
    """In-memory span recorder. ``current_op`` is stamped on new spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, op_id: int):
        """Open a root span (an operation or a set-up) stamped with ``op_id``."""
        self.current_op = op_id
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)
            self.current_op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _wrap(fn, tracer: Tracer, span_name: str):
    name_id = tracer.name_id(span_name)
    open_span = tracer.open
    close_span = tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_span(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(idx)

    return traced


def _layer_functions(module):
    for attr, obj in vars(module).items():
        if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
            continue
        owner = getattr(obj, "__module__", "") or ""
        if owner.startswith("gedalign."):
            yield attr, obj, f"{owner.split('.', 1)[1]}.{obj.__name__}"


@contextmanager
def patched(tracer: Tracer, modules):
    """Wrap every layer function bound in ``modules``; restore on exit."""
    saved = []
    try:
        for module in modules:
            for attr, fn, span_name in list(_layer_functions(module)):
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(fn, tracer, span_name))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def span_table(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self milliseconds, plus the raw span
    arrays with each span's duration and self time, for the metric code.

    ``by_name`` holds only names that were called; ``names`` maps the ids in
    the ``name`` array back to names.
    """
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    child = np.zeros_like(duration)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], duration[has_parent])
    self_s = duration - child
    k = len(tracer.names)
    calls = np.bincount(a["name"], minlength=k)
    incl = np.bincount(a["name"], weights=duration, minlength=k)
    own = np.bincount(a["name"], weights=self_s, minlength=k)
    by_name = {
        name: {"calls": int(calls[i]), "ms": 1e3 * float(incl[i]), "self_ms": 1e3 * float(own[i])}
        for i, name in enumerate(tracer.names)
        if calls[i]
    }
    return {"by_name": by_name, "names": tracer.names, "duration_s": duration, "self_s": self_s, **a}
