"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function and method of the toolkit's
layer modules, in every `anisofield` module namespace that binds it (the
layers import one another's functions by name). Each call made on the
tracing thread records a span: name, start, end, parent and run id. Spans
stay in memory until `write` dumps them at the end of the run.

Calls made on other threads (the normal-draw workers) are counted and
timed but record no span. The spans therefore form one timeline, and the
self times of all spans add up to no more than the traced run.

Counters that repeat exactly are computed from a call's arguments and
result after the call, inside a `trace.observe` span, so their cost is
not charged to any layer. They are labelled computed: they count work
from array sizes and ignore caches.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "anisofield"
LAYERS = ("metric", "field", "hitting", "calibration", "experiments", "seeds")
MARK = "__perfbench_traced__"
OBSERVE = "trace.observe"


def count_wrapped(package: str = PACKAGE) -> int:
    """Number of traced wrappers bound in the package's module namespaces."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for val in vars(mod).values():
            objs = vars(val).values() if inspect.isclass(val) else (val,)
            for obj in objs:
                obj = getattr(obj, "__func__", obj)
                if getattr(obj, MARK, False):
                    found.add(id(obj))
    return len(found)


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []            # [name, start, end, parent]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.factor_hashes: set[bytes] = set()
        self.originals: dict = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._threaded: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])

    # -- installation -------------------------------------------------------

    def install(self, package: str = PACKAGE) -> None:
        """Wrap the layers' public functions and methods."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrappers[id(val)] = self._wrap(val, f"{layer}.{attr}")
                elif inspect.isclass(val):
                    self._wrap_methods(val, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, name))
            elif isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self._wrap(val.__func__, name)))

    def _wrap(self, fn, name: str):
        self.originals[name] = fn
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add_threaded(name, time.perf_counter() - t0)
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                j = tracer._open(OBSERVE)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(tracer, bound.arguments, result)
                finally:
                    tracer._close(j)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def _add_threaded(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._threaded[name]
            entry[0] += 1
            entry[1] += seconds

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-name `.calls`, `.s` (inclusive) and `.self_s`, plus counters.

        `.s` and `.calls` include calls made on worker threads; `.self_s`
        covers the tracing thread only.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - covered[i]
        for name, (calls, seconds) in self._threaded.items():
            out[name + ".calls"] += calls
            out[name + ".s"] += seconds
        out.update(self.counters)
        out["field.cholesky_with_jitter.distinct"] = len(self.factor_hashes)
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# -- computed counters --------------------------------------------------------

def _cholesky(tr: Tracer, a: dict, result) -> None:
    cov = np.ascontiguousarray(a["cov"])
    n = cov.shape[0]
    tr.counters["field.cholesky_with_jitter.gflop"] += n ** 3 / 3.0 / 1e9
    tr.counters["field.cholesky_with_jitter.jittered"] += result[1] > 0.0
    h = hashlib.sha256(repr((cov.shape, cov.dtype.str)).encode())
    h.update(memoryview(cov).cast("B"))
    tr.factor_hashes.add(h.digest())


def _normals(tr: Tracer, a: dict, result) -> None:
    tr.counters["field.standard_normal_batch.normals"] += result.size


def _psi(tr: Tracer, a: dict, result) -> None:
    if result.failure == "zero-hit":
        tr.counters["calibration.psi_estimator.zero_hit"] += 1
    elif result.failure == "phase-jump":
        tr.counters["calibration.psi_estimator.phase_jump"] += 1


def _artifacts(tr: Tracer, a: dict, result) -> None:
    out_dir = a["config"].out_dir
    tr.counters["experiments.artifact_bytes"] += sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in
        ("results.csv", "report.json", "manifest.json"))


OBSERVERS = {
    "field.cholesky_with_jitter": _cholesky,
    "field.standard_normal_batch": _normals,
    "calibration.psi_estimator": _psi,
    "experiments.run_experiment": _artifacts,
}
